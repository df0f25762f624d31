//! Lockstep property test: defenses delay and reorder execution, but
//! must never change what the core computes. Random AMuLeT\* programs
//! run under every shipped defense on the tiny core and the E-core; the
//! committed instruction stream and the final architectural registers
//! must equal the sequential emulator's on the same binary (the
//! ProtCC-compiled one for the Protean configurations). Fixed
//! call/ret-heavy programs cover the return-stack checkpoints that
//! squashes restore.
//!
//! Replay a failing case with `PROTEAN_CHECK_REPLAY=<case seed>`.

use protean_amulet::{
    generate, generate_with_template, init_cold_chain, GadgetTemplate, GenConfig, PUBLIC_BASE,
    PUBLIC_SIZE,
};
use protean_arch::{ArchState, Emulator, ExitStatus};
use protean_bench::Defense;
use protean_cc::{compile_with, Pass};
use protean_isa::{assemble, Program, Reg};
use protean_sim::{Core, CoreConfig, SimExit};
use protean_testkit::{Checker, Rng};

/// The ProtCC passes the Protean configurations are compiled with.
const PASSES: [Pass; 4] = [Pass::Arch, Pass::Cts, Pass::Ct, Pass::Unr];

#[derive(Debug)]
struct Case {
    gen: GenConfig,
    input_seed: u64,
    pass: Pass,
}

fn gen_case(rng: &mut Rng) -> Case {
    Case {
        gen: GenConfig {
            segments: rng.gen_range(2..10),
            gadget_bias: rng.gen_range(0..=10) as f64 / 10.0,
            seed: rng.gen(),
        },
        input_seed: rng.gen(),
        pass: PASSES[rng.gen_range(0..PASSES.len())],
    }
}

/// The fuzzer's input shape: cold pointer chain, small public indices,
/// small GPR values.
fn input(seed: u64) -> ArchState {
    let mut state = ArchState::new();
    init_cold_chain(&mut state.mem);
    let mut rng = Rng::seed_from_u64(seed);
    for i in 0..PUBLIC_SIZE / 8 {
        state
            .mem
            .write(PUBLIC_BASE + i * 8, 8, rng.gen_range(0..64));
    }
    for i in 0..6 {
        state.set_reg(Reg::gpr(i), rng.gen_range(0..1024));
    }
    state
}

fn check_lockstep(program: &Program, init: &ArchState, cfg: &CoreConfig, defense: Defense) {
    let mut emu = Emulator::new(program, init.clone());
    let (status, records) = emu.run(200_000);
    assert_eq!(status, ExitStatus::Halted, "the emulator must halt");
    let mut core = Core::new(program, cfg.clone(), defense.make(), init);
    core.record_traces(true);
    let r = core.run(300_000, 5_000_000);
    let tag = format!("{defense:?} on {}", cfg.name);
    assert_eq!(r.exit, SimExit::Halted, "{tag}: the core must halt");
    let emu_idxs: Vec<u32> = records.iter().map(|rec| rec.idx).collect();
    assert!(
        r.committed_idxs == emu_idxs,
        "{tag}: committed instruction stream diverges from the emulator \
         (core {} µops, emulator {})",
        r.committed_idxs.len(),
        emu_idxs.len()
    );
    for reg in Reg::all() {
        assert_eq!(
            r.final_regs[reg.index()],
            emu.state.reg(reg),
            "{tag}: final value of {reg} diverges"
        );
    }
}

#[test]
fn every_defense_commits_what_the_emulator_commits() {
    let cores = [CoreConfig::test_tiny(), CoreConfig::e_core()];
    Checker::new("every_defense_commits_what_the_emulator_commits")
        .cases(24)
        .run(gen_case, |case| {
            let base = generate(&case.gen);
            let protcc = compile_with(&base, case.pass).program;
            let init = input(case.input_seed);
            for cfg in &cores {
                for defense in Defense::SHIPPED {
                    let program = if defense.wants_protcc() {
                        &protcc
                    } else {
                        &base
                    };
                    check_lockstep(program, &init, cfg, defense);
                }
            }
        });
}

/// Recursion deeper than any preset's RSB: the deep returns mispredict
/// (RSB underflow), and the data-dependent base-case branch squashes
/// mid-recursion, restoring the RSB checkpoint of a `call` or `ret`.
const RECURSION: &str = r#"
      mov rsp, 0x80000
      and r0, r0, 31
      add r0, r0, 20      ; depth 20..=51 > 16 RSB entries
      call rec
      halt
    rec:
      cmp r0, 0
      jeq base
      sub r0, r0, 1
      call rec
      add r1, r1, r0
      ret
    base:
      ret
"#;

/// Call/ret-heavy programs under every defense on the tiny core and the
/// E-core: the recursion above, and generated Spectre-RSB gadgets whose
/// `ret` is architecturally redirected (a stack switch) while the RSB
/// predicts the abandoned call site — every one a mispredicted return.
#[test]
fn call_ret_programs_commit_what_the_emulator_commits() {
    let mut programs = vec![assemble(RECURSION).expect("recursion assembles")];
    for seed in 1..=3 {
        let gen = GenConfig {
            segments: 6,
            gadget_bias: 1.0,
            seed,
        };
        programs.push(generate_with_template(&gen, GadgetTemplate::Rsb));
    }
    let cores = [CoreConfig::test_tiny(), CoreConfig::e_core()];
    for (n, base) in programs.iter().enumerate() {
        let protcc = compile_with(base, Pass::Arch).program;
        let init = input(n as u64);
        for cfg in &cores {
            for defense in Defense::SHIPPED {
                let program = if defense.wants_protcc() {
                    &protcc
                } else {
                    base
                };
                check_lockstep(program, &init, cfg, defense);
            }
        }
    }
}
