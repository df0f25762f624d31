//! Lockstep property test: defenses delay and reorder execution, but
//! must never change what the core computes. Random AMuLeT\* programs
//! run under every shipped defense on the tiny core and the E-core; the
//! committed instruction stream and the final architectural registers
//! must equal the sequential emulator's on the same binary (the
//! ProtCC-compiled one for the Protean configurations). Fixed
//! call/ret-heavy programs cover the return-stack checkpoints that
//! squashes restore.
//!
//! The same corpus also checks the pipeline's half of the defense gate
//! contract (see `the_execute_gate_is_asked_only_of_transmitters`).
//!
//! Replay a failing case with `PROTEAN_CHECK_REPLAY=<case seed>`.

use protean_amulet::{
    generate, generate_with_template, init_cold_chain, GadgetTemplate, GenConfig, PUBLIC_BASE,
    PUBLIC_SIZE,
};
use protean_arch::{ArchState, Emulator, ExitStatus};
use protean_bench::Defense;
use protean_cc::{compile_with, Pass};
use protean_isa::{assemble, Program, Reg, RegSet, TransmitterSet};
use protean_sim::{
    Cache, Core, CoreConfig, DefensePolicy, DynInst, Gate, RegTags, SimExit, SpecFrontier,
};
use protean_testkit::{Checker, Rng};
use std::cell::Cell;
use std::rc::Rc;

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
    check_lockstep_under(program, init, cfg, defense, defense.make());
}

/// [`check_lockstep`] with `policy` standing in for `defense.make()`.
fn check_lockstep_under(
    program: &Program,
    init: &ArchState,
    cfg: &CoreConfig,
    defense: Defense,
    policy: Box<dyn DefensePolicy>,
) {
    let mut emu = Emulator::new(program, init.clone());
    let (status, records) = emu.run(200_000);
    assert_eq!(status, ExitStatus::Halted, "the emulator must halt");
    let mut core = Core::new(program, cfg.clone(), policy, init);
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

/// A shipped policy wrapped to check what the pipeline hands it. Every
/// renamed µop must mark in `sens_mask` exactly the sources that the
/// policy's transmitter set makes sensitive, and `may_execute` must be
/// asked only of non-branch transmitters. Every hook delegates to the
/// wrapped policy, so the run is the policy's own.
struct Recorder {
    inner: Box<dyn DefensePolicy>,
    xmit: TransmitterSet,
    /// µops renamed and execute-gate questions asked, for non-vacuity.
    counts: Rc<Cell<(u64, u64)>>,
}

impl DefensePolicy for Recorder {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn transmitters(&self) -> TransmitterSet {
        self.inner.transmitters()
    }
    fn uses_protisa(&self) -> bool {
        self.inner.uses_protisa()
    }
    fn l1d_meta_fill(&self) -> bool {
        self.inner.l1d_meta_fill()
    }
    fn pending_squash_bug(&self) -> bool {
        self.inner.pending_squash_bug()
    }
    fn on_rename(&mut self, u: &mut DynInst, tags: &mut RegTags) {
        let marked: RegSet = u
            .srcs
            .iter()
            .enumerate()
            .filter(|(i, _)| u.sens_mask >> i & 1 != 0)
            .map(|(_, &(r, _))| r)
            .collect();
        assert_eq!(
            (marked, u.sens_mask >> u.srcs.len()),
            (self.xmit.sensitive_regs(&u.inst), 0),
            "{}: sensitive mask {:#b} of {}",
            self.inner.name(),
            u.sens_mask,
            u.inst
        );
        let (renamed, asked) = self.counts.get();
        self.counts.set((renamed + 1, asked));
        self.inner.on_rename(u, tags);
    }
    fn may_execute(&self, u: &DynInst, tags: &RegTags, fr: &SpecFrontier) -> Gate {
        assert!(
            !u.inst.is_branch() && self.xmit.is_transmitter(&u.inst),
            "{}: execute gate asked of {}, not a non-branch transmitter",
            self.inner.name(),
            u.inst
        );
        let (renamed, asked) = self.counts.get();
        self.counts.set((renamed, asked + 1));
        self.inner.may_execute(u, tags, fr)
    }
    fn may_wakeup(&self, u: &DynInst, tags: &RegTags, fr: &SpecFrontier) -> Gate {
        self.inner.may_wakeup(u, tags, fr)
    }
    fn may_resolve(&self, u: &DynInst, tags: &RegTags, fr: &SpecFrontier) -> Gate {
        self.inner.may_resolve(u, tags, fr)
    }
    fn on_load_data(&mut self, u: &mut DynInst, tags: &mut RegTags, l1d: &Cache) {
        self.inner.on_load_data(u, tags, l1d);
    }
    fn on_commit(&mut self, u: &DynInst, tags: &mut RegTags, l1d: &mut Cache) {
        self.inner.on_commit(u, tags, l1d);
    }
    fn stats(&self) -> Vec<(String, f64)> {
        self.inner.stats()
    }
}

/// The pipeline's half of the execute-gate contract, over the lockstep
/// corpus on the tiny core: rename marks each µop's sensitive sources
/// under the policy's transmitter set, and the issue stage asks the
/// execute gate of non-branch transmitters only. Every shipped defense
/// must still commit what the emulator commits.
#[test]
fn the_execute_gate_is_asked_only_of_transmitters() {
    let cfg = CoreConfig::test_tiny();
    let counts: Vec<Rc<Cell<(u64, u64)>>> =
        Defense::SHIPPED.iter().map(|_| Rc::default()).collect();
    Checker::new("the_execute_gate_is_asked_only_of_transmitters")
        .cases(24)
        .run(gen_case, |case| {
            let base = generate(&case.gen);
            let protcc = compile_with(&base, case.pass).program;
            let init = input(case.input_seed);
            for (defense, counts) in Defense::SHIPPED.into_iter().zip(&counts) {
                let program = if defense.wants_protcc() {
                    &protcc
                } else {
                    &base
                };
                let inner = defense.make();
                let recorder = Recorder {
                    xmit: inner.transmitters(),
                    inner,
                    counts: Rc::clone(counts),
                };
                check_lockstep_under(program, &init, &cfg, defense, Box::new(recorder));
            }
        });
    for (defense, counts) in Defense::SHIPPED.iter().zip(&counts) {
        let (renamed, asked) = counts.get();
        assert!(
            renamed > 0 && asked > 0,
            "{defense:?}: {renamed} µops renamed, {asked} execute-gate questions"
        );
    }
}
