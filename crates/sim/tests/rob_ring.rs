//! The ROB ring at a size that is not a power of two. The ring has
//! `rob_size.next_power_of_two()` slots and every preset's ROB is a
//! power of two, so only a config like this one leaves slots that rename
//! must never fill. (That a ROB slot is reused without a drop is a
//! const assertion next to `DynInst` and `FetchEntry`.)

use protean_arch::{ArchState, Emulator, ExitStatus};
use protean_isa::assemble;
use protean_sim::{Core, CoreConfig, SimExit, UnsafePolicy};

/// Data-dependent branches that keep mispredicting, a call/return per
/// taken trip and store-to-load traffic: squashes every few cycles.
const SQUASHY: &str = r#"
      mov rsp, 0x80000
      mov r0, 0x10000
    loop:
      load r1, [0x20000]      ; slow-ish branch input
      add r3, r5, r1
      mul r3, r3, 5
      and r3, r3, 4
      cmp r3, 0
      jeq skip
      call bump
    skip:
      store [r0 + 8], r5
      load r6, [r0 + 8]
      add r5, r5, 1
      cmp r5, 60
      jlt loop
      halt
    bump:
      add r4, r4, r6
      ret
"#;

#[test]
fn non_power_of_two_rob_matches_the_emulator_and_stalls_at_rob_size() {
    let prog = assemble(SQUASHY).expect("program assembles");
    let mut init = ArchState::new();
    init.mem.write(0x20000, 8, 3);
    let mut emu = Emulator::new(&prog, init.clone());
    let (status, records) = emu.run(100_000);
    assert_eq!(status, ExitStatus::Halted);

    let cfg = CoreConfig {
        rob_size: 6, // an 8-slot ring
        trace: true,
        ..CoreConfig::test_tiny()
    };
    let mut core = Core::new(&prog, cfg, Box::new(UnsafePolicy), &init);
    core.record_traces(true);
    let r = core.run(100_000, 5_000_000);
    assert_eq!(r.exit, SimExit::Halted);
    let emu_idxs: Vec<u32> = records.iter().map(|rec| rec.idx).collect();
    assert!(r.committed_idxs == emu_idxs, "committed stream diverges");
    for reg in protean_isa::Reg::all() {
        assert_eq!(r.final_regs[reg.index()], emu.state.reg(reg), "{reg}");
    }
    assert!(
        r.stats.branch_squashes > 5,
        "the run must be squash-heavy ({} branch squashes)",
        r.stats.branch_squashes
    );

    // ROB occupancy after each cycle's rename: µops renamed by then and
    // neither committed nor squashed yet (both happen before rename in a
    // tick).
    let trace = r.trace.expect("tracing was on");
    let mut delta = vec![0i64; r.stats.cycles as usize + 2];
    for u in &trace.uops {
        delta[u.rename_cycle as usize] += 1;
        if let Some(end) = u.commit_cycle.or(u.squash.map(|s| s.cycle)) {
            delta[end as usize] -= 1;
        }
    }
    let (mut occ, mut max) = (0i64, 0i64);
    for d in delta {
        occ += d;
        max = max.max(occ);
    }
    assert_eq!(
        max, 6,
        "rename must fill the ROB to rob_size, never to the ring's 8 slots"
    );
}
