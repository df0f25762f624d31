//! The SPT patches of paper §VII-B4c, verified in isolation:
//!
//! * the 32-bit untaint performance fix: without it, `mov eax, imm`-style
//!   zero-extending writes leave the destination tainted, stalling
//!   transmitters that use it;
//! * the original configuration (no division transmitters) leaves the
//!   divider channel open — covered by the fuzzer campaigns; here we
//!   check the taint toggle's timing effect directly.

use protean_arch::ArchState;
use protean_baselines::SptPolicy;
use protean_isa::{assemble, Program};
use protean_sim::{Core, CoreConfig, DefensePolicy, SimExit};

fn run(program: &Program, policy: Box<dyn DefensePolicy>) -> u64 {
    let mut init = ArchState::new();
    for i in 0..64u64 {
        init.mem.write(0x10000 + i * 8, 8, i % 7);
    }
    let core = Core::new(program, CoreConfig::p_core(), policy, &init);
    let r = core.run(1_000_000, 60_000_000);
    assert_eq!(r.exit, SimExit::Halted);
    r.stats.cycles
}

/// A loop that loads private data into `r1`, then *fully overwrites* it
/// with a 32-bit constant before using it as a load index. With the fix
/// the index is public; without it, the stale upper-bits taint makes
/// every indexed load a stalled transmitter.
#[test]
fn upper32_untaint_fix_removes_stalls() {
    let program = assemble(
        r#"
          mov r3, 0
        loop:
          load r1, [0x10000 + r3*8]   ; private data into r1
          add r2, r2, r1
          mov.w r1, 64                 ; 32-bit reset: zero-extends
          load r4, [0x10000 + r1*1]    ; r1-indexed: public with the fix
          add r2, r2, r4
          add r3, r3, 1
          cmp r3, 2000
          jlt loop
          halt
        "#,
    )
    .unwrap();
    let fixed = run(&program, Box::new(SptPolicy::fixed()));
    let unfixed = run(&program, Box::new(SptPolicy::fixed_without_perf_fix()));
    assert!(
        unfixed > fixed + fixed / 10,
        "the 32-bit untaint fix should remove taint stalls: fixed={fixed}, unfixed={unfixed}"
    );
}

/// A division on data loaded from private memory: the fixed SPT treats
/// divisions as transmitters and stalls them; the original does not.
#[test]
fn division_transmitter_gating_costs_cycles() {
    let program = assemble(
        r#"
          mov r3, 0
          mov r5, 7
        loop:
          load r1, [0x10000 + r3*8]   ; private data
          add r1, r1, 1
          div r2, r1, r5              ; transmitter under the fixed model
          add r4, r4, r2
          add r3, r3, 1
          cmp r3, 2000
          jlt loop
          halt
        "#,
    )
    .unwrap();
    let fixed = run(&program, Box::new(SptPolicy::fixed()));
    let original = run(&program, Box::new(SptPolicy::original()));
    assert!(
        fixed > original,
        "div gating should cost cycles: fixed={fixed}, original={original}"
    );
}

/// SPT's commit-time untaint opens gates of µops already waiting: the
/// first load transmits the (initially private) `r0`, so at its commit
/// `r0` becomes public and the last load, stalled on the same register
/// behind a slow dependent load pair, may issue at once instead of
/// waiting until it is non-speculative. (The pipeline parks a stalled
/// µop until the frontier reaches it; the untaint must un-park it.)
#[test]
fn commit_time_untaint_releases_a_stalled_transmitter() {
    let program = assemble(
        r#"
          load r1, [r0 + 0x10000]
          load r5, [0x30000]
          load r6, [r5 + 0x40000]   ; private index: waits for the head
          load r2, [r0 + 0x10008]
          halt
        "#,
    )
    .unwrap();
    let mut core = Core::new(
        &program,
        CoreConfig::p_core(),
        Box::new(SptPolicy::fixed()),
        &ArchState::new(),
    );
    core.record_traces(true);
    let r = core.run(1_000, 100_000);
    assert_eq!(r.exit, SimExit::Halted);
    // `timing` rows: [pc, fetch, rename, issue, complete, commit].
    let (first, slow, last) = (r.timing[0], r.timing[2], r.timing[3]);
    assert!(
        last[3] >= first[5] && last[3] < slow[4],
        "the last load must issue once r0 is public, before the slow \
         load completes: {:?}",
        r.timing
    );
}
