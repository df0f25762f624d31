//! Mechanism-specific behaviour of ProtDelay and ProtTrack (paper §VI-B):
//! the optimizations that distinguish them from raw AccessDelay /
//! AccessTrack, and the secure fallbacks.

use protean_arch::ArchState;
use protean_core::{ProtDelayPolicy, ProtTrackPolicy};
use protean_isa::{assemble, Program};
use protean_sim::{Core, CoreConfig, DefensePolicy, SimExit, SimResult};

fn run(program: &Program, policy: Box<dyn DefensePolicy>) -> SimResult {
    let mut init = ArchState::new();
    for i in 0..512u64 {
        init.mem.write(0x10000 + i * 8, 8, i % 97);
    }
    let mut core = Core::new(program, CoreConfig::p_core(), policy, &init);
    core.record_traces(true);
    let r = core.run(1_000_000, 60_000_000);
    assert_eq!(r.exit, SimExit::Halted);
    r
}

/// §VI-B1: ProtDelay only delays dependents of *unprefixed* accesses —
/// dependents of a `PROT`-prefixed access may compute speculatively
/// (they are accesses themselves and will be delayed where it matters).
/// Independent per-iteration `PROT` arithmetic chains over streamed
/// protected data overlap under ProtDelay but serialize at the commit
/// frontier under raw AccessDelay.
#[test]
fn selective_wakeup_speeds_up_protected_chains() {
    let program = assemble(
        r#"
          mov r3, 0
        loop:
          and r4, r3, 0x1f8
          prot load r1, [0x40000 + r4*1] ; L1-resident *protected* data
          prot mul r2, r1, 3             ; independent PROT chain
          prot add r2, r2, 7
          prot rol r2, r2, 5
          prot xor r2, r2, r1
          prot mul r2, r2, 9
          prot add r2, r2, 1
          prot store [0x90000 + r4*8], r2
          add r3, r3, 1
          cmp r3, 1500
          jlt loop
          halt
        "#,
    )
    .unwrap();
    let delay = run(&program, Box::new(ProtDelayPolicy::new())).stats.cycles;
    let raw = run(&program, Box::new(ProtDelayPolicy::raw_access_delay()))
        .stats
        .cycles;
    assert!(
        raw as f64 > delay as f64 * 1.15,
        "raw AccessDelay should serialize PROT chains: delay={delay}, raw={raw}"
    );
}

/// §VI-B2: ProtTrack's access predictor lets loads of unprotected memory
/// run untainted; raw AccessTrack taints every load, serializing the
/// load->load chains below.
#[test]
fn access_predictor_avoids_taint_serialization() {
    let program = assemble(
        r#"
          mov r3, 0
          ; warm the table so it is architecturally unprotected
        warm:
          shl r4, r3, 3
          and r4, r4, 0xff8
          load r1, [0x10000 + r4*1]
          add r3, r3, 1
          cmp r3, 512
          jlt warm
          mov r3, 0
        loop:
          and r4, r3, 0xff8
          load r1, [0x10000 + r4*1]    ; unprotected after warmup
          and r1, r1, 0xff8
          load r2, [0x10000 + r1*1]    ; dependent load
          add r5, r5, r2
          add r3, r3, 8
          cmp r3, 24000
          jlt loop
          halt
        "#,
    )
    .unwrap();
    let track = run(&program, Box::new(ProtTrackPolicy::new())).stats.cycles;
    let raw = run(&program, Box::new(ProtTrackPolicy::raw_access_track()))
        .stats
        .cycles;
    assert!(
        raw as f64 > track as f64 * 1.3,
        "raw AccessTrack should serialize warmed load-load chains: track={track}, raw={raw}"
    );
}

/// The predictor's misprediction rate on a stable workload must be tiny
/// (the Fig. 5 premise), and its statistics must be exposed.
#[test]
fn predictor_stats_reported_and_low_on_stable_code() {
    let program = assemble(
        r#"
          mov r3, 0
        loop:
          and r4, r3, 0xff8
          load r1, [0x10000 + r4*1]
          add r5, r5, r1
          add r3, r3, 8
          cmp r3, 32000
          jlt loop
          halt
        "#,
    )
    .unwrap();
    let r = run(&program, Box::new(ProtTrackPolicy::new()));
    let rate = r
        .stats
        .policy
        .iter()
        .find(|(k, _)| k == "access_pred_mispred_rate")
        .map(|(_, v)| *v)
        .expect("ProtTrack reports its misprediction rate");
    assert!(
        rate < 0.05,
        "stable single-PC load should predict well, got {rate}"
    );
}

/// Both mechanisms must produce identical architectural results to each
/// other and to the sequential emulator on a branchy protected kernel.
#[test]
fn mechanisms_agree_architecturally() {
    let program = assemble(
        r#"
          mov r3, 0
          prot load r1, [0x10000]
        loop:
          prot and r4, r1, 1
          prot cmp r4, 1
          prot rol r1, r1, 3
          prot xor r1, r1, r3
          add r3, r3, 1
          cmp r3, 500
          jlt loop
          prot store [0x10100], r1
          halt
        "#,
    )
    .unwrap();
    let a = run(&program, Box::new(ProtDelayPolicy::new()));
    let b = run(&program, Box::new(ProtTrackPolicy::new()));
    assert_eq!(a.final_regs, b.final_regs);
    assert_eq!(a.committed_idxs, b.committed_idxs);
}

/// The same liveness invariant the baselines satisfy (see
/// `protean-baselines/tests/no_deadlock_invariant.rs`): a non-speculative
/// µop is never blocked by ProtDelay or ProtTrack, however protected or
/// tainted.
#[test]
fn protean_policies_never_block_at_the_head() {
    use protean_isa::{Inst, Mem, Op, Reg, Width};
    use protean_sim::{Gate, MemState, RegTags, SpecFrontier, SpeculationModel, UopStatus};
    let seq = 10;
    let u = protean_sim::DynInst {
        seq,
        idx: 3,
        pc: 0x40000c,
        inst: Inst::prot(Op::Load {
            dst: Reg::R1,
            addr: Mem::base(Reg::R0),
            size: Width::W64,
        }),
        srcs: [(Reg::R0, 17)].into_iter().collect(),
        dsts: Default::default(),
        status: UopStatus::Done,
        mem: Some(MemState {
            addr: Some(0x1000),
            size: 8,
            is_store: false,
            value: 0,
            data_ready: true,
            data_prot: true,
            data_yrot: seq - 1,
            data_taint: true,
            fwd_from: Some(seq - 1),
            fwd_data_yrot: seq - 1,
            fwd_data_taint: true,
        }),
        pred_next: Some(4),
        pred_taken: false,
        actual_next: Some(Some(9)),
        actual_taken: true,
        mispredicted: true,
        resolved: false,
        wakeup_done: false,
        hist_snapshot: 0,
        rsb_checkpoint: 0,
        prot_out: true,
        src_prot: true,
        sens_prot: true,
        mem_prot: Some(true),
        in_taint: true,
        in_yrot: seq - 1,
        delay_wakeup_nonspec: true,
        wakeup_hold_root: seq - 1,
        pred_no_access: Some(true),
        div_fault: false,
        addr_regs: protean_isa::RegSet::from_regs([Reg::R0]),
        data_reg: None,
        fetch_cycle: 0,
        rename_cycle: 0,
        issue_cycle: 0,
        complete_cycle: 0,
    };
    let mut tags = RegTags::new(64, 32);
    tags.taint[17] = true;
    tags.yrot[17] = seq - 1;
    tags.prot[17] = true;
    for model in [SpeculationModel::AtCommit, SpeculationModel::Control] {
        let fr = SpecFrontier {
            head_seq: seq,
            oldest_unresolved_branch: seq,
            model,
        };
        let policies: Vec<Box<dyn DefensePolicy>> = vec![
            Box::new(ProtDelayPolicy::new()),
            Box::new(ProtDelayPolicy::raw_access_delay()),
            Box::new(ProtTrackPolicy::new()),
            Box::new(ProtTrackPolicy::raw_access_track()),
        ];
        for policy in policies {
            let name = policy.name();
            assert!(
                policy.may_execute(&u, &tags, &fr).is_open(),
                "{name} ({model:?})"
            );
            assert!(
                policy.may_wakeup(&u, &tags, &fr).is_open(),
                "{name} ({model:?})"
            );
            assert_eq!(
                policy.may_resolve(&u, &tags, &fr),
                Gate::Open,
                "{name} ({model:?})"
            );
        }
    }
}
