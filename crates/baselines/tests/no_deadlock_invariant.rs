//! The liveness invariant every policy must satisfy: once a µop is
//! non-speculative (at the ROB head under ATCOMMIT), `may_execute`,
//! `may_wakeup`, and `may_resolve` must all let it pass, no matter how
//! tainted or protected its operands are — otherwise the pipeline
//! deadlocks. (The watchdog in `protean-sim` would catch a violation at
//! runtime; this checks the policies directly.)

use protean_baselines::{AccessDelayPolicy, SptPolicy, SptSbPolicy, SttPolicy};
use protean_isa::{Inst, Mem, Op, Reg, Width};
use protean_sim::{
    DefensePolicy, DynInst, MemState, RegTags, SpecFrontier, SpeculationModel, UnsafePolicy,
    UopStatus,
};

/// A maximally "dangerous" µop: a load with protected, tainted sensitive
/// operands, forwarded from a tainted store, predicted no-access, with a
/// delayed-wakeup flag.
fn worst_case_uop(seq: u64) -> DynInst {
    DynInst {
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
            data_yrot: seq.saturating_sub(1).max(1),
            data_taint: true,
            fwd_from: Some(seq.saturating_sub(1).max(1)),
            fwd_data_yrot: seq.saturating_sub(1).max(1),
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
        in_yrot: seq.saturating_sub(1).max(1),
        delay_wakeup_nonspec: true,
        wakeup_hold_root: seq.saturating_sub(1).max(1),
        pred_no_access: Some(true),
        div_fault: false,
        addr_regs: protean_isa::RegSet::from_regs([Reg::R0]),
        data_reg: None,
        fetch_cycle: 0,
        rename_cycle: 0,
        issue_cycle: 0,
        complete_cycle: 0,
    }
}

fn policies() -> Vec<Box<dyn DefensePolicy>> {
    vec![
        Box::new(UnsafePolicy),
        Box::new(AccessDelayPolicy::nda()),
        Box::new(SttPolicy::fixed()),
        Box::new(SttPolicy::original()),
        Box::new(SptPolicy::fixed()),
        Box::new(SptPolicy::original()),
        Box::new(SptSbPolicy::fixed()),
        Box::new(SptSbPolicy::original()),
    ]
}

#[test]
fn non_speculative_uops_are_never_blocked() {
    for model in [SpeculationModel::AtCommit, SpeculationModel::Control] {
        for policy in policies() {
            let name = policy.name();
            let seq = 10;
            let u = worst_case_uop(seq);
            // Even fully tainted register state…
            let mut tags = RegTags::new(64, 32);
            for t in tags.taint.iter_mut() {
                *t = true;
            }
            for y in tags.yrot.iter_mut() {
                *y = 9;
            }
            for p in tags.prot.iter_mut() {
                *p = true;
            }
            // …must not block a µop at the non-speculative frontier.
            let fr = SpecFrontier {
                head_seq: seq,
                // Under CONTROL the µop itself may be the oldest
                // unresolved branch.
                oldest_unresolved_branch: seq,
                model,
            };
            assert!(fr.is_non_speculative(seq), "frontier setup");
            assert!(
                policy.may_execute(&u, &tags, &fr).is_open(),
                "{name} blocks execution at the head ({model:?})"
            );
            assert!(
                policy.may_resolve(&u, &tags, &fr).is_open(),
                "{name} blocks resolution at the head ({model:?})"
            );
            // Wakeup may additionally be held by a forwarded root; that
            // root (seq-1) is older than the head, hence non-speculative
            // too, so wakeup must be allowed.
            assert!(
                policy.may_wakeup(&u, &tags, &fr).is_open(),
                "{name} blocks wakeup at the head ({model:?})"
            );
        }
    }
}

#[test]
fn speculative_worst_case_is_blocked_by_secure_policies() {
    // Sanity inverse: deep in the window, the same µop must be blocked
    // from executing by every policy that gates loads.
    let u = worst_case_uop(100);
    let mut tags = RegTags::new(64, 32);
    tags.taint[17] = true;
    tags.yrot[17] = 99;
    tags.prot[17] = true;
    let fr = SpecFrontier {
        head_seq: 5,
        oldest_unresolved_branch: 3,
        model: SpeculationModel::AtCommit,
    };
    for policy in policies() {
        let name = policy.name();
        if name.starts_with("STT") || name.starts_with("SPT") {
            assert!(
                !policy.may_execute(&u, &tags, &fr).is_open(),
                "{name} should block a tainted-address speculative load"
            );
        }
    }
}
