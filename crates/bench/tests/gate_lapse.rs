//! Lapse-point soundness of every shipped defense's gates.
//!
//! The pipeline parks a µop whose `may_execute`/`may_wakeup` verdict is
//! `Gate::Closed { until, .. }` and does not ask the policy again until the
//! speculation frontier's point reaches `until`. That is only sound if
//! the gate really stays closed on `[point, until)`. This property test
//! draws random µop shapes (instructions from generated programs),
//! defense state, register tags and frontiers, and checks for every
//! shipped policy, at both gates and under both speculation models:
//!
//! * a closed verdict names a lapse point ahead of the frontier, the
//!   gate stays closed at every point before it and opens exactly at it;
//! * once the frontier reaches the µop itself, the gate is open.

use protean_amulet::{generate, GenConfig};
use protean_bench::Defense;
use protean_isa::{InlineVec, Inst, Reg};
use protean_sim::{
    BlockPoint, DefensePolicy, DynInst, Gate, MemState, RegTags, Seq, SpecFrontier,
    SpeculationModel, UopStatus, NO_ROOT,
};
use protean_testkit::{Checker, Rng};
use std::cell::Cell;

/// Physical registers the random µops draw their sources from.
const N_PHYS: usize = 24;

#[derive(Debug)]
struct Case {
    uop: DynInst,
    tags: RegTags,
    model: SpeculationModel,
    /// Frontier points the verdicts are taken at (`0..=2·seq`).
    points: Vec<Seq>,
}

/// A taint root older than `seq`, or none.
fn root(rng: &mut Rng, seq: Seq) -> Seq {
    if rng.gen_bool(0.3) {
        NO_ROOT
    } else {
        rng.gen_range(1..seq)
    }
}

fn gen_case(rng: &mut Rng) -> Case {
    let program = generate(&GenConfig {
        segments: 3,
        gadget_bias: 0.7,
        seed: rng.gen(),
    });
    let idx = rng.gen_range(0..program.len());
    let inst: Inst = program.insts[idx];
    let seq: Seq = rng.gen_range(2..64);
    let srcs: InlineVec<(Reg, usize), 3> = inst
        .src_regs()
        .iter()
        .map(|r| (r, rng.gen_range(0..N_PHYS)))
        .collect();
    let mut tags = RegTags::new(N_PHYS, 0);
    for p in 0..N_PHYS {
        tags.prot[p] = rng.gen_bool(0.3);
        tags.taint[p] = rng.gen_bool(0.4);
        tags.yrot[p] = root(rng, seq);
    }
    let mem = inst.is_mem().then(|| MemState {
        addr: Some(0x1000),
        size: 8,
        is_store: inst.is_store(),
        value: 0,
        data_ready: true,
        data_prot: rng.gen_bool(0.3),
        data_yrot: root(rng, seq),
        data_taint: rng.gen_bool(0.4),
        fwd_from: rng.gen_bool(0.3).then(|| seq - 1),
        fwd_data_yrot: root(rng, seq),
        fwd_data_taint: rng.gen_bool(0.4),
    });
    let uop = DynInst {
        seq,
        idx: idx as u32,
        pc: program.pc_of(idx as u32),
        inst,
        mem,
        status: UopStatus::Waiting,
        pred_next: None,
        pred_taken: false,
        actual_next: None,
        actual_taken: false,
        mispredicted: false,
        resolved: false,
        wakeup_done: false,
        hist_snapshot: 0,
        rsb_checkpoint: 0,
        prot_out: inst.prot,
        src_prot: rng.gen_bool(0.4),
        sens_prot: rng.gen_bool(0.4),
        mem_prot: inst.is_load().then(|| rng.gen_bool(0.4)),
        in_taint: rng.gen_bool(0.4),
        in_yrot: root(rng, seq),
        delay_wakeup_nonspec: rng.gen_bool(0.4),
        wakeup_hold_root: root(rng, seq),
        pred_no_access: inst.is_load().then(|| rng.gen_bool(0.5)),
        div_fault: false,
        addr_regs: inst.address_regs(),
        data_reg: None,
        fetch_cycle: 0,
        rename_cycle: 0,
        issue_cycle: 0,
        complete_cycle: 0,
        srcs,
        dsts: Default::default(),
    };
    let model = if rng.gen_bool(0.5) {
        SpeculationModel::AtCommit
    } else {
        SpeculationModel::Control
    };
    Case {
        uop,
        tags,
        model,
        points: (0..=2 * seq).collect(),
    }
}

/// A frontier whose point is `p` under `model` (the other bound is
/// random noise the model ignores).
fn frontier_at(model: SpeculationModel, p: Seq) -> SpecFrontier {
    let (head_seq, oldest_unresolved_branch) = match model {
        SpeculationModel::AtCommit => (p, p / 2),
        SpeculationModel::Control => (p / 2, p),
    };
    SpecFrontier {
        head_seq,
        oldest_unresolved_branch,
        model,
    }
}

/// Checks one gate of one policy on one case; returns how many of the
/// case's frontier points it was closed at.
fn check_gate(
    name: &str,
    point: BlockPoint,
    case: &Case,
    gate: impl Fn(&SpecFrontier) -> Gate,
) -> u64 {
    let mut closed = 0;
    let u = &case.uop;
    let at = |p: Seq| gate(&frontier_at(case.model, p));
    for &p in &case.points {
        let fr = frontier_at(case.model, p);
        assert_eq!(fr.point(), p);
        match at(p) {
            Gate::Open => {}
            Gate::Closed { until, rule } => {
                closed += 1;
                assert!(
                    !rule.is_empty(),
                    "{name} {point:?}: closed under an unnamed rule"
                );
                assert!(
                    until > p,
                    "{name} {point:?}: closed at {p} with a lapse point {until} already reached"
                );
                assert!(
                    until <= u.seq,
                    "{name} {point:?}: lapse point {until} beyond the µop itself ({})",
                    u.seq
                );
                for q in p..until {
                    assert!(
                        !at(q).is_open(),
                        "{name} {point:?}: closed at {p} until {until}, but open at {q}"
                    );
                }
                assert!(
                    at(until).is_open(),
                    "{name} {point:?}: still closed at its lapse point {until}"
                );
            }
        }
        if p >= u.seq {
            assert!(
                at(p).is_open(),
                "{name} {point:?}: closed at {p} for non-speculative µop {}",
                u.seq
            );
        }
    }
    closed
}

#[test]
fn closed_gates_lapse_exactly_at_their_named_point() {
    let policies: Vec<(String, Box<dyn DefensePolicy>)> = Defense::SHIPPED
        .iter()
        .map(|d| (format!("{d:?}"), d.make()))
        .collect();
    // Closed verdicts seen per policy and gate: the property must not
    // hold vacuously.
    let closed: Vec<[Cell<u64>; 2]> = policies.iter().map(|_| Default::default()).collect();
    Checker::new("closed_gates_lapse_exactly_at_their_named_point")
        .cases(512)
        .run(gen_case, |case| {
            for ((name, policy), seen) in policies.iter().zip(&closed) {
                let exec = check_gate(name, BlockPoint::Execute, case, |fr| {
                    policy.may_execute(&case.uop, &case.tags, fr)
                });
                let wakeup = check_gate(name, BlockPoint::Wakeup, case, |fr| {
                    policy.may_wakeup(&case.uop, &case.tags, fr)
                });
                seen[0].set(seen[0].get() + exec);
                seen[1].set(seen[1].get() + wakeup);
            }
        });
    for ((name, policy), seen) in policies.iter().zip(&closed) {
        let (exec, wakeup) = (seen[0].get(), seen[1].get());
        // Which gates each policy closes: every baseline but the unsafe
        // one and NDA gates execution; the AccessDelay family and
        // ProtTrack gate wakeup.
        let gates_exec = !matches!(policy.name().as_str(), "unsafe" | "NDA");
        let gates_wakeup = matches!(
            policy.name().as_str(),
            "NDA"
                | "Protean-Delay"
                | "AccessDelay/ProtISA"
                | "Protean-Track"
                | "AccessTrack/ProtISA"
        );
        assert_eq!(
            exec > 0,
            gates_exec,
            "{name}: {exec} closed execute verdicts"
        );
        assert_eq!(
            wakeup > 0,
            gates_wakeup,
            "{name}: {wakeup} closed wakeup verdicts"
        );
    }
}
