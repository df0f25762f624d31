//! Lapse-point soundness of every shipped defense's gates.
//!
//! The pipeline parks a µop whose `may_execute`/`may_wakeup`/`may_resolve`
//! verdict is `Gate::Closed { until, .. }` and does not ask the policy
//! again until the speculation frontier's point reaches `until`. That is
//! only sound if the gate really stays closed on `[point, until)`. This
//! property test draws random µop shapes (instructions from generated
//! programs; for the resolve gate, mispredicted branches and `ret`s),
//! defense state, register tags and frontiers, and checks for every
//! shipped policy, at all three gates and under both speculation models:
//!
//! * a closed verdict names a lapse point ahead of the frontier, the
//!   gate stays closed at every point before it and opens exactly at it;
//! * once the frontier reaches the µop itself, the gate is open.

use protean_amulet::{generate, GenConfig};
use protean_bench::Defense;
use protean_isa::{Cond, InlineVec, Inst, Op, Program, Reg};
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
    /// Any instruction of a generated program (execute and wakeup).
    uop: DynInst,
    /// A mispredicted branch or `ret` with the same sequence number
    /// (resolve).
    branch: DynInst,
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

/// A µop of `inst` (static index `idx` of `program`) with sequence
/// number `seq`, random defense state and sources among the
/// [`N_PHYS`] registers.
fn gen_uop(rng: &mut Rng, program: &Program, idx: usize, inst: Inst, seq: Seq) -> DynInst {
    let srcs: InlineVec<(Reg, usize), 3> = inst
        .src_regs()
        .iter()
        .map(|r| (r, rng.gen_range(0..N_PHYS)))
        .collect();
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
    DynInst {
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
    }
}

fn gen_case(rng: &mut Rng) -> Case {
    let program = generate(&GenConfig {
        segments: 3,
        gadget_bias: 0.7,
        seed: rng.gen(),
    });
    let seq: Seq = rng.gen_range(2..64);
    let mut tags = RegTags::new(N_PHYS, 0);
    for p in 0..N_PHYS {
        tags.prot[p] = rng.gen_bool(0.3);
        tags.taint[p] = rng.gen_bool(0.4);
        tags.yrot[p] = root(rng, seq);
    }
    let idx = rng.gen_range(0..program.len());
    let uop = gen_uop(rng, &program, idx, program.insts[idx], seq);
    // The resolve candidate: one of the program's conditional or
    // indirect branches, or else a `ret` or a conditional branch.
    let branches: Vec<usize> = (0..program.len())
        .filter(|&i| program.insts[i].is_cond_branch() || program.insts[i].is_indirect_branch())
        .collect();
    let (bidx, binst) = match rng.gen_range(0..3) {
        0 if !branches.is_empty() => {
            let i = branches[rng.gen_range(0..branches.len())];
            (i, program.insts[i])
        }
        1 => (
            idx,
            Inst::new(Op::Jcc {
                cond: Cond::Eq,
                target: 0,
            }),
        ),
        _ => (idx, Inst::new(Op::Ret)),
    };
    let mut branch = gen_uop(rng, &program, bidx, binst, seq);
    branch.status = UopStatus::Done;
    branch.mispredicted = true;
    let model = if rng.gen_bool(0.5) {
        SpeculationModel::AtCommit
    } else {
        SpeculationModel::Control
    };
    Case {
        uop,
        branch,
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

/// Checks one gate of one policy on µop `u` of one case; returns how
/// many of the case's frontier points it was closed at.
fn check_gate(
    name: &str,
    point: BlockPoint,
    case: &Case,
    u: &DynInst,
    gate: impl Fn(&SpecFrontier) -> Gate,
) -> u64 {
    let mut closed = 0;
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
    let closed: Vec<[Cell<u64>; 3]> = policies.iter().map(|_| Default::default()).collect();
    Checker::new("closed_gates_lapse_exactly_at_their_named_point")
        .cases(512)
        .run(gen_case, |case| {
            for ((name, policy), seen) in policies.iter().zip(&closed) {
                let (u, b, tags) = (&case.uop, &case.branch, &case.tags);
                let counts = [
                    check_gate(name, BlockPoint::Execute, case, u, |fr| {
                        policy.may_execute(u, tags, fr)
                    }),
                    check_gate(name, BlockPoint::Wakeup, case, u, |fr| {
                        policy.may_wakeup(u, tags, fr)
                    }),
                    check_gate(name, BlockPoint::Resolve, case, b, |fr| {
                        policy.may_resolve(b, tags, fr)
                    }),
                ];
                for (cell, n) in seen.iter().zip(counts) {
                    cell.set(cell.get() + n);
                }
            }
        });
    for ((name, policy), seen) in policies.iter().zip(&closed) {
        let [exec, wakeup, resolve] = seen.each_ref().map(Cell::get);
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
        // Every defense but the unsafe baseline delays some squash.
        assert_eq!(
            resolve > 0,
            policy.name() != "unsafe",
            "{name}: {resolve} closed resolve verdicts"
        );
    }
}
