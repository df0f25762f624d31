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
//!
//! Each policy sees the µop as rename hands it over, with its sensitive
//! sources marked under that policy's transmitter set, and the execute
//! gate is asked only of non-branch transmitters, as the issue stage
//! asks it.
//!
//! A second property compares every verdict with a reference written
//! from the paper's per-gate rules (§III-C, §VI-A/B) over the per-µop
//! bits rename sets, independently of the policy code: which gate a
//! mechanism closes, for which µops, and the point where it lapses.

use protean_amulet::{generate, GenConfig};
use protean_bench::Defense;
use protean_isa::{Cond, InlineVec, Inst, Op, Program, Reg, RegSet, TransmitterSet};
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
/// [`N_PHYS`] registers. No source is marked sensitive yet: that
/// depends on the policy ([`renamed_for`]).
fn gen_uop(rng: &mut Rng, program: &Program, idx: usize, inst: Inst, seq: Seq) -> DynInst {
    let srcs: InlineVec<(Reg, usize), 3> = inst
        .src_regs()
        .iter()
        .map(|r| (r, rng.gen_range(0..N_PHYS)))
        .collect();
    let mem = inst.is_mem().then(|| MemState {
        addr: Some(0x1000),
        size: 8,
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
        hist_snapshot: 0,
        rsb_checkpoint: 0,
        src_prot: rng.gen_bool(0.4),
        sens_mask: 0,
        mem_prot: inst.is_load().then(|| rng.gen_bool(0.4)),
        in_taint: rng.gen_bool(0.4),
        in_yrot: root(rng, seq),
        delay_wakeup_nonspec: rng.gen_bool(0.4),
        wakeup_hold_root: root(rng, seq),
        pred_no_access: inst.is_load().then(|| rng.gen_bool(0.5)),
        div_fault: false,
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

/// `u` as rename hands it to `policy`: the sources the policy's
/// transmitter set makes sensitive are marked in `sens_mask`.
fn renamed_for(u: &DynInst, policy: &dyn DefensePolicy) -> DynInst {
    let sensitive = policy.transmitters().sensitive_regs(&u.inst);
    let mut u = u.clone();
    u.sens_mask = u
        .srcs
        .iter()
        .enumerate()
        .filter(|(_, (r, _))| sensitive.contains(*r))
        .fold(0, |mask, (i, _)| mask | 1 << i);
    u
}

/// The execute gate as the issue stage asks it: only of non-branch µops
/// with a sensitive source. Every other µop executes unasked.
fn execute_gate(
    policy: &dyn DefensePolicy,
    u: &DynInst,
    tags: &RegTags,
    fr: &SpecFrontier,
) -> Gate {
    if u.sens_mask != 0 && !u.inst.is_branch() {
        policy.may_execute(u, tags, fr)
    } else {
        Gate::Open
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
                let policy = policy.as_ref();
                let u = &renamed_for(&case.uop, policy);
                let b = &renamed_for(&case.branch, policy);
                let tags = &case.tags;
                let counts = [
                    check_gate(name, BlockPoint::Execute, case, u, |fr| {
                        execute_gate(policy, u, tags, fr)
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

/// A defense's protection mechanism, as the paper describes it.
#[derive(Clone, Copy, Debug)]
enum Mechanism {
    /// The unmodified core: no gate ever closes.
    None,
    /// NDA/SpecShield (§VI-A1): speculative access instructions (every
    /// load) may not wake their dependents.
    AccessDelay,
    /// STT (§VI-A2): a transmitter whose sensitive operand is tainted
    /// waits until its youngest root of taint is non-speculative.
    AccessTrack,
    /// SPT (§III-C): value taint of untransmitted data; a transmitter of
    /// a private value waits until it is non-speculative.
    Spt,
    /// SPT-SB (§III-C): every speculative transmitter waits.
    XmitDelay,
    /// ProtDelay (§VI-B1): AccessDelay over ProtISA, plus delayed access
    /// transmitters.
    ProtDelay,
    /// ProtTrack (§VI-B2): AccessTrack over ProtISA with the access
    /// predictor, plus delayed access transmitters.
    ProtTrack,
}

/// The mechanism and the transmitter kinds (§II-B1) of `defense`.
fn mechanism(defense: Defense) -> (Mechanism, TransmitterSet) {
    let all = TransmitterSet {
        loads: true,
        stores: true,
        branches: true,
        divs: true,
    };
    // The originally released baselines predate the divider channel.
    let no_divs = TransmitterSet { divs: false, ..all };
    // STT assumes loads and branches transmit, not stores.
    let stt = TransmitterSet {
        stores: false,
        ..all
    };
    match defense {
        Defense::Unsafe => (Mechanism::None, all),
        Defense::Nda => (Mechanism::AccessDelay, all),
        Defense::Stt => (Mechanism::AccessTrack, stt),
        Defense::SttOriginal => (
            Mechanism::AccessTrack,
            TransmitterSet { divs: false, ..stt },
        ),
        Defense::Spt | Defense::SptNoPerfFix => (Mechanism::Spt, all),
        Defense::SptOriginal => (Mechanism::Spt, no_divs),
        Defense::SptSb => (Mechanism::XmitDelay, all),
        Defense::SptSbOriginal => (Mechanism::XmitDelay, no_divs),
        Defense::ProtDelay | Defense::RawAccessDelay => (Mechanism::ProtDelay, all),
        Defense::ProtTrack
        | Defense::ProtTrackEntries(_)
        | Defense::ProtTrackUnbounded
        | Defense::RawAccessTrack => (Mechanism::ProtTrack, all),
    }
}

/// The registers `inst` transmits under `x` (§II-B1): a load's or
/// store's address registers (`ret` and `call` access the stack through
/// `RSP`), a conditional branch's flags, an indirect jump's target, and
/// both divider operands.
fn transmitted(inst: &Inst, x: TransmitterSet) -> RegSet {
    match inst.op {
        Op::Load { addr, .. } if x.loads => addr.regs(),
        Op::Store { addr, .. } if x.stores => addr.regs(),
        Op::Ret if x.loads => RegSet::from_regs([Reg::RSP]),
        Op::Call { .. } if x.stores => RegSet::from_regs([Reg::RSP]),
        Op::Jcc { .. } if x.branches => RegSet::from_regs([Reg::RFLAGS]),
        Op::JmpReg { src } if x.branches => RegSet::from_regs([src]),
        Op::Div { src1, src2, .. } if x.divs => RegSet::from_regs([src1, src2]),
        _ => RegSet::new(),
    }
}

/// The paper's rule for `u` at `gate` under `defense`: the frontier
/// point from which the gate is open. The gate is closed at every
/// frontier point below it, so [`NO_ROOT`] means never closed and
/// `u.seq` means "until the µop is non-speculative".
///
/// It reads the µop through the bits rename and execute set (`mem_prot`:
/// a load read protected, or for SPT private, bytes;
/// `delay_wakeup_nonspec`, `wakeup_hold_root`, `pred_no_access`) and the
/// register tags, as the paper's hardware does.
fn paper_lapse(defense: Defense, gate: BlockPoint, u: &DynInst, tags: &RegTags) -> Seq {
    let (mechanism, x) = mechanism(defense);
    let sensitive = transmitted(&u.inst, x);
    let sens_phys = || {
        u.srcs
            .iter()
            .filter(move |(r, _)| sensitive.contains(*r))
            .map(|&(_, p)| p)
    };
    // A transmitter has an operand to transmit.
    let transmitter = !sensitive.is_empty();
    // Control flow transmits when it resolves, never at execute.
    let xmits_at_execute = transmitter && !u.inst.is_branch();
    // Youngest taint root of the sensitive operands (STT's YRoT).
    let yrot = sens_phys().map(|p| tags.yrot[p]).max().unwrap_or(NO_ROOT);
    // A sensitive operand holds private (untransmitted) data (SPT).
    let private = sens_phys().any(|p| tags.taint[p]);
    // ProtISA Definition 1: a transmitter with a protected sensitive
    // operand is an access transmitter.
    let access_xmit = transmitter && sens_phys().any(|p| tags.prot[p]);
    let ret = matches!(u.inst.op, Op::Ret);
    let read_protected = u.mem_prot == Some(true);
    let nonspec = u.seq;
    let when = |cond: bool| if cond { nonspec } else { NO_ROOT };
    match (mechanism, gate) {
        (Mechanism::None, _) => NO_ROOT,

        // A speculative load's dependents wait for it; so does the squash
        // a `ret` decides from its loaded target.
        (Mechanism::AccessDelay, BlockPoint::Execute) => NO_ROOT,
        (Mechanism::AccessDelay, BlockPoint::Wakeup) => when(u.delay_wakeup_nonspec),
        (Mechanism::AccessDelay, BlockPoint::Resolve) => when(ret && u.delay_wakeup_nonspec),

        // Tainted operands are released when their root retires (or the
        // µop itself turns non-speculative first); a `ret`'s target is
        // tainted by its own load.
        (Mechanism::AccessTrack, BlockPoint::Execute) if xmits_at_execute => nonspec.min(yrot),
        (Mechanism::AccessTrack, BlockPoint::Resolve) if ret => nonspec,
        (Mechanism::AccessTrack, BlockPoint::Resolve) => nonspec.min(yrot),
        (Mechanism::AccessTrack, _) => NO_ROOT,

        // Private data is never released by time, only by the µop
        // turning non-speculative; a `ret` that read private bytes holds
        // its squash.
        (Mechanism::Spt, BlockPoint::Execute) => when(xmits_at_execute && private),
        (Mechanism::Spt, BlockPoint::Wakeup) => NO_ROOT,
        (Mechanism::Spt, BlockPoint::Resolve) => when(private || (ret && read_protected)),

        // Everything is protected: every speculative transmission waits.
        (Mechanism::XmitDelay, BlockPoint::Execute) => when(xmits_at_execute),
        (Mechanism::XmitDelay, BlockPoint::Wakeup) => NO_ROOT,
        (Mechanism::XmitDelay, BlockPoint::Resolve) => when(x.branches),

        // Access transmitters wait; marked accesses delay their
        // dependents; a `ret` with a protected target holds its squash.
        (Mechanism::ProtDelay, BlockPoint::Execute) => when(xmits_at_execute && access_xmit),
        (Mechanism::ProtDelay, BlockPoint::Wakeup) => when(u.delay_wakeup_nonspec),
        (Mechanism::ProtDelay, BlockPoint::Resolve) => when(access_xmit || (ret && read_protected)),

        // Access transmitters wait until non-speculative, tainted ones
        // until their root; the ProtDelay fallback and the tainted
        // store-forwarding rule hold wakeup; a `ret`'s target is tainted
        // at the `ret` itself unless it was predicted no-access and read
        // unprotected bytes, when only forwarded store data's root holds.
        (Mechanism::ProtTrack, BlockPoint::Execute) if xmits_at_execute => {
            if access_xmit {
                nonspec
            } else {
                nonspec.min(yrot)
            }
        }
        (Mechanism::ProtTrack, BlockPoint::Execute) => NO_ROOT,
        (Mechanism::ProtTrack, BlockPoint::Wakeup) => {
            when(u.delay_wakeup_nonspec).max(u.wakeup_hold_root)
        }
        (Mechanism::ProtTrack, BlockPoint::Resolve) => {
            let ret_target = if !ret {
                NO_ROOT
            } else if read_protected || u.pred_no_access != Some(true) {
                nonspec
            } else {
                u.mem.as_ref().map_or(NO_ROOT, |m| m.fwd_data_yrot)
            };
            nonspec.min(yrot.max(when(access_xmit)).max(ret_target))
        }
    }
}

/// A verdict's lapse point if it is closed (`None`: open).
fn verdict(gate: Gate) -> Option<Seq> {
    match gate {
        Gate::Open => None,
        Gate::Closed { until, .. } => Some(until),
    }
}

#[test]
fn every_policy_follows_the_papers_gate_rules() {
    let policies: Vec<(Defense, Box<dyn DefensePolicy>)> =
        Defense::SHIPPED.iter().map(|&d| (d, d.make())).collect();
    Checker::new("every_policy_follows_the_papers_gate_rules")
        .cases(512)
        .run(gen_case, |case| {
            let tags = &case.tags;
            for (defense, policy) in &policies {
                let policy = policy.as_ref();
                let (uop, branch) = (
                    renamed_for(&case.uop, policy),
                    renamed_for(&case.branch, policy),
                );
                for (point, u) in [
                    (BlockPoint::Execute, &uop),
                    (BlockPoint::Wakeup, &uop),
                    (BlockPoint::Resolve, &branch),
                ] {
                    let lapse = paper_lapse(*defense, point, u, tags);
                    for &p in &case.points {
                        let fr = frontier_at(case.model, p);
                        let gate = match point {
                            BlockPoint::Execute => execute_gate(policy, u, tags, &fr),
                            BlockPoint::Wakeup => policy.may_wakeup(u, tags, &fr),
                            BlockPoint::Resolve => policy.may_resolve(u, tags, &fr),
                        };
                        let expected = (lapse > p).then_some(lapse);
                        assert_eq!(
                            verdict(gate),
                            expected,
                            "{defense:?} {point:?} at frontier point {p}: {gate:?}, the paper's \
                             rule lapses at {lapse} ({} seq {})",
                            u.inst,
                            u.seq
                        );
                    }
                }
            }
        });
}
