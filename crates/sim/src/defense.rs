//! The defense ↔ pipeline interface.
//!
//! Every hardware Spectre defense in this repository — the unsafe
//! baseline, NDA/SpecShield's AccessDelay, STT's AccessTrack, SPT,
//! SPT-SB's XmitDelay, and Protean's ProtDelay/ProtTrack — is a
//! [`DefensePolicy`]: a set of hooks the out-of-order pipeline calls at
//! rename, issue, wakeup, branch resolution, load data return and
//! commit. One pipeline implementation serves all defense
//! configurations, exactly as one gem5 tree hosted all of them in the
//! paper (§VII-B3).

use crate::pipeline::DynInst;
use crate::{Cache, SpeculationModel};
use protean_isa::TransmitterSet;

/// Global µop sequence numbers. Sequence `0` is reserved as "no root".
pub type Seq = u64;

/// Sentinel for "not tainted / no taint root".
pub const NO_ROOT: Seq = 0;

/// Per-physical-register defense metadata, owned by the pipeline and
/// manipulated by policies.
///
/// Policies write a register's tags when it is allocated (at rename of
/// its producer) and when its producer executes, before any consumer
/// can read it. A later write to a register that in-flight µops already
/// read must go through a method that bumps [`RegTags::generation`]
/// (today only [`RegTags::untaint`]): the pipeline parks gate denials on
/// the frontier point named in their verdict (see [`Gate`]) and
/// re-evaluates every parked µop when the generation moves.
#[derive(Clone, Debug)]
pub struct RegTags {
    /// ProtISA protection tag (paper §IV-E: exposed throughout the
    /// backend).
    pub prot: Vec<bool>,
    /// Plain value taint (SPT-style: cleared by architectural
    /// transmission, not by time).
    pub taint: Vec<bool>,
    /// Youngest root of taint (STT-style): the sequence number of the
    /// youngest access instruction this value transitively depends on, or
    /// [`NO_ROOT`]. A value is *tainted* while its root is still
    /// speculative.
    pub yrot: Vec<Seq>,
    /// Bumped by every tag write that can open a closed gate (see the
    /// struct docs).
    generation: u64,
}

impl RegTags {
    /// Creates tags for `n` physical registers. Initial architectural
    /// values start protected (ProtISA's initial ProtSet) and tainted
    /// (SPT considers untransmitted data private).
    pub fn new(n: usize, arch_regs: usize) -> RegTags {
        let mut tags = RegTags {
            prot: vec![false; n],
            taint: vec![false; n],
            yrot: vec![NO_ROOT; n],
            generation: 0,
        };
        for i in 0..arch_regs {
            tags.prot[i] = true;
            tags.taint[i] = true;
        }
        tags
    }

    /// Clears the value taint of physical register `p`, bumping the
    /// generation if it was set: the register may already be a source
    /// of in-flight µops whose gates this opens (SPT's commit-time
    /// untaint of transmitted operands).
    #[inline]
    pub fn untaint(&mut self, p: usize) {
        if self.taint[p] {
            self.taint[p] = false;
            self.generation += 1;
        }
    }

    /// The tag-write generation (see the struct docs).
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Restores the freshly-constructed state in place (the
    /// `Core::reset` arena path).
    pub fn reset(&mut self, arch_regs: usize) {
        self.prot.fill(false);
        self.taint.fill(false);
        self.yrot.fill(NO_ROOT);
        self.generation = 0;
        for i in 0..arch_regs {
            self.prot[i] = true;
            self.taint[i] = true;
        }
    }
}

/// The speculation frontier: which sequence numbers are still speculative
/// this cycle, under the configured [`SpeculationModel`] (paper §II-B2).
#[derive(Clone, Copy, Debug)]
pub struct SpecFrontier {
    /// Sequence number of the ROB head (`Seq::MAX` if the ROB is empty).
    pub head_seq: Seq,
    /// Sequence number of the oldest unresolved branch (`Seq::MAX` if
    /// none).
    pub oldest_unresolved_branch: Seq,
    /// The active speculation model.
    pub model: SpeculationModel,
}

impl SpecFrontier {
    /// The frontier point: every µop with a sequence number at or below
    /// it is non-speculative this cycle. The ROB head under `AtCommit`,
    /// the oldest unresolved branch under `Control` (`Seq::MAX` when
    /// there is none).
    #[inline]
    pub fn point(&self) -> Seq {
        match self.model {
            SpeculationModel::AtCommit => self.head_seq,
            SpeculationModel::Control => self.oldest_unresolved_branch,
        }
    }

    /// Whether the µop with sequence `seq` is non-speculative this cycle.
    ///
    /// Under `AtCommit`, a µop is non-speculative only once it reaches
    /// the ROB head; under `Control`, once all *prior* branches resolved
    /// — a branch does not keep itself speculative (`<=`), or a
    /// mispredicted branch could never be allowed to resolve.
    #[inline]
    pub fn is_non_speculative(&self, seq: Seq) -> bool {
        seq <= self.point()
    }

    /// Whether a taint root is still speculative (i.e. the tainted value
    /// must still be considered secret). [`NO_ROOT`] is never tainted.
    pub fn root_speculative(&self, yrot: Seq) -> bool {
        yrot != NO_ROOT && !self.is_non_speculative(yrot)
    }
}

/// A defense gate's verdict on one µop ([`DefensePolicy::may_execute`],
/// [`DefensePolicy::may_wakeup`] and [`DefensePolicy::may_resolve`]).
///
/// Every in-tree defense holds a µop until the speculation frontier
/// passes a known point — the µop itself ("until non-speculative") or a
/// taint root it depends on — so a denial names that point, and the
/// policy rule that denied. The pipeline parks a closed µop and does
/// not ask the policy again until [`SpecFrontier::point`] reaches
/// `until` (or a tag write bumps [`RegTags::generation`]); the parked
/// µop still counts as blocked on every cycle it would have been asked,
/// and the trace audit log charges those cycles to `rule`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Gate {
    /// The µop may pass this cycle.
    Open,
    /// The µop is held at every frontier point below `until`, as long
    /// as the tags it reads do not change.
    Closed {
        /// The frontier point at which the gate lapses.
        until: Seq,
        /// The policy rule that holds the µop (a stable audit-log name).
        rule: &'static str,
    },
}

impl Gate {
    /// The gate that `rule` holds until the frontier point reaches
    /// `until`: open now if it already has. [`NO_ROOT`] is always open.
    #[inline]
    pub fn lapses_at(until: Seq, fr: &SpecFrontier, rule: &'static str) -> Gate {
        if until <= fr.point() {
            Gate::Open
        } else {
            Gate::Closed { until, rule }
        }
    }

    /// Whether the verdict lets the µop pass.
    #[inline]
    pub fn is_open(self) -> bool {
        matches!(self, Gate::Open)
    }

    /// The rule that holds the µop, if the gate is closed.
    #[inline]
    pub fn rule(self) -> Option<&'static str> {
        match self {
            Gate::Open => None,
            Gate::Closed { rule, .. } => Some(rule),
        }
    }
}

/// The pipeline gate at which a [`DefensePolicy`] denied a µop — the
/// three hook points whose denials are counted in
/// `Stats::{exec,wakeup,resolve}_blocked_cycles` and attributed per-µop
/// in the trace audit log.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BlockPoint {
    /// [`DefensePolicy::may_execute`] returned [`Gate::Closed`].
    Execute = 0,
    /// [`DefensePolicy::may_wakeup`] returned [`Gate::Closed`].
    Wakeup = 1,
    /// [`DefensePolicy::may_resolve`] returned [`Gate::Closed`].
    Resolve = 2,
}

impl BlockPoint {
    /// The three gates, in index order.
    pub const ALL: [BlockPoint; 3] = [BlockPoint::Execute, BlockPoint::Wakeup, BlockPoint::Resolve];

    /// Stable lowercase name (used in audit logs and JSON).
    pub fn name(self) -> &'static str {
        match self {
            BlockPoint::Execute => "execute",
            BlockPoint::Wakeup => "wakeup",
            BlockPoint::Resolve => "resolve",
        }
    }
}

/// Why a squash was initiated (statistics and the timing side channel).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SquashKind {
    /// Branch misprediction.
    Branch,
    /// Memory-order violation (a load executed before an older,
    /// conflicting store resolved its address).
    MemOrder,
    /// Division fault machine clear.
    DivFault,
}

/// A hardware protection mechanism (paper §III-B): decides which µops may
/// transmit, wake dependents, or resolve, and maintains its taint/shadow
/// state at the pipeline's hook points.
///
/// The three gates (`may_execute`, `may_wakeup`, `may_resolve`) share
/// one protocol: a [`Gate`] verdict that names the rule and the
/// frontier point where a denial lapses, so a new rule is one function
/// per gate it holds.
///
/// Which µops transmit is the pipeline's fact, not the policy's: rename
/// marks each µop's sensitive sources under
/// [`DefensePolicy::transmitters`] ([`DynInst::sens_mask`]), the issue
/// stage asks `may_execute` only of transmitters, and the `sensitive_*`
/// helpers read that mask. A gate body holds only the policy's own rule.
///
/// The default implementations are the **unsafe baseline**: never block
/// anything, track nothing.
pub trait DefensePolicy {
    /// Human-readable name for reports.
    fn name(&self) -> String;

    /// The transmitter kinds this defense assumes (paper §II-B1). The
    /// final, fixed versions of all defenses treat division µops as
    /// transmitters; the pre-fix versions (`TransmitterSet::legacy`) are
    /// kept for the §VII-B4b reproduction. The pipeline reads it once
    /// per run, at reset, to mark every µop's sensitive sources.
    fn transmitters(&self) -> TransmitterSet {
        TransmitterSet::paper()
    }

    /// Whether the pipeline should maintain ProtISA's protection plumbing
    /// (rename-map prot bits, physical-register prot tags, LSQ prot bits,
    /// L1D byte prot bits) for this policy.
    fn uses_protisa(&self) -> bool {
        false
    }

    /// Metadata value for newly filled L1D lines (`true` = protected for
    /// ProtISA; `false` = private for SPT's shadow bits — both mean
    /// "assume secret").
    fn l1d_meta_fill(&self) -> bool {
        true
    }

    /// Reproduce the pending-squash bug inherited from STT's gem5
    /// implementation (§VII-B4b): the squash arbiter considers only the
    /// oldest mispredicted branch regardless of taint, so an older
    /// tainted branch blocks younger untainted ones.
    fn pending_squash_bug(&self) -> bool {
        false
    }

    /// Called after the pipeline renames `u` (srcs/dsts/prot fields
    /// filled). The policy assigns taint roots / wakeup delays and writes
    /// the destination tags.
    fn on_rename(&mut self, u: &mut DynInst, tags: &mut RegTags) {
        propagate_tags(u, tags);
    }

    /// May this ready transmitter begin execution this cycle? The
    /// pipeline asks only of non-branch µops with a sensitive source
    /// under [`DefensePolicy::transmitters`] (a non-zero
    /// [`DynInst::sens_mask`]); every other µop executes unasked, and
    /// branches transmit at [`DefensePolicy::may_resolve`]. A
    /// [`Gate::Closed`] verdict delays transmission (XmitDelay-style)
    /// until the frontier point reaches its `until`; the pipeline parks
    /// the µop and asks again only then (or after a
    /// [`RegTags::generation`] bump), so `until` must be sound: the gate
    /// must stay closed at every frontier point in `[fr.point(), until)`.
    /// While the µop is parked the pipeline may ask again, uncounted:
    /// for the `rule` the trace audit log records, and in debug builds
    /// to check that the gate is still closed.
    fn may_execute(&self, _u: &DynInst, _tags: &RegTags, _fr: &SpecFrontier) -> Gate {
        Gate::Open
    }

    /// May this completed µop wake its dependents this cycle?
    /// (AccessDelay-style; parked on a closed verdict exactly like
    /// [`DefensePolicy::may_execute`].)
    fn may_wakeup(&self, _u: &DynInst, _tags: &RegTags, _fr: &SpecFrontier) -> Gate {
        Gate::Open
    }

    /// May this executed, mispredicted branch initiate its squash this
    /// cycle? (Delayed branch resolution; the squash signal itself is a
    /// transmitter of the predicate.) Parked on a closed verdict exactly
    /// like [`DefensePolicy::may_execute`].
    fn may_resolve(&self, _u: &DynInst, _tags: &RegTags, _fr: &SpecFrontier) -> Gate {
        Gate::Open
    }

    /// A load (or `ret`) received its data. `u.mem` carries the address,
    /// forwarding provenance, and — if ProtISA plumbing is on — the
    /// protection of the read bytes in `u.mem_prot`.
    fn on_load_data(&mut self, _u: &mut DynInst, _tags: &mut RegTags, _l1d: &Cache) {}

    /// `u` retires. `l1d` is provided for shadow-bit maintenance (SPT
    /// marks transmitted bytes public here).
    fn on_commit(&mut self, _u: &DynInst, _tags: &mut RegTags, _l1d: &mut Cache) {}

    /// Policy-specific statistics (name, value).
    fn stats(&self) -> Vec<(String, f64)> {
        Vec::new()
    }
}

/// Default rename-time tag propagation: destination tags inherit the OR
/// of the source taints and the max of the source taint roots. Policies
/// call this and then strengthen (root new taint, untaint, etc.).
pub fn propagate_tags(u: &mut DynInst, tags: &mut RegTags) {
    let mut taint = false;
    let mut yrot = NO_ROOT;
    for &(_, phys) in &u.srcs {
        taint |= tags.taint[phys];
        yrot = yrot.max(tags.yrot[phys]);
    }
    u.in_taint = taint;
    u.in_yrot = yrot;
    for d in &u.dsts {
        tags.taint[d.new_phys] = taint;
        tags.yrot[d.new_phys] = yrot;
    }
}

/// Physical registers of `u`'s *sensitive* operands: the sources that
/// [`DynInst::sens_mask`] marks, i.e. the registers whose values the µop
/// transmits under the policy's transmitter set. Empty for a
/// non-transmitter.
pub fn sensitive_phys(u: &DynInst) -> impl Iterator<Item = usize> + '_ {
    u.srcs
        .iter()
        .enumerate()
        .filter(|&(i, _)| u.sens_mask >> i & 1 != 0)
        .map(|(_, &(_, p))| p)
}

/// Whether a sensitive operand of `u` is protected (ProtISA Definition
/// 1: `u` is an *access transmitter*). A physical register's prot tag is
/// written when it is allocated and not again while a reader is in
/// flight, so this is the rename-time fact.
pub fn sensitive_prot(u: &DynInst, tags: &RegTags) -> bool {
    sensitive_phys(u).any(|p| tags.prot[p])
}

/// The youngest taint root among `u`'s sensitive operands ([`NO_ROOT`]
/// if none is rooted): the frontier point at which all of them are
/// untainted.
pub fn sensitive_max_yrot(u: &DynInst, tags: &RegTags) -> Seq {
    sensitive_phys(u)
        .map(|p| tags.yrot[p])
        .max()
        .unwrap_or(NO_ROOT)
}

/// Whether any sensitive operand of `u` is tainted under STT-style
/// root-based taint.
pub fn sensitive_root_tainted(u: &DynInst, tags: &RegTags, fr: &SpecFrontier) -> bool {
    sensitive_phys(u).any(|p| fr.root_speculative(tags.yrot[p]))
}

/// Whether any sensitive operand of `u` is tainted under SPT-style value
/// taint.
pub fn sensitive_value_tainted(u: &DynInst, tags: &RegTags) -> bool {
    sensitive_phys(u).any(|p| tags.taint[p])
}

/// The unsafe baseline: the unmodified out-of-order core.
#[derive(Clone, Copy, Debug, Default)]
pub struct UnsafePolicy;

impl DefensePolicy for UnsafePolicy {
    fn name(&self) -> String {
        "unsafe".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frontier_at_commit() {
        let fr = SpecFrontier {
            head_seq: 10,
            oldest_unresolved_branch: Seq::MAX,
            model: SpeculationModel::AtCommit,
        };
        assert!(fr.is_non_speculative(10)); // at head
        assert!(fr.is_non_speculative(5)); // older than head (committed)
        assert!(!fr.is_non_speculative(11));
        assert_eq!(fr.point(), 10);
        assert_eq!(Gate::lapses_at(10, &fr, "r"), Gate::Open);
        let closed = Gate::lapses_at(11, &fr, "r");
        assert_eq!(
            closed,
            Gate::Closed {
                until: 11,
                rule: "r"
            }
        );
        assert_eq!(closed.rule(), Some("r"));
        assert!(Gate::lapses_at(NO_ROOT, &fr, "r").is_open());
        assert_eq!(Gate::Open.rule(), None);
        assert!(!fr.root_speculative(NO_ROOT));
        assert!(fr.root_speculative(12));
        assert!(!fr.root_speculative(9));
    }

    #[test]
    fn frontier_control() {
        let fr = SpecFrontier {
            head_seq: 10,
            oldest_unresolved_branch: 20,
            model: SpeculationModel::Control,
        };
        // Under CONTROL, anything older than the oldest unresolved branch
        // is already non-speculative, even deep in the ROB — and the
        // branch itself has no *prior* unresolved branch.
        assert!(fr.is_non_speculative(19));
        assert!(fr.is_non_speculative(20));
        assert!(!fr.is_non_speculative(25));
        assert_eq!(fr.point(), 20);
    }

    #[test]
    fn untaint_bumps_the_generation_only_on_change() {
        let mut tags = RegTags::new(8, 2);
        tags.untaint(5); // already untainted: nothing to re-evaluate
        assert_eq!(tags.generation(), 0);
        tags.untaint(1);
        assert!(!tags.taint[1]);
        assert_eq!(tags.generation(), 1);
        tags.reset(2);
        assert_eq!(tags.generation(), 0);
    }

    #[test]
    fn unsafe_policy_blocks_nothing() {
        let p = UnsafePolicy;
        assert_eq!(p.name(), "unsafe");
        assert!(!p.uses_protisa());
        assert!(p.transmitters().divs);
    }
}
