//! SPT-SB: SPT's secure baseline (paper §III-C) — the XmitDelay
//! mechanism over an all-state ProtSet.
//!
//! Every register and memory byte is protected at all times, so every
//! speculative transmitter (load, store, branch, division) stalls until
//! it is non-speculative. This secures even unrestricted (UNR) code —
//! before Protean, it was the *only* defense able to fully secure
//! multi-class programs like nginx — at the cost of the highest overhead
//! in the paper's evaluation (≈2.9× on SPEC, Tab. IV).

use protean_isa::TransmitterSet;
use protean_sim::{DefensePolicy, DynInst, Gate, RegTags, SpecFrontier};

/// The SPT-SB policy.
///
/// # Examples
///
/// ```
/// use protean_baselines::SptSbPolicy;
/// use protean_sim::DefensePolicy;
///
/// assert_eq!(SptSbPolicy::fixed().name(), "SPT-SB");
/// ```
#[derive(Clone, Debug)]
pub struct SptSbPolicy {
    /// The original artifact: no division transmitters, pending-squash
    /// bug.
    original: bool,
}

impl SptSbPolicy {
    /// The fully patched SPT-SB evaluated in the paper.
    pub fn fixed() -> SptSbPolicy {
        SptSbPolicy { original: false }
    }

    /// The original artifact (no division transmitters, pending-squash
    /// bug).
    pub fn original() -> SptSbPolicy {
        SptSbPolicy { original: true }
    }
}

impl DefensePolicy for SptSbPolicy {
    fn name(&self) -> String {
        if self.original {
            "SPT-SB (original)".into()
        } else {
            "SPT-SB".into()
        }
    }

    fn transmitters(&self) -> TransmitterSet {
        if self.original {
            TransmitterSet::legacy()
        } else {
            TransmitterSet::paper()
        }
    }

    fn pending_squash_bug(&self) -> bool {
        self.original
    }

    fn may_execute(&self, u: &DynInst, _tags: &RegTags, fr: &SpecFrontier) -> Gate {
        Gate::lapses_at(u.seq, fr, "spec-transmitter-delay")
    }

    fn may_resolve(&self, u: &DynInst, _tags: &RegTags, fr: &SpecFrontier) -> Gate {
        // Every squash signal transmits protected state.
        Gate::lapses_at(u.seq, fr, "spec-squash-delay")
    }
}
