//! STT: Speculative Taint Tracking (paper §VI-A2, [148]).
//!
//! The AccessTrack mechanism under a hardware-defined all-memory ProtSet:
//! every speculative load roots taint on its output; taint propagates
//! through register dependencies at rename; a transmitter with a tainted
//! sensitive operand may not execute (loads/stores/divisions) or resolve
//! (branches) until its *youngest root of taint* (YRoT) becomes
//! non-speculative, at which point the data is architecturally accessed
//! and — under STT's ARCH-SEQ contract — fair game.

use protean_isa::TransmitterSet;
use protean_sim::{sensitive_max_yrot, DefensePolicy, DynInst, Gate, RegTags, SpecFrontier};

/// The STT policy.
///
/// `buggy_squash` reproduces the pending-squash bug the paper found in
/// STT's gem5 implementation and fixed upstream (§VII-B4b);
/// `TransmitterSet::legacy()` reproduces the pre-fix defense that did not
/// treat division µops as transmitters.
///
/// # Examples
///
/// ```
/// use protean_baselines::SttPolicy;
/// use protean_sim::DefensePolicy;
///
/// let stt = SttPolicy::fixed();
/// assert!(stt.transmitters().divs);
/// assert!(!SttPolicy::original().transmitters().divs);
/// ```
#[derive(Clone, Debug)]
pub struct SttPolicy {
    xmit: TransmitterSet,
    buggy_squash: bool,
}

impl SttPolicy {
    /// The fully fixed STT evaluated in the paper's Tab. IV/V: division
    /// transmitters handled, pending-squash bug patched.
    pub fn fixed() -> SttPolicy {
        SttPolicy {
            // STT assumes loads and branches transmit; the fixed version
            // adds division µops (§VII-B3). It does not stall stores.
            xmit: TransmitterSet {
                loads: true,
                stores: false,
                branches: true,
                divs: true,
            },
            buggy_squash: false,
        }
    }

    /// The original artifact: no division transmitters, pending-squash
    /// bug present — the configuration AMuLeT\* finds 9 violations in.
    pub fn original() -> SttPolicy {
        SttPolicy {
            xmit: TransmitterSet {
                loads: true,
                stores: false,
                branches: true,
                divs: false,
            },
            buggy_squash: true,
        }
    }
}

impl DefensePolicy for SttPolicy {
    fn name(&self) -> String {
        if self.buggy_squash {
            "STT (original)".into()
        } else {
            "STT".into()
        }
    }

    fn transmitters(&self) -> TransmitterSet {
        self.xmit
    }

    fn pending_squash_bug(&self) -> bool {
        self.buggy_squash
    }

    fn on_rename(&mut self, u: &mut DynInst, tags: &mut RegTags) {
        protean_sim::propagate_tags(u, tags);
        // Loads root taint: their output depends on speculatively
        // accessed memory.
        if u.is_load() {
            let yrot = u.in_yrot.max(u.seq);
            for d in &u.dsts {
                tags.yrot[d.new_phys] = yrot;
            }
        }
    }

    fn may_execute(&self, u: &DynInst, tags: &RegTags, fr: &SpecFrontier) -> Gate {
        if u.inst.is_branch() || !self.xmit.is_transmitter(&u.inst) {
            // Branches execute; their *resolution* is gated.
            return Gate::Open;
        }
        // Held until the µop or its youngest sensitive taint root is
        // non-speculative, whichever comes first.
        Gate::lapses_at(
            u.seq.min(sensitive_max_yrot(u, &self.xmit, tags)),
            fr,
            "tainted-transmitter-delay",
        )
    }

    fn may_resolve(&self, u: &DynInst, tags: &RegTags, fr: &SpecFrontier) -> Gate {
        // A squash transmits the branch predicate / target: held until
        // the branch or its youngest sensitive taint root is
        // non-speculative, whichever comes first.
        let root = sensitive_max_yrot(u, &self.xmit, tags);
        // `ret` transmits its speculatively *loaded* target, which is
        // tainted by the ret's own load (rooted at itself): held until
        // the ret is non-speculative.
        let until = if u.is_load() { u.seq } else { u.seq.min(root) };
        let rule = if fr.root_speculative(root) {
            "tainted-branch-resolve"
        } else {
            "tainted-ret-target-resolve"
        };
        Gate::lapses_at(until, fr, rule)
    }
}
