//! AccessDelay: the NDA / SpecShield protection mechanism (paper §VI-A1).
//!
//! Speculative *access instructions* (loads, under the hardware-defined
//! all-memory ProtSet these defenses assume) may execute and write back,
//! but may not wake their dependents until they become non-speculative.
//! This prevents transiently loaded data from reaching any transmitter —
//! sufficient to secure non-secret-accessing (ARCH) code, which is
//! NDA/SpecShield's target.

use protean_isa::TransmitterSet;
use protean_sim::{DefensePolicy, DynInst, Gate, RegTags, SpecFrontier};

/// The AccessDelay policy (NDA \[138\] / SpecShield \[13\]).
///
/// # Examples
///
/// ```
/// use protean_baselines::AccessDelayPolicy;
/// use protean_sim::DefensePolicy;
///
/// let nda = AccessDelayPolicy::nda();
/// assert_eq!(nda.name(), "NDA");
/// ```
#[derive(Clone, Debug)]
pub struct AccessDelayPolicy {
    xmit: TransmitterSet,
}

impl AccessDelayPolicy {
    /// NDA's configuration (SpecShield's is identical).
    pub fn nda() -> AccessDelayPolicy {
        AccessDelayPolicy {
            xmit: TransmitterSet::paper(),
        }
    }
}

impl DefensePolicy for AccessDelayPolicy {
    fn name(&self) -> String {
        "NDA".into()
    }

    fn transmitters(&self) -> TransmitterSet {
        self.xmit
    }

    fn on_rename(&mut self, u: &mut DynInst, tags: &mut RegTags) {
        protean_sim::propagate_tags(u, tags);
        // Every load is an access instruction: its dependents wait until
        // it is non-speculative.
        if u.is_load() {
            u.delay_wakeup_nonspec = true;
        }
    }

    fn may_wakeup(&self, u: &DynInst, _tags: &RegTags, fr: &SpecFrontier) -> Gate {
        if !u.delay_wakeup_nonspec {
            return Gate::Open;
        }
        Gate::lapses_at(u.seq, fr, "spec-load-wakeup")
    }

    fn may_resolve(&self, u: &DynInst, _tags: &RegTags, fr: &SpecFrontier) -> Gate {
        // A `ret`'s squash decision transmits its (speculatively loaded)
        // target: the load may not "wake" the squash logic either.
        if !(u.is_load() && u.delay_wakeup_nonspec) {
            return Gate::Open;
        }
        Gate::lapses_at(u.seq, fr, "spec-ret-target-resolve")
    }
}
