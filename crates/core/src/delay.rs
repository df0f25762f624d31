//! ProtDelay (paper §VI-B1): AccessDelay adapted to software-programmed
//! ProtISA ProtSets.
//!
//! Relative to NDA/SpecShield's AccessDelay:
//!
//! * **Security**: *access transmitters* — transmitters with a protected
//!   sensitive operand — additionally have their own execution
//!   (transmission) delayed until non-speculative. AccessDelay alone
//!   would let `leak rax` transmit its protected input directly.
//! * **Performance**: only *unprefixed* access instructions delay the
//!   wakeup of their dependents. Dependents of a `PROT`-prefixed access
//!   re-access a protected register, making them access instructions
//!   themselves, which ProtDelay will delay as needed — so waking them
//!   early is safe.
//!
//! Access instructions are determined per ProtISA's Definition 1:
//! protected register inputs are known at rename; protected *memory*
//! inputs only at execute, from the L1D/LSQ protection bits.

use crate::support::is_access_transmitter;
use protean_isa::TransmitterSet;
use protean_sim::{Cache, DefensePolicy, DynInst, Gate, RegTags, SpecFrontier};

/// The ProtDelay policy.
///
/// `selective_wakeup = false` reproduces raw AccessDelay applied to
/// ProtISA (the §IX-A4 ablation): every access delays its dependents,
/// prefixed or not.
///
/// # Examples
///
/// ```
/// use protean_core::ProtDelayPolicy;
/// use protean_sim::DefensePolicy;
///
/// let p = ProtDelayPolicy::new();
/// assert!(p.uses_protisa());
/// assert_eq!(p.name(), "Protean-Delay");
/// ```
#[derive(Clone, Debug)]
pub struct ProtDelayPolicy {
    xmit: TransmitterSet,
    selective_wakeup: bool,
}

impl ProtDelayPolicy {
    /// The paper's ProtDelay.
    pub fn new() -> ProtDelayPolicy {
        ProtDelayPolicy {
            xmit: TransmitterSet::paper(),
            selective_wakeup: true,
        }
    }

    /// Raw AccessDelay under ProtISA (selective wakeup disabled) — the
    /// §IX-A4 ablation.
    pub fn raw_access_delay() -> ProtDelayPolicy {
        ProtDelayPolicy {
            xmit: TransmitterSet::paper(),
            selective_wakeup: false,
        }
    }
}

impl Default for ProtDelayPolicy {
    fn default() -> ProtDelayPolicy {
        ProtDelayPolicy::new()
    }
}

impl DefensePolicy for ProtDelayPolicy {
    fn name(&self) -> String {
        if self.selective_wakeup {
            "Protean-Delay".into()
        } else {
            "AccessDelay/ProtISA".into()
        }
    }

    fn transmitters(&self) -> TransmitterSet {
        self.xmit
    }

    fn uses_protisa(&self) -> bool {
        true
    }

    fn on_rename(&mut self, u: &mut DynInst, tags: &mut RegTags) {
        protean_sim::propagate_tags(u, tags);
        // Register-side access detection at rename: an instruction with a
        // protected register input is an access. Unprefixed (or, in the
        // raw ablation, any) accesses delay their dependents.
        if u.src_prot && (!u.prot_out || !self.selective_wakeup) {
            u.delay_wakeup_nonspec = true;
        }
    }

    fn on_load_data(&mut self, u: &mut DynInst, _tags: &mut RegTags, _l1d: &Cache) {
        // Memory-side access detection at execute: the load read
        // protected bytes (L1D prot bits / LSQ prot bit on forward).
        if u.mem_prot == Some(true) && (!u.prot_out || !self.selective_wakeup) {
            u.delay_wakeup_nonspec = true;
        }
    }

    fn may_execute(&self, u: &DynInst, tags: &RegTags, fr: &SpecFrontier) -> Gate {
        if u.inst.is_branch() || !is_access_transmitter(u, &self.xmit, tags) {
            return Gate::Open;
        }
        // Access transmitters may not transmit speculatively.
        Gate::lapses_at(u.seq, fr, "access-transmitter-delay")
    }

    fn may_wakeup(&self, u: &DynInst, _tags: &RegTags, fr: &SpecFrontier) -> Gate {
        if !u.delay_wakeup_nonspec {
            return Gate::Open;
        }
        let rule = if u.mem_prot == Some(true) {
            "protected-mem-access-wakeup"
        } else {
            "protected-reg-access-wakeup"
        };
        Gate::lapses_at(u.seq, fr, rule)
    }

    fn may_resolve(&self, u: &DynInst, tags: &RegTags, fr: &SpecFrontier) -> Gate {
        // A branch whose predicate/target is protected is an access
        // transmitter: its squash signal may not fire speculatively.
        if is_access_transmitter(u, &self.xmit, tags) {
            return Gate::lapses_at(u.seq, fr, "protected-branch-resolve");
        }
        // `ret` transmits its loaded target: protected bytes must not
        // resolve it.
        if u.mem_prot == Some(true) {
            return Gate::lapses_at(u.seq, fr, "protected-ret-target-resolve");
        }
        Gate::Open
    }
}
