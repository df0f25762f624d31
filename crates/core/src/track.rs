//! ProtTrack (paper §VI-B2): AccessTrack adapted to software-programmed
//! ProtISA ProtSets, with a secure access predictor.
//!
//! Relative to STT's AccessTrack:
//!
//! * **Security**: access transmitters (protected sensitive operand) are
//!   delayed until non-speculative, like ProtDelay — AccessTrack alone
//!   lets an *untainted but protected* register be transmitted.
//! * **Performance**: whether a load reads protected memory is unknown at
//!   rename, so raw AccessTrack must taint *every* load. ProtTrack
//!   instead consults a 1024-entry, 1-bit access predictor: a load
//!   predicted *no-access* with an unprotected output is predictively
//!   untainted. Mispredictions are handled securely:
//!   - **false negatives** (predicted no-access, read protected memory):
//!     fall back to ProtDelay — the load's dependents wait until it
//!     retires, so protected data never propagates to an untainted,
//!     unprotected register;
//!   - **false positives** are benign (just taint that persists);
//!   - **tainted store forwarding**: an untainted load that forwards
//!     from a store of tainted/protected data stalls its wakeup until
//!     the store's data becomes untainted (not until commit).

use crate::predictor::AccessPredictor;
use protean_sim::{
    sensitive_max_yrot, sensitive_prot, sensitive_root_tainted, Cache, DefensePolicy, DynInst,
    Gate, RegTags, SpecFrontier, NO_ROOT,
};

/// The ProtTrack policy.
///
/// # Examples
///
/// ```
/// use protean_core::ProtTrackPolicy;
/// use protean_sim::DefensePolicy;
///
/// let p = ProtTrackPolicy::new();
/// assert!(p.uses_protisa());
/// assert_eq!(p.name(), "Protean-Track");
/// ```
#[derive(Clone, Debug)]
pub struct ProtTrackPolicy {
    predictor: Option<AccessPredictor>,
}

impl ProtTrackPolicy {
    /// The paper's ProtTrack with its 1024-entry access predictor.
    pub fn new() -> ProtTrackPolicy {
        ProtTrackPolicy::with_predictor_entries(1024)
    }

    /// ProtTrack with a custom predictor size (the Fig. 5 sweep).
    pub fn with_predictor_entries(entries: usize) -> ProtTrackPolicy {
        ProtTrackPolicy {
            predictor: Some(AccessPredictor::new(entries)),
        }
    }

    /// ProtTrack with an unbounded predictor (the Fig. 5 asymptote).
    pub fn unbounded_predictor() -> ProtTrackPolicy {
        ProtTrackPolicy {
            predictor: Some(AccessPredictor::unbounded()),
        }
    }

    /// Raw AccessTrack under ProtISA (predictor disabled: every load
    /// taints) — the §IX-A4 ablation.
    pub fn raw_access_track() -> ProtTrackPolicy {
        ProtTrackPolicy { predictor: None }
    }
}

impl Default for ProtTrackPolicy {
    fn default() -> ProtTrackPolicy {
        ProtTrackPolicy::new()
    }
}

impl DefensePolicy for ProtTrackPolicy {
    fn name(&self) -> String {
        if self.predictor.is_some() {
            "Protean-Track".into()
        } else {
            "AccessTrack/ProtISA".into()
        }
    }

    fn uses_protisa(&self) -> bool {
        true
    }

    fn on_rename(&mut self, u: &mut DynInst, tags: &mut RegTags) {
        protean_sim::propagate_tags(u, tags);
        let mut yrot = u.in_yrot;
        // Register-side accesses root taint.
        if u.src_prot {
            yrot = yrot.max(u.seq);
        }
        if u.is_load() {
            let pred_access = match &mut self.predictor {
                Some(p) => p.predict_access(u.pc),
                None => true, // raw AccessTrack: all loads taint
            };
            let predict_no_access = !pred_access && !u.inst.prot;
            u.pred_no_access = Some(predict_no_access);
            if !predict_no_access {
                yrot = yrot.max(u.seq);
            }
        }
        if yrot != u.in_yrot {
            for d in &u.dsts {
                tags.yrot[d.new_phys] = yrot;
            }
        }
    }

    fn on_load_data(&mut self, u: &mut DynInst, _tags: &mut RegTags, _l1d: &Cache) {
        let mem_prot = u.mem_prot.unwrap_or(true);
        if u.pred_no_access == Some(true) {
            if mem_prot {
                // False negative: fall back to ProtDelay — dependents wait
                // until the load is non-speculative (§VI-B2b).
                u.delay_wakeup_nonspec = true;
            }
            // Tainted store forwarding (§VI-B2c): an untainted load
            // forwarding tainted store data stalls its wakeup until the
            // store's data operand untaints. Forwarded *protected* data
            // took the full ProtDelay fallback above: a forward copies
            // the store's LSQ prot bit into `mem_prot`.
            if let Some(m) = &u.mem {
                if m.fwd_from.is_some() && m.fwd_data_yrot != NO_ROOT {
                    u.wakeup_hold_root = m.fwd_data_yrot;
                }
            }
        }
    }

    fn may_execute(&self, u: &DynInst, tags: &RegTags, fr: &SpecFrontier) -> Gate {
        // A protected sensitive operand (access transmitter) stalls until
        // the µop is non-speculative; a tainted one (AccessTrack) until
        // the µop or its youngest root is, whichever comes first.
        let until = if sensitive_prot(u, tags) {
            u.seq
        } else {
            u.seq.min(sensitive_max_yrot(u, tags))
        };
        if until <= fr.point() {
            return Gate::Open;
        }
        // The rule names the taint whenever a sensitive root is still
        // speculative, even when the access-transmitter test set `until`.
        let rule = if sensitive_root_tainted(u, tags, fr) {
            "tainted-transmitter-delay"
        } else {
            "access-transmitter-delay"
        };
        Gate::Closed { until, rule }
    }

    fn may_wakeup(&self, u: &DynInst, _tags: &RegTags, fr: &SpecFrontier) -> Gate {
        // ProtDelay fallback until non-speculative, and the
        // store-forwarding hold until the forwarded data's root retires.
        let delay = if u.delay_wakeup_nonspec {
            u.seq
        } else {
            NO_ROOT
        };
        let rule = if delay > fr.point() {
            "protdelay-fallback-wakeup"
        } else {
            "tainted-forward-wakeup"
        };
        Gate::lapses_at(delay.max(u.wakeup_hold_root), fr, rule)
    }

    fn may_resolve(&self, u: &DynInst, tags: &RegTags, fr: &SpecFrontier) -> Gate {
        // Each rule holds the squash until the frontier passes a point:
        // a tainted predicate/target until its youngest sensitive root,
        // a protected one (access transmitter) until the branch itself.
        let root = sensitive_max_yrot(u, tags);
        let protected = if sensitive_prot(u, tags) {
            u.seq
        } else {
            NO_ROOT
        };
        // `ret`: loaded target must be neither protected nor tainted
        // (a predicted access taints it, rooted at the ret itself; a
        // forwarded one until the store data's root).
        let ret_target = if !u.is_load() {
            NO_ROOT
        } else if u.mem_prot == Some(true) || u.pred_no_access != Some(true) {
            u.seq
        } else {
            u.mem.as_ref().map_or(NO_ROOT, |m| m.fwd_data_yrot)
        };
        let rule = if fr.root_speculative(root) {
            "tainted-branch-resolve"
        } else if protected > fr.point() {
            "protected-branch-resolve"
        } else {
            "ret-target-resolve"
        };
        Gate::lapses_at(u.seq.min(root.max(protected).max(ret_target)), fr, rule)
    }

    fn on_commit(&mut self, u: &DynInst, _tags: &mut RegTags, _l1d: &mut Cache) {
        // Predictor update with the actual outcome at retire (§VI-B2b).
        if u.is_load() {
            if let Some(p) = &mut self.predictor {
                let actual = u.mem_prot.unwrap_or(true);
                if !u.inst.prot {
                    let predicted_access = u.pred_no_access != Some(true);
                    p.record_eligible(predicted_access != actual);
                }
                p.update(u.pc, actual);
            }
        }
    }

    fn stats(&self) -> Vec<(String, f64)> {
        match &self.predictor {
            Some(p) => {
                let (lookups, fneg, fpos) = p.counters();
                vec![
                    ("access_pred_lookups".into(), lookups as f64),
                    ("access_pred_false_neg".into(), fneg as f64),
                    ("access_pred_false_pos".into(), fpos as f64),
                    ("access_pred_mispred_rate".into(), p.misprediction_rate()),
                ]
            }
            None => Vec::new(),
        }
    }
}
