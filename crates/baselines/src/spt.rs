//! SPT: Speculative Privacy Tracking (paper §III-C, [32]).
//!
//! SPT's hardware-defined ProtSet is "all *untransmitted* state": data
//! that the program has already architecturally transmitted (passed to a
//! transmitter's sensitive operand) is public and needs no protection, so
//! SPT targets constant-time (CT) code. Mechanically it extends
//! AccessTrack with value-based taint:
//!
//! * registers start tainted (private); constants are untainted;
//! * taint propagates through register dataflow at rename;
//! * loads take the taint of the bytes they read, tracked in per-byte
//!   shadow bits on the L1D (evictions forget publicness);
//! * a speculative transmitter with a tainted sensitive operand stalls
//!   until non-speculative;
//! * when a transmitter *retires*, its sensitive operands become public:
//!   the transmitted register values are untainted (the bytes they were
//!   loaded from stay private — SPT cannot declassify backwards, §IX-B3).
//!
//! The paper's two SPT patches are modelled as toggles: the §VII-B4c
//! *taint-all-at-rename* security fix (loads are conservatively tainted
//! from rename until their shadow bits arrive) and the 32-bit
//! *upper-bits-untaint* performance fix (§VII-B4c: without it, `mov eax,
//! imm`-style zero-extending writes leave the destination tainted).

use protean_isa::{Op, TransmitterSet, Width};
use protean_sim::{
    sensitive_phys, sensitive_value_tainted, Cache, DefensePolicy, DynInst, Gate, RegTags,
    SpecFrontier,
};

/// The SPT policy. See the module docs for the modelled semantics.
///
/// # Examples
///
/// ```
/// use protean_baselines::SptPolicy;
/// use protean_sim::DefensePolicy;
///
/// assert_eq!(SptPolicy::fixed().name(), "SPT");
/// assert!(!SptPolicy::fixed().l1d_meta_fill()); // shadow bits: cold = private
/// ```
#[derive(Clone, Debug)]
pub struct SptPolicy {
    xmit: TransmitterSet,
    /// Apply the 32-bit zero-extension untaint performance fix.
    fix_upper32: bool,
    buggy_squash: bool,
}

impl SptPolicy {
    /// The fully patched SPT evaluated in the paper's Tab. IV/V.
    pub fn fixed() -> SptPolicy {
        SptPolicy {
            xmit: TransmitterSet::paper(),
            fix_upper32: true,
            buggy_squash: false,
        }
    }

    /// Security fixes applied but *not* the 32-bit performance fix — the
    /// configuration whose overhead §IX-A7 quantifies.
    pub fn fixed_without_perf_fix() -> SptPolicy {
        SptPolicy {
            fix_upper32: false,
            ..SptPolicy::fixed()
        }
    }

    /// The original artifact: no division transmitters, pending-squash
    /// bug present.
    pub fn original() -> SptPolicy {
        SptPolicy {
            xmit: TransmitterSet::legacy(),
            fix_upper32: false,
            buggy_squash: true,
        }
    }
}

impl DefensePolicy for SptPolicy {
    fn name(&self) -> String {
        if self.buggy_squash {
            "SPT (original)".into()
        } else if !self.fix_upper32 {
            "SPT (no 32-bit fix)".into()
        } else {
            "SPT".into()
        }
    }

    fn transmitters(&self) -> TransmitterSet {
        self.xmit
    }

    fn pending_squash_bug(&self) -> bool {
        self.buggy_squash
    }

    /// Shadow bits: `true` = public; cold lines are private.
    fn l1d_meta_fill(&self) -> bool {
        false
    }

    fn on_rename(&mut self, u: &mut DynInst, tags: &mut RegTags) {
        protean_sim::propagate_tags(u, tags);
        let mut taint = u.in_taint;
        match u.inst.op {
            // Constants are public (they appear in the code).
            Op::MovImm { .. } => taint = false,
            // Loads: conservatively tainted from rename (the
            // taint-all-at-rename fix); refined by the shadow bits at
            // execute in `on_load_data`.
            _ if u.is_load() => taint = true,
            _ => {}
        }
        // The 32-bit untaint bug: zero-extending writes architecturally
        // clear the upper bits, but unpatched SPT keeps the old
        // register's taint OR-ed in.
        if !self.fix_upper32 && u.inst.write_width() == Some(Width::W32) {
            if let Some(d) = u.dsts.first() {
                taint |= tags.taint[d.prev_phys];
            }
        }
        for d in &u.dsts {
            tags.taint[d.new_phys] = taint;
        }
    }

    fn on_load_data(&mut self, u: &mut DynInst, tags: &mut RegTags, l1d: &Cache) {
        let m = u.mem.as_ref().expect("load has mem state");
        let addr = m.addr.expect("load executed");
        let size = m.size;
        let private = match m.fwd_from {
            Some(_) => m.fwd_data_taint,
            None => !l1d.meta_all(addr, size), // any non-public byte
        };
        // `mem_prot` doubles as "read private bytes" for this policy
        // (gates `ret` resolution).
        u.mem_prot = Some(private);
        for d in &u.dsts {
            tags.taint[d.new_phys] = private;
        }
    }

    fn may_execute(&self, u: &DynInst, tags: &RegTags, fr: &SpecFrontier) -> Gate {
        if u.inst.is_branch()
            || !self.xmit.is_transmitter(&u.inst)
            || !sensitive_value_tainted(u, &self.xmit, tags)
        {
            return Gate::Open;
        }
        // Value taint does not lapse with the frontier; only the µop
        // turning non-speculative (or a commit-time untaint, which bumps
        // the tag generation) opens the gate.
        Gate::lapses_at(u.seq, fr, "private-transmitter-delay")
    }

    fn may_resolve(&self, u: &DynInst, tags: &RegTags, fr: &SpecFrontier) -> Gate {
        if sensitive_value_tainted(u, &self.xmit, tags) {
            return Gate::lapses_at(u.seq, fr, "private-branch-resolve");
        }
        // `ret`: the loaded target itself must be public.
        if u.mem_prot == Some(true) {
            return Gate::lapses_at(u.seq, fr, "private-ret-target-resolve");
        }
        Gate::Open
    }

    fn on_commit(&mut self, u: &DynInst, tags: &mut RegTags, l1d: &mut Cache) {
        // Stores publish their data's taint state to the shadow bits.
        if let Some(m) = &u.mem {
            if m.is_store {
                l1d.meta_set(m.addr.expect("committed store"), m.size, !m.data_taint);
            }
        }
        // A retired transmitter makes its sensitive operands public —
        // the transmitted *register value* only. SPT cannot declassify
        // the memory bytes the value came from (it would need to know
        // they are equal, which only invertible-dependency tracking of
        // exact copies could establish); this inability to "publish
        // backwards" is why SPT keeps stalling on pointer-shaped data
        // that ProtCC unprotects statically (§IX-B2, §IX-B3).
        if self.xmit.is_transmitter(&u.inst) {
            for &p in sensitive_phys(u, &self.xmit).iter() {
                tags.untaint(p);
            }
        }
    }
}
