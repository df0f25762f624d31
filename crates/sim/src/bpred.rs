//! Branch prediction: a TAGE-lite direction predictor, a branch target
//! buffer, and a return stack buffer (paper Tab. III: 4K-entry BTB,
//! 16-entry RSB, TAGE).

/// A tagged geometric-history direction predictor ("TAGE-lite"): a
/// bimodal base table plus three tagged tables with geometrically
/// increasing history lengths (4/16/64 bits).
///
/// # Examples
///
/// ```
/// use protean_sim::TagePredictor;
///
/// let mut p = TagePredictor::new();
/// let pc = 0x400100;
/// for _ in 0..64 {
///     let pred = p.predict(pc);
///     p.update(pc, pred, true);
/// }
/// assert!(p.predict(pc)); // learned always-taken
/// ```
#[derive(Clone, Debug)]
pub struct TagePredictor {
    /// Bimodal base: 2-bit counters.
    base: Vec<u8>,
    /// Tagged components, flattened: the entry at index `i` of table `t`
    /// lives at `(t << TABLE_BITS) | i` — one contiguous allocation
    /// instead of a `Vec<Vec<_>>` pointer chase per table.
    entries: Vec<TageEntry>,
    history: u64,
    /// Per-table folded-history registers, maintained incrementally on
    /// each history shift (Seznec & Michaud's folded histories). The
    /// invariant `folds[t] == fold_reference(history, HIST_LENGTHS[t])`
    /// holds at every point, so `predict`/`update` index their tables
    /// without re-folding the 64-bit history.
    folds: [u64; N_TABLES],
}

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct TageEntry {
    tag: u16,
    ctr: i8,
    useful: bool,
}

const BASE_BITS: usize = 12;
const TABLE_BITS: usize = 10;
const TABLE_MASK: u64 = (1 << TABLE_BITS) - 1;
const N_TABLES: usize = HIST_LENGTHS.len();

/// The geometric history lengths of the tagged tables, in table order
/// (public so the fold-equivalence property test can sweep all three).
pub const HIST_LENGTHS: [u32; 3] = [4, 16, 64];

impl TagePredictor {
    /// Creates a predictor with all counters weakly not-taken.
    pub fn new() -> TagePredictor {
        TagePredictor {
            base: vec![1; 1 << BASE_BITS],
            entries: vec![TageEntry::default(); N_TABLES << TABLE_BITS],
            history: 0,
            folds: [0; N_TABLES],
        }
    }

    /// Reference history fold (the original `fold_history`): mask the
    /// history to its low `bits`, then XOR `TABLE_BITS`-wide chunks.
    /// Retained as the oracle the incremental registers are
    /// differentially tested against (`tests/tage_fold_equiv.rs`); the
    /// hot paths never call it.
    pub fn fold_reference(history: u64, bits: u32) -> u64 {
        let h = if bits >= 64 {
            history
        } else {
            history & ((1u64 << bits) - 1)
        };
        // Fold to TABLE_BITS.
        let mut folded = 0u64;
        let mut rest = h;
        while rest != 0 {
            folded ^= rest & TABLE_MASK;
            rest >>= TABLE_BITS;
        }
        folded
    }

    /// The current per-table folded-history registers (introspection for
    /// the fold-equivalence tests).
    pub fn folds(&self) -> [u64; N_TABLES] {
        self.folds
    }

    /// Shifts direction bit `taken` into the global history, updating
    /// every folded register incrementally.
    ///
    /// With `W = TABLE_BITS`, the fold of an `len`-bit history is
    /// `XOR_i bit_i << (i mod W)`. Shifting moves every bit up one
    /// position and drops bit `len-1`, so the new fold is the old fold
    /// rotated left by one within `W` bits, XOR the incoming bit at
    /// position 0, XOR the outgoing bit at position `len mod W` (where
    /// rotation parked it). O(1) per table versus the O(len/W) re-fold.
    #[inline]
    fn shift_history(&mut self, taken: bool) {
        let b = taken as u64;
        for (t, &len) in HIST_LENGTHS.iter().enumerate() {
            let out_bit = (self.history >> (len - 1)) & 1;
            let f = self.folds[t];
            let rotated = ((f << 1) | (f >> (TABLE_BITS - 1))) & TABLE_MASK;
            self.folds[t] = rotated ^ b ^ (out_bit << (len as usize % TABLE_BITS));
        }
        self.history = (self.history << 1) | b;
    }

    /// Flat index of entry `index` of table `table`.
    #[inline]
    fn slot(table: usize, index: usize) -> usize {
        (table << TABLE_BITS) | index
    }

    fn index(&self, pc: u64, table: usize) -> usize {
        (((pc >> 2) ^ self.folds[table] ^ (pc >> 13)) & TABLE_MASK) as usize
    }

    fn tag(&self, pc: u64, table: usize) -> u16 {
        ((((pc >> 2) >> TABLE_BITS) ^ self.folds[table].rotate_left(3) ^ pc) & 0xff) as u16 | 0x100
    }

    fn base_index(&self, pc: u64) -> usize {
        ((pc >> 2) & ((1 << BASE_BITS) - 1)) as usize
    }

    /// Predicts the direction of the conditional branch at `pc`.
    pub fn predict(&self, pc: u64) -> bool {
        // Longest matching tagged table wins.
        for table in (0..N_TABLES).rev() {
            let e = &self.entries[Self::slot(table, self.index(pc, table))];
            if e.tag == self.tag(pc, table) {
                return e.ctr >= 0;
            }
        }
        self.base[self.base_index(pc)] >= 2
    }

    /// Updates the predictor with the resolved direction and shifts the
    /// global history.
    pub fn update(&mut self, pc: u64, predicted: bool, taken: bool) {
        // Find the provider.
        let mut provider = None;
        for table in (0..N_TABLES).rev() {
            let idx = self.index(pc, table);
            if self.entries[Self::slot(table, idx)].tag == self.tag(pc, table) {
                provider = Some((table, idx));
                break;
            }
        }
        match provider {
            Some((table, idx)) => {
                let e = &mut self.entries[Self::slot(table, idx)];
                // Credit the useful bit from the *provider's own*
                // direction, not the overall prediction: the provider may
                // have been overridden (or simply wrong) while the final
                // prediction was right, and pinning it useful would
                // permanently block allocation of longer-history entries.
                let provider_pred = e.ctr >= 0;
                e.ctr = (e.ctr + if taken { 1 } else { -1 }).clamp(-4, 3);
                e.useful |= provider_pred == taken;
            }
            None => {
                let bi = self.base_index(pc);
                let b = &mut self.base[bi];
                *b = (*b as i8 + if taken { 1 } else { -1 }).clamp(0, 3) as u8;
            }
        }
        // On a misprediction, try to allocate in a longer table.
        if predicted != taken {
            let start = provider.map(|(t, _)| t + 1).unwrap_or(0);
            for table in start..N_TABLES {
                let idx = self.index(pc, table);
                let tag = self.tag(pc, table);
                let e = &mut self.entries[Self::slot(table, idx)];
                if !e.useful {
                    *e = TageEntry {
                        tag,
                        ctr: if taken { 0 } else { -1 },
                        useful: false,
                    };
                    break;
                }
                e.useful = false; // age
            }
        }
        self.shift_history(taken);
    }

    /// Restores the freshly-constructed state without reallocating the
    /// tables (the `Core::reset` arena path).
    pub fn reset(&mut self) {
        self.base.fill(1);
        self.entries.fill(TageEntry::default());
        self.history = 0;
        self.folds = [0; N_TABLES];
    }

    /// Speculatively shifts a predicted (or squash-recovered actual)
    /// direction into the global history at fetch time.
    ///
    /// This is the *same* folding [`TagePredictor::update`] applies at
    /// commit — exposed as one API so the front end cannot desync from
    /// the predictor's own history update by hand-rolling the shift.
    /// `pc` is accepted for symmetry with `predict`/`update` (and for
    /// future path-based histories); the current fold ignores it.
    pub fn speculate(&mut self, _pc: u64, taken: bool) {
        self.shift_history(taken);
    }

    /// Snapshot of the global history (for squash recovery).
    pub fn history(&self) -> u64 {
        self.history
    }

    /// Restores the global history (on squash), recomputing the folded
    /// registers from the reference fold (squashes are rare next to
    /// predicts, so the full re-fold lives here and only here).
    pub fn restore_history(&mut self, history: u64) {
        self.history = history;
        for (t, &len) in HIST_LENGTHS.iter().enumerate() {
            self.folds[t] = Self::fold_reference(history, len);
        }
    }
}

impl Default for TagePredictor {
    fn default() -> TagePredictor {
        TagePredictor::new()
    }
}

/// A direct-mapped, tagged branch target buffer.
#[derive(Clone, Debug)]
pub struct Btb {
    entries: Vec<Option<(u64, u64)>>, // (pc, target)
    mask: u64,
}

impl Btb {
    /// Creates a BTB with `entries` slots (rounded up to a power of two).
    pub fn new(entries: usize) -> Btb {
        let n = entries.next_power_of_two();
        Btb {
            entries: vec![None; n],
            mask: n as u64 - 1,
        }
    }

    /// The predicted target of the branch at `pc`, if known.
    pub fn lookup(&self, pc: u64) -> Option<u64> {
        match self.entries[((pc >> 2) & self.mask) as usize] {
            Some((tag, target)) if tag == pc => Some(target),
            _ => None,
        }
    }

    /// Records a resolved branch target.
    pub fn update(&mut self, pc: u64, target: u64) {
        self.entries[((pc >> 2) & self.mask) as usize] = Some((pc, target));
    }

    /// Empties the BTB in place (the `Core::reset` arena path).
    pub fn reset(&mut self) {
        self.entries.fill(None);
    }
}

/// A return stack buffer (circular, drops on overflow like real RSBs —
/// the Retbleed-style underflow behaviour is faithfully mispredictive).
///
/// Implemented as a true ring buffer: overflow overwrites the oldest
/// entry in O(1) (`push` sits on the fetch hot path, once per `call`).
///
/// Squash recovery uses **checkpoints by id**: [`Rsb::checkpoint`]
/// returns a `u32` naming the current contents, and
/// [`Rsb::restore`] rewinds to one. A checkpoint is taken lazily — only
/// when the contents changed since the last one — so every µop fetched
/// between two calls/returns shares one id. Checkpoints live in a flat
/// ring of `capacity + 1` words each (length, then entries oldest →
/// newest) that is reused in place: ids are handed out in fetch order,
/// commit releases the ids older than the committing µop's
/// ([`Rsb::release_before`]) and a restore truncates the ids newer than
/// the restored one (they belong to squashed µops). The live ids are
/// therefore bounded by the µops in flight, and once the ring has grown
/// to that bound the steady state allocates nothing.
#[derive(Clone, Debug)]
pub struct Rsb {
    buf: Vec<u64>,
    /// Index of the oldest live entry.
    start: usize,
    /// Number of live entries (`<= capacity`).
    len: usize,
    capacity: usize,
    /// Checkpoint ring: checkpoint `id` occupies the `capacity + 1`
    /// words at `(id & (slots - 1)) * (capacity + 1)`, where `slots`
    /// (a power of two) is `ckpts.len() / (capacity + 1)`.
    ckpts: Vec<u64>,
    /// Live checkpoint ids: `[ckpt_lo, ckpt_hi)`, wrapping.
    ckpt_lo: u32,
    ckpt_hi: u32,
    /// Whether the contents differ from checkpoint `ckpt_hi - 1` (or no
    /// checkpoint is live).
    dirty: bool,
}

impl Rsb {
    /// Creates an RSB holding up to `capacity` return addresses.
    pub fn new(capacity: usize) -> Rsb {
        Rsb {
            buf: vec![0; capacity],
            start: 0,
            len: 0,
            capacity,
            ckpts: Vec::new(),
            ckpt_lo: 0,
            ckpt_hi: 0,
            dirty: true,
        }
    }

    /// Pushes a return address (on `call`); drops the oldest on overflow.
    pub fn push(&mut self, ret: u64) {
        if self.capacity == 0 {
            return;
        }
        self.dirty = true;
        if self.len == self.capacity {
            // Overwrite the oldest: the slot at `start` becomes the
            // newest and the next-oldest becomes the new start.
            self.buf[self.start] = ret;
            self.start = (self.start + 1) % self.capacity;
        } else {
            self.buf[(self.start + self.len) % self.capacity] = ret;
            self.len += 1;
        }
    }

    /// Pops a predicted return target (on `ret`).
    pub fn pop(&mut self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        self.dirty = true;
        self.len -= 1;
        Some(self.buf[(self.start + self.len) % self.capacity])
    }

    /// The live entries, oldest → newest (diagnostics and tests).
    pub fn snapshot(&self) -> Vec<u64> {
        (0..self.len)
            .map(|i| self.buf[(self.start + i) % self.capacity])
            .collect()
    }

    /// Number of live checkpoints.
    pub fn live_checkpoints(&self) -> usize {
        self.ckpt_hi.wrapping_sub(self.ckpt_lo) as usize
    }

    /// Whether `id` is a live checkpoint.
    fn is_live(&self, id: u32) -> bool {
        id.wrapping_sub(self.ckpt_lo) < self.ckpt_hi.wrapping_sub(self.ckpt_lo)
    }

    /// Word offset of checkpoint `id` in the ring.
    #[inline]
    fn ckpt_at(&self, id: u32) -> usize {
        let stride = self.capacity + 1;
        (id as usize & (self.ckpts.len() / stride - 1)) * stride
    }

    /// Names the current contents for a later [`Rsb::restore`]: the id
    /// of the newest checkpoint if nothing changed since it was taken,
    /// else a fresh one.
    #[inline]
    pub fn checkpoint(&mut self) -> u32 {
        if !self.dirty {
            return self.ckpt_hi.wrapping_sub(1);
        }
        let stride = self.capacity + 1;
        if self.live_checkpoints() == self.ckpts.len() / stride {
            self.grow_ckpts();
        }
        let id = self.ckpt_hi;
        let at = self.ckpt_at(id);
        self.ckpts[at] = self.len as u64;
        // Oldest → newest: `buf[start..]`, then the part that wrapped
        // to the front of `buf`.
        let (wrapped, from_start) = self.buf.split_at(self.start);
        let first = from_start.len().min(self.len);
        let dst = &mut self.ckpts[at + 1..at + 1 + self.len];
        dst[..first].copy_from_slice(&from_start[..first]);
        dst[first..].copy_from_slice(&wrapped[..self.len - first]);
        self.ckpt_hi = id.wrapping_add(1);
        self.dirty = false;
        id
    }

    /// Doubles the checkpoint ring (at least 16 entries), re-placing
    /// the live checkpoints under the new mask.
    #[cold]
    fn grow_ckpts(&mut self) {
        let stride = self.capacity + 1;
        let slots = (self.ckpts.len() / stride * 2).max(16);
        let old = std::mem::replace(&mut self.ckpts, vec![0; slots * stride]);
        let old_mask = (old.len() / stride).wrapping_sub(1);
        let mut id = self.ckpt_lo;
        while id != self.ckpt_hi {
            let (from, to) = ((id as usize & old_mask) * stride, self.ckpt_at(id));
            self.ckpts[to..to + stride].copy_from_slice(&old[from..from + stride]);
            id = id.wrapping_add(1);
        }
    }

    /// Rewinds the contents to checkpoint `id` and drops every newer
    /// checkpoint (the µops that held them are being squashed).
    ///
    /// # Panics
    ///
    /// Debug builds panic if `id` is not live.
    pub fn restore(&mut self, id: u32) {
        debug_assert!(self.is_live(id), "restore of a released checkpoint");
        let at = self.ckpt_at(id);
        self.len = self.ckpts[at] as usize;
        self.start = 0;
        self.buf[..self.len].copy_from_slice(&self.ckpts[at + 1..at + 1 + self.len]);
        self.ckpt_hi = id.wrapping_add(1);
        self.dirty = false;
    }

    /// Releases every checkpoint older than `id` (the committing µop's:
    /// no in-flight µop holds an older one). A no-op for an id that is
    /// no longer live.
    #[inline]
    pub fn release_before(&mut self, id: u32) {
        if self.is_live(id) {
            self.ckpt_lo = id;
        }
    }

    /// Empties the RSB and its checkpoints in place (the `Core::reset`
    /// arena path).
    pub fn reset(&mut self) {
        self.start = 0;
        self.len = 0;
        self.ckpt_lo = 0;
        self.ckpt_hi = 0;
        self.dirty = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tage_learns_static_bias() {
        let mut p = TagePredictor::new();
        for i in 0..200 {
            let pred = p.predict(0x1000);
            p.update(0x1000, pred, true);
            let pred = p.predict(0x2000);
            p.update(0x2000, pred, false);
            let _ = i;
        }
        assert!(p.predict(0x1000));
        assert!(!p.predict(0x2000));
    }

    #[test]
    fn tage_learns_pattern_with_history() {
        // Alternating T/N pattern: the bimodal table alone cannot learn
        // this, but history-indexed tables can.
        let mut p = TagePredictor::new();
        let pc = 0x4444;
        let mut taken = false;
        let mut correct = 0;
        let mut total = 0;
        for i in 0..2000 {
            taken = !taken;
            let pred = p.predict(pc);
            if i > 1000 {
                total += 1;
                if pred == taken {
                    correct += 1;
                }
            }
            p.update(pc, pred, taken);
        }
        assert!(
            correct as f64 / total as f64 > 0.9,
            "TAGE should learn an alternating pattern, got {correct}/{total}"
        );
    }

    #[test]
    fn history_snapshot_restore() {
        let mut p = TagePredictor::new();
        p.update(0x10, false, true);
        let h = p.history();
        p.update(0x10, false, false);
        assert_ne!(p.history(), h);
        p.restore_history(h);
        assert_eq!(p.history(), h);
    }

    #[test]
    fn speculate_matches_resolve_time_history_folding() {
        // The fetch stage folds a *predicted* direction into the global
        // history speculatively; commit folds the *actual* direction via
        // `update`. For the same direction the two must produce the same
        // history word — otherwise squash recovery (restore + re-fold)
        // would desync fetch-time table indexing from the trained state.
        let mut spec = TagePredictor::new();
        let mut resolved = TagePredictor::new();
        let pcs = [0x40_0100u64, 0x40_0204, 0x40_030c];
        for i in 0..500u64 {
            let pc = pcs[(i % 3) as usize];
            let taken = (i * 7) % 3 == 0;
            // Fetch-side: speculative fold only.
            spec.speculate(pc, taken);
            // Commit-side: full update (counters train too).
            let pred = resolved.predict(pc);
            resolved.update(pc, pred, taken);
            assert_eq!(
                spec.history(),
                resolved.history(),
                "histories diverged at step {i}"
            );
        }
        // Mispredict recovery: restore a snapshot, re-fold the actual
        // direction with `speculate` — same word `update` would leave.
        let snap = spec.history();
        spec.speculate(0x40_0100, true);
        spec.restore_history(snap);
        spec.speculate(0x40_0100, false);
        assert_eq!(spec.history(), snap << 1);
    }

    #[test]
    fn btb_tagged_lookup() {
        let mut btb = Btb::new(64);
        assert_eq!(btb.lookup(0x400000), None);
        btb.update(0x400000, 0x400100);
        assert_eq!(btb.lookup(0x400000), Some(0x400100));
        // Aliasing pc with a different tag misses.
        let alias = 0x400000 + 64 * 4;
        assert_eq!(btb.lookup(alias), None);
    }

    #[test]
    fn rsb_lifo_and_overflow() {
        let mut rsb = Rsb::new(2);
        rsb.push(1);
        rsb.push(2);
        rsb.push(3); // drops 1
        assert_eq!(rsb.pop(), Some(3));
        assert_eq!(rsb.pop(), Some(2));
        assert_eq!(rsb.pop(), None);
    }

    #[test]
    fn tage_useful_credits_provider_direction_not_overall() {
        // Regression: the useful bit must reflect whether the *provider's
        // own counter* predicted correctly, not whether the overall
        // prediction was right. (The two differ when the global history
        // at update time selects a different provider than at predict
        // time, so the update-time provider can be credited for a
        // prediction it did not make.)
        let mut p = TagePredictor::new();
        let pc = 0x8888;
        // Table 0 starts at flat slot 0, so its entry `idx` is
        // `p.entries[idx]`.
        let idx = p.index(pc, 0);
        let tag = p.tag(pc, 0);
        // Seed a table-0 provider whose own counter says not-taken.
        p.entries[idx] = TageEntry {
            tag,
            ctr: -1,
            useful: false,
        };
        // Overall prediction `taken`, outcome taken: overall correct,
        // provider wrong.
        p.update(pc, true, true);
        assert!(
            !p.entries[idx].useful,
            "a provider whose own direction mispredicted must not be pinned useful"
        );
    }

    #[test]
    fn tage_allocation_proceeds_after_provider_mispredictions() {
        let mut p = TagePredictor::new();
        let pc = 0x8888;
        let idx = p.index(pc, 0);
        let tag = p.tag(pc, 0);
        p.entries[idx] = TageEntry {
            tag,
            ctr: -1,
            useful: false,
        };
        // Repeated provider mispredictions under correct overall
        // predictions: the pre-fix code pinned `useful` on the first.
        for _ in 0..4 {
            p.restore_history(0);
            p.entries[idx].ctr = -1;
            p.update(pc, true, true);
        }
        assert!(!p.entries[idx].useful);
        // An aliasing branch now occupies the slot (same index, other
        // tag). A base-provider misprediction must reclaim the slot at
        // table 0 immediately instead of being stuck aging a
        // falsely-useful entry into a longer table.
        p.entries[idx].tag = tag ^ 0x1;
        p.restore_history(0);
        p.update(pc, false, true);
        assert_eq!(
            p.entries[idx].tag, tag,
            "misprediction must allocate the non-useful table-0 slot"
        );
    }

    #[test]
    fn incremental_folds_track_reference_fold() {
        // The incremental folded registers must be bit-identical to the
        // reference fold of the masked history after every kind of
        // history mutation (the invariant `predict`/`update` indexing
        // relies on). Drives a deterministic but irregular bit stream
        // through speculate/update/restore and checks all three lengths.
        let mut p = TagePredictor::new();
        let check = |p: &TagePredictor, step: usize| {
            for (t, &len) in HIST_LENGTHS.iter().enumerate() {
                assert_eq!(
                    p.folds()[t],
                    TagePredictor::fold_reference(p.history(), len),
                    "fold register {t} (len {len}) diverged at step {step}"
                );
            }
        };
        check(&p, 0);
        let mut snap = (0, 0u64);
        for i in 1..=300usize {
            let taken = (i * i + i / 3) % 5 < 2;
            match i % 7 {
                0 => {
                    let pred = p.predict(0x40_0000 + (i as u64 * 4));
                    p.update(0x40_0000 + (i as u64 * 4), pred, taken);
                }
                3 => {
                    snap = (i, p.history());
                }
                5 => p.restore_history(snap.1),
                _ => p.speculate(0x1234, taken),
            }
            check(&p, i);
        }
        // All 64 bits of history populated: the len-64 register now
        // exercises the drop-out path on every shift.
        for i in 0..80usize {
            p.speculate(0, i % 3 == 0);
            check(&p, 1000 + i);
        }
        p.reset();
        check(&p, usize::MAX);
    }

    #[test]
    fn rsb_snapshot_roundtrip() {
        let mut rsb = Rsb::new(4);
        rsb.push(7);
        let id = rsb.checkpoint();
        rsb.pop();
        rsb.restore(id);
        assert_eq!(rsb.pop(), Some(7));
    }

    #[test]
    fn rsb_checkpoints_are_lazy_and_released_in_order() {
        let mut rsb = Rsb::new(4);
        rsb.push(7);
        let a = rsb.checkpoint();
        assert_eq!(rsb.checkpoint(), a, "unchanged RSB must reuse the id");
        rsb.push(9);
        let c = rsb.checkpoint();
        assert_ne!(a, c);
        assert_eq!(rsb.live_checkpoints(), 2);
        // Restoring `a` truncates `c`; the contents are `a`'s again, so
        // the next checkpoint reuses `a`.
        rsb.restore(a);
        assert_eq!(rsb.snapshot(), vec![7]);
        assert_eq!(rsb.live_checkpoints(), 1);
        assert_eq!(rsb.checkpoint(), a);
        rsb.pop();
        let d = rsb.checkpoint();
        rsb.release_before(d);
        assert_eq!(rsb.live_checkpoints(), 1);
        rsb.restore(d);
        assert_eq!(rsb.pop(), None);
    }

    #[test]
    fn rsb_wraps_around_many_times() {
        // Drive the ring through several full wraps and check drop-oldest
        // LIFO semantics and snapshot order (oldest → newest) throughout.
        let mut rsb = Rsb::new(3);
        for v in 1..=10 {
            rsb.push(v);
        }
        assert_eq!(rsb.snapshot(), vec![8, 9, 10]);
        assert_eq!(rsb.pop(), Some(10));
        // Push after a pop mid-ring: 8, 9, 11.
        rsb.push(11);
        assert_eq!(rsb.snapshot(), vec![8, 9, 11]);
        // Overflow again: drops 8.
        rsb.push(12);
        assert_eq!(rsb.snapshot(), vec![9, 11, 12]);
        assert_eq!(rsb.pop(), Some(12));
        assert_eq!(rsb.pop(), Some(11));
        assert_eq!(rsb.pop(), Some(9));
        assert_eq!(rsb.pop(), None);
        // Restore a partial checkpoint into a wrapped ring.
        rsb.push(1);
        rsb.push(2);
        let id = rsb.checkpoint();
        for v in 20..=25 {
            rsb.push(v);
        }
        rsb.restore(id);
        assert_eq!(rsb.pop(), Some(2));
        assert_eq!(rsb.pop(), Some(1));
        assert_eq!(rsb.pop(), None);
    }

    #[test]
    fn rsb_zero_capacity_is_inert() {
        let mut rsb = Rsb::new(0);
        rsb.push(1);
        assert_eq!(rsb.pop(), None);
        assert_eq!(rsb.snapshot(), Vec::<u64>::new());
        let id = rsb.checkpoint();
        rsb.restore(id);
        assert_eq!(rsb.pop(), None);
    }

    #[test]
    fn predictor_resets_to_fresh_state() {
        let mut p = TagePredictor::new();
        for _ in 0..100 {
            let pred = p.predict(0x1000);
            p.update(0x1000, pred, true);
        }
        assert!(p.predict(0x1000));
        p.reset();
        assert!(!p.predict(0x1000), "reset must forget learned bias");
        assert_eq!(p.history(), 0);

        let mut btb = Btb::new(16);
        btb.update(0x40, 0x80);
        btb.reset();
        assert_eq!(btb.lookup(0x40), None);

        let mut rsb = Rsb::new(2);
        rsb.push(5);
        rsb.reset();
        assert_eq!(rsb.pop(), None);
    }
}
