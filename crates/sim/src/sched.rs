//! Event-driven scheduling structures for the out-of-order core.
//!
//! The original pipeline walked the entire ROB once per stage per cycle
//! — completion, store-data capture, branch resolution, and issue were
//! each O(ROB) even on cycles where nothing could possibly happen. The
//! [`Scheduler`] replaces those scans with explicit event sets keyed by
//! ROB slot ([`Slot`], a µop's only address), all maintained
//! incrementally by the pipeline:
//!
//! * a **completion event wheel**: a µop entering execution schedules
//!   exactly one completion event, so the completion stage touches only
//!   µops finishing *this* cycle;
//! * **per-physical-register dependent lists**: a dispatched µop whose
//!   operands are not ready registers on one unready source; when that
//!   register is written back the list is drained and the µop either
//!   becomes issue-ready or re-registers on its next unready source
//!   (consumers are woken by producers instead of the issue stage
//!   re-polling every waiting µop's sources);
//! * an **issue-ready set**: the Waiting µops whose operand-readiness
//!   predicate holds — the only µops the issue stage examines;
//! * a **waiting set** (all Waiting µops in age order) — needed because
//!   the issue window counts *every* waiting µop toward `iq_size`,
//!   ready or not, so the cutoff offset must be derivable exactly;
//! * a **store-data waiter set**: stores (and calls) that have computed
//!   their address but not yet captured their data operand;
//! * a **wakeup-pending set**: completed µops whose result broadcast the
//!   defense has not yet granted (`may_wakeup`) and that are not parked;
//! * a **resolve-pending set**: executed, unresolved, mispredicted
//!   branches — the resolve candidates `resolve_branches` asks about;
//! * **parked sets** for the three defense gates: µops whose
//!   `may_execute`/`may_wakeup`/`may_resolve` verdict was
//!   `Gate::Closed { until, .. }` wait here, out of their gate's
//!   candidate set, until the frontier point reaches `until` (a
//!   min-queue of lapse points per gate) or a tag write bumps
//!   `RegTags::generation`. One table ([`GATES`]) names each gate's
//!   candidate and parked sets, so parking and un-parking are one code
//!   path for all three. The execute-parked set is split by port class
//!   (memory, ALU, divider) so the issue stage counts the parked µops
//!   the old loop would have denied with one popcount rank query per
//!   class instead of re-asking the policy;
//! * an **unresolved-branch set** (every in-flight branch that has not
//!   resolved): its minimum is the speculative frontier's
//!   `oldest_unresolved_branch`, making the frontier O(1) to snapshot.
//!
//! # Flat, ROB-slot-indexed representation
//!
//! Every one of those sets holds µops that live in a ROB bounded at
//! `rob_size` entries, so the scheduler backs them with fixed-capacity
//! **bitsets over ROB ring slots**. The scheduler *is* the ROB ring's
//! geometry: the core's ROB is a `Vec<DynInst>` of up to
//! `cap = rob_size.next_power_of_two()` records, and the scheduler owns
//! the two monotonic counters that say which of them are live —
//! `head_pos` (incremented when the head commits) and `tail_pos`
//! (incremented at rename, decremented per squashed µop). The µop
//! `off` places younger than the head occupies slot
//! `(head_pos + off) & (cap - 1)` for its whole life: rename writes its
//! record there in place, every stage and every set addresses it by
//! that slot, and commit and squash only move the counters. The window
//! never exceeds `rob_size <= cap` entries, so the mapping is
//! collision-free *even across squashes* (naive `seq % rob_size`
//! indexing is not: squashes leave gaps in the live sequence numbers,
//! so the in-ROB seq spread is unbounded).
//!
//! Age order ≡ seq order ≡ offset from the head slot (sequence numbers
//! are assigned at rename and never reused), so age-ordered iteration
//! of a bitset is a trailing-zeros walk **anchored at the ROB head
//! slot**: the cyclic window `[head_slot, head_slot + len)` splits into
//! at most two linear word ranges, walked in order. Age bounds (the
//! issue window's cutoff, the parked-count ranks) are offsets.
//!
//! The completion wheel is a **calendar queue**: a power-of-two ring of
//! per-cycle buckets sized past the maximum in-tree completion latency
//! (a DRAM-missing load, the worst-case divider, the multiplier), so
//! every deadline lies within one ring of the last drained cycle and no
//! two outstanding deadlines share a bucket; scheduling past that
//! horizon panics. Bucket `Vec`s are pooled (cleared, never dropped), so
//! the steady state allocates nothing. A one-bit-per-bucket occupancy
//! bitmap finds the next deadline after a drain by a cyclic
//! trailing-zeros search. Each event carries its slot and a
//! **per-slot generation stamp** (bumped at dispatch), so a stale event
//! from a squashed µop is recognised in O(1) — generation mismatch, or
//! slot outside the live window — and never reaches the pipeline.
//!
//! Stale events are nevertheless deliberately *left in the wheel* on
//! squash: the cached minimum deadline
//! ([`Scheduler::next_completion_cycle`], an O(1) field maintained on
//! push and recomputed on drain) feeds idle-cycle fast-forward, and its
//! value counts stale deadlines. Removing them would change the
//! fast-forward jump targets — and with them the blocked-cycle span
//! structure of the trace, which the golden scheduler fixture pins.
//!
//! Per-physical-register dependent lists live in one **arena of
//! intrusive doubly-linked nodes indexed by ROB slot** (a µop parks on
//! at most one register at a time). Squash unlinks a parked node in
//! O(1) — lazy filtering would corrupt lists when a squashed µop's slot
//! is reused and re-parked — so a drained list holds only live µops, and
//! `Core::reset` invalidates every list head in O(1) by bumping an
//! epoch.
//!
//! The lapse-point queues use the same lazy deletion as the wheel: an
//! entry carries its slot and dispatch generation and is dropped on pop
//! unless that slot still holds the same µop in the same parked set,
//! so squash and commit never touch a queue. A tick whose earliest lapse
//! point is still ahead of the frontier un-parks nothing at the cost of
//! one comparison.
//!
//! The scheduler also powers **idle-cycle fast-forward**: when a tick
//! makes no progress (see [`Scheduler::progress`]), the pipeline asks
//! for the next cycle at which anything can change
//! ([`Scheduler::next_completion_cycle`], merged with front-end stall
//! deadlines by the core) and jumps there, bulk-attributing the skipped
//! blocked/no-commit cycles so `Stats` and the trace/audit
//! reconciliation stay byte-exact. See `DESIGN.md` for the invariant
//! argument.

use crate::defense::{BlockPoint, Seq};
use std::collections::VecDeque;

/// A ROB ring slot: the one address of an in-flight µop.
pub(crate) type Slot = usize;

/// Identifies one of the thirteen status sets (see module docs). The
/// numeric value indexes the scheduler's set array.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum SetId {
    /// Every µop currently in `UopStatus::Waiting`, in age order.
    Waiting = 0,
    /// Waiting µops whose operand-readiness predicate holds.
    IssueReady = 1,
    /// Completed µops with results whose wakeup the defense has not yet
    /// granted.
    WakeupPending = 2,
    /// Stores/calls with a computed address still awaiting data capture.
    StoreWaiters = 3,
    /// Executed, unresolved, mispredicted branches (resolve candidates).
    ResolvePending = 4,
    /// Every in-flight branch that has not resolved (frontier input).
    UnresolvedBranches = 5,
    /// Every in-flight load (including `ret`), in age order: the memory
    /// disambiguation scans walk these instead of the whole ROB.
    InflightLoads = 6,
    /// Every in-flight store (including `call`), in age order.
    InflightStores = 7,
    /// Issue-ready memory µops whose execute gate is closed (parked).
    ExecParkedMem = 8,
    /// Issue-ready non-memory, non-divide µops whose execute gate is
    /// closed.
    ExecParkedAlu = 9,
    /// Issue-ready divide µops whose execute gate is closed (ALU port
    /// plus the divider's occupancy rule).
    ExecParkedDiv = 10,
    /// Completed µops whose wakeup gate is closed.
    WakeupParked = 11,
    /// Resolve candidates whose resolve gate is closed.
    ResolveParked = 12,
}

const N_SETS: usize = 13;

/// The execute-parked sets, one per port class.
pub(crate) const EXEC_PARKED: [SetId; 3] = [
    SetId::ExecParkedMem,
    SetId::ExecParkedAlu,
    SetId::ExecParkedDiv,
];

/// Per gate ([`BlockPoint`] order): the candidate set its verdict is
/// asked of, and the parked sets a closed verdict moves candidates to.
pub(crate) const GATES: [(SetId, &[SetId]); 3] = [
    (SetId::IssueReady, &EXEC_PARKED),
    (SetId::WakeupPending, &[SetId::WakeupParked]),
    (SetId::ResolvePending, &[SetId::ResolveParked]),
];

/// A parked µop's lapse point, slot and dispatch generation (the lazy
/// deletion check).
#[derive(Clone, Copy, Debug)]
struct Lapse {
    until: Seq,
    slot: u32,
    gen: u32,
}

/// A min-queue of lapse points: a deque kept sorted by `until`. Lapse
/// points lie at or below the parked µop's own sequence number and µops
/// park roughly in age order, so almost every park appends at the back
/// and every un-park pops the front — cheaper than a binary heap's
/// sifts for the short holds of a small core.
#[derive(Debug, Default)]
struct LapseQueue(VecDeque<Lapse>);

impl LapseQueue {
    #[inline]
    fn push(&mut self, l: Lapse) {
        let q = &mut self.0;
        if q.back().is_none_or(|b| b.until <= l.until) {
            q.push_back(l);
        } else {
            let at = q.partition_point(|e| e.until <= l.until);
            q.insert(at, l);
        }
    }

    /// The earliest entry if its lapse point is at or below `fp`.
    #[inline]
    fn pop_due(&mut self, fp: Seq) -> Option<Lapse> {
        match self.0.front() {
            Some(l) if l.until <= fp => self.0.pop_front(),
            _ => None,
        }
    }
}

const NO_NODE: u32 = u32::MAX;

/// One fixed-capacity bitset over ROB ring slots.
#[derive(Debug)]
struct FlatSet {
    words: Vec<u64>,
    len: usize,
}

impl FlatSet {
    fn with_capacity(cap: usize) -> FlatSet {
        FlatSet {
            words: vec![0; cap.div_ceil(64)],
            len: 0,
        }
    }

    #[inline]
    fn insert(&mut self, slot: usize) {
        let (w, b) = (slot >> 6, 1u64 << (slot & 63));
        if self.words[w] & b == 0 {
            self.words[w] |= b;
            self.len += 1;
        }
    }

    #[inline]
    fn remove(&mut self, slot: usize) {
        let (w, b) = (slot >> 6, 1u64 << (slot & 63));
        if self.words[w] & b != 0 {
            self.words[w] &= !b;
            self.len -= 1;
        }
    }

    #[inline]
    fn contains(&self, slot: usize) -> bool {
        self.words[slot >> 6] & (1u64 << (slot & 63)) != 0
    }

    /// Word `w` of the slot range `[lo, hi)` (non-empty), with the
    /// bits outside the range masked off.
    #[inline]
    fn masked(&self, w: usize, lo: usize, hi: usize) -> u64 {
        let mut bits = self.words[w];
        if w == lo >> 6 {
            bits &= u64::MAX << (lo & 63);
        }
        if w == (hi - 1) >> 6 && hi & 63 != 0 {
            bits &= (1u64 << (hi & 63)) - 1;
        }
        bits
    }

    /// Number of set slots in `[lo, hi)`: one popcount per word.
    #[inline]
    fn count(&self, lo: usize, hi: usize) -> usize {
        if lo >= hi {
            return 0;
        }
        ((lo >> 6)..=((hi - 1) >> 6))
            .map(|w| self.masked(w, lo, hi).count_ones() as usize)
            .sum()
    }

    fn clear(&mut self) {
        self.words.fill(0);
        self.len = 0;
    }

    /// The word range `[lo, hi)` of `self.words` masked to the slot
    /// range `[lo_slot, hi_slot)`; yields set slots ascending. `f`
    /// returns `false` to stop; the return value reports whether the
    /// walk ran to completion.
    #[inline]
    fn walk_asc(&self, lo: usize, hi: usize, f: &mut impl FnMut(usize) -> bool) -> bool {
        if lo >= hi {
            return true;
        }
        for w in (lo >> 6)..=((hi - 1) >> 6) {
            let mut bits = self.masked(w, lo, hi);
            while bits != 0 {
                if !f((w << 6) | bits.trailing_zeros() as usize) {
                    return false;
                }
                bits &= bits - 1;
            }
        }
        true
    }

    /// As [`FlatSet::walk_asc`], descending.
    #[inline]
    fn walk_desc(&self, lo: usize, hi: usize, f: &mut impl FnMut(usize) -> bool) -> bool {
        if lo >= hi {
            return true;
        }
        for w in ((lo >> 6)..=((hi - 1) >> 6)).rev() {
            let mut bits = self.masked(w, lo, hi);
            while bits != 0 {
                let b = 63 - bits.leading_zeros() as usize;
                if !f((w << 6) | b) {
                    return false;
                }
                bits &= !(1u64 << b);
            }
        }
        true
    }

    /// The `k`-th (0-based) set slot in `[lo, hi)`, or the residual
    /// count if fewer: word-popcount skipping, so a deep cutoff query
    /// touches O(words), not O(entries).
    fn select(&self, lo: usize, hi: usize, mut k: usize) -> Result<usize, usize> {
        if lo >= hi {
            return Err(k);
        }
        for w in (lo >> 6)..=((hi - 1) >> 6) {
            let mut bits = self.masked(w, lo, hi);
            let c = bits.count_ones() as usize;
            if k < c {
                for _ in 0..k {
                    bits &= bits - 1;
                }
                return Ok((w << 6) | bits.trailing_zeros() as usize);
            }
            k -= c;
        }
        Err(k)
    }
}

/// One completion event: the slot and dispatch generation it was
/// scheduled for (the O(1) staleness check).
#[derive(Clone, Copy, Debug)]
struct WheelEvent {
    slot: u32,
    gen: u32,
}

/// Event-driven scheduling state owned by the core: the flat ROB-slot
/// status sets, calendar-queue completion wheel and dependent-list
/// arena (see module docs), plus the progress flag, a scratch buffer
/// and the occupancy high-water marks.
#[derive(Debug)]
pub(crate) struct Scheduler {
    /// Ring capacity: `rob_size.next_power_of_two()`.
    cap: usize,
    /// Monotonic position counters of the ROB ring; the window
    /// `[head_pos, tail_pos)` maps to slots via `pos & (cap - 1)`.
    head_pos: u64,
    tail_pos: u64,
    /// Per-slot dispatch generation, bumped when a slot is (re)claimed:
    /// distinguishes a squashed µop's leftovers from the slot's current
    /// occupant.
    slot_gen: Vec<u32>,
    /// The status sets as slot bitsets.
    sets: [FlatSet; N_SETS],
    /// Lapse points of each gate's parked µops, indexed by
    /// [`BlockPoint`] (min-queues with lazy deletion, see module docs).
    lapses: [LapseQueue; 3],

    // ---- dependent-list arena ---------------------------------------
    /// Intrusive doubly-linked node per slot (`NO_NODE` = nil). A µop is
    /// parked on at most one physical register at a time (`dep_phys`).
    dep_next: Vec<u32>,
    dep_prev: Vec<u32>,
    dep_phys: Vec<u32>,
    /// Per-physical-register list head/tail, valid only when the
    /// register's epoch matches `dep_epoch_cur` (the O(1) reset).
    dep_head: Vec<u32>,
    dep_tail: Vec<u32>,
    dep_epoch: Vec<u64>,
    dep_epoch_cur: u64,

    // ---- calendar queue ---------------------------------------------
    /// Power-of-two bucket ring over completion cycles; `stamp[b]` is
    /// the deadline of bucket `b`'s current contents (meaningful only
    /// while non-empty). Bucket storage is pooled: drained buckets are
    /// cleared in place, never deallocated.
    wmask: u64,
    buckets: Vec<Vec<WheelEvent>>,
    stamp: Vec<u64>,
    /// One bit per bucket, set while the bucket is non-empty: the next
    /// deadline after a drain is a cyclic trailing-zeros search, not a
    /// walk over up to a ring's worth of buckets.
    occupied: Vec<u64>,
    /// The cycle of the last drain ([`Scheduler::pop_completions`]):
    /// every outstanding deadline lies in `(drained, drained + ring)`.
    drained: u64,
    /// Cached minimum deadline across the buckets (`u64::MAX` when none)
    /// and the bucketed-event count — O(1) for the idle-cycle
    /// fast-forward query asked on every no-progress tick.
    bucket_min: u64,
    bucket_events: u64,

    // ---- statistics and pipeline hand-off ---------------------------
    /// High-water mark of the waiting set (issue-queue occupancy).
    iq_hwm: u64,
    /// Outstanding completion events (live + stale), and their maximum.
    wheel_live: u64,
    wheel_hwm: u64,
    /// Whether the current tick changed any simulator state (beyond
    /// blocked-cycle accounting). Cleared at tick start; an un-set flag
    /// at tick end certifies the cycle is repeatable and fast-forward is
    /// sound.
    progress: bool,
    /// Scratch buffer recycled by the pipeline's per-stage iteration
    /// (sets cannot be mutated while iterated).
    pub scratch: Vec<Slot>,
}

impl Scheduler {
    /// Creates a scheduler for a core with `n_phys` physical registers
    /// and a `rob_size`-entry ROB. `max_latency` bounds the completion
    /// latency any µop can schedule (sizes the calendar ring).
    pub fn new(n_phys: usize, rob_size: usize, max_latency: u32) -> Scheduler {
        let cap = rob_size.next_power_of_two();
        // Every in-tree completion schedules at most `max_latency + 1`
        // cycles ahead; the ring must strictly exceed that so two
        // outstanding deadlines never alias a bucket.
        let wsize = (max_latency as u64 + 2).next_power_of_two().max(16) as usize;
        Scheduler {
            cap,
            head_pos: 0,
            tail_pos: 0,
            slot_gen: vec![0; cap],
            sets: std::array::from_fn(|_| FlatSet::with_capacity(cap)),
            lapses: Default::default(),
            dep_next: vec![NO_NODE; cap],
            dep_prev: vec![NO_NODE; cap],
            dep_phys: vec![NO_NODE; cap],
            dep_head: vec![NO_NODE; n_phys],
            dep_tail: vec![NO_NODE; n_phys],
            dep_epoch: vec![0; n_phys],
            dep_epoch_cur: 1,
            wmask: wsize as u64 - 1,
            buckets: (0..wsize).map(|_| Vec::new()).collect(),
            stamp: vec![0; wsize],
            occupied: vec![0; wsize.div_ceil(64)],
            drained: 0,
            bucket_min: u64::MAX,
            bucket_events: 0,
            iq_hwm: 0,
            wheel_live: 0,
            wheel_hwm: 0,
            progress: false,
            scratch: Vec::new(),
        }
    }

    /// Empties every event structure in place, keeping all backing
    /// allocations (the `Core::reset` arena path).
    pub fn reset(&mut self) {
        self.head_pos = 0;
        self.tail_pos = 0;
        // Slot generations are deliberately *not* reset: monotonic per
        // slot across runs, so nothing ever aliases a previous run.
        for set in &mut self.sets {
            set.clear();
        }
        for q in &mut self.lapses {
            q.0.clear();
        }
        self.dep_epoch_cur += 1; // O(1) dependent-list invalidation
        for b in &mut self.buckets {
            b.clear();
        }
        self.occupied.fill(0);
        self.drained = 0;
        self.bucket_min = u64::MAX;
        self.bucket_events = 0;
        self.iq_hwm = 0;
        self.wheel_live = 0;
        self.wheel_hwm = 0;
        self.progress = false;
        self.scratch.clear();
    }

    // ---- ring geometry ----------------------------------------------

    /// Ring capacity: the number of slots of the ROB ring.
    #[inline]
    pub fn cap(&self) -> usize {
        self.cap
    }

    #[inline]
    fn mask(&self) -> u64 {
        self.cap as u64 - 1
    }

    /// Number of µops in the ROB (the window `[head, tail)`).
    #[inline]
    pub fn rob_len(&self) -> usize {
        (self.tail_pos - self.head_pos) as usize
    }

    /// The slot of the ROB head (the oldest µop, when the ROB is not
    /// empty).
    #[inline]
    pub fn head_slot(&self) -> Slot {
        (self.head_pos & self.mask()) as usize
    }

    /// The slot `off` places younger than the head.
    #[inline]
    pub fn slot_at(&self, off: usize) -> Slot {
        debug_assert!(off < self.rob_len(), "offset outside the window");
        (self.head_slot() + off) & (self.cap - 1)
    }

    /// The age of `slot`: its offset from the head slot.
    #[inline]
    pub fn offset(&self, slot: Slot) -> usize {
        (slot + self.cap - self.head_slot()) & (self.cap - 1)
    }

    /// The slot of the youngest µop, if any.
    #[inline]
    pub fn youngest(&self) -> Option<Slot> {
        (self.rob_len() != 0).then(|| ((self.tail_pos - 1) & self.mask()) as usize)
    }

    /// The cyclic offset range `[start_off, end_off)` from the head as
    /// up to two linear slot ranges, in age order.
    #[inline]
    fn pieces(&self, start_off: usize, end_off: usize) -> ((usize, usize), (usize, usize)) {
        debug_assert!(start_off <= end_off && end_off <= self.rob_len());
        let n = end_off - start_off;
        let s = (self.head_slot() + start_off) & (self.cap - 1);
        if s + n <= self.cap {
            ((s, s + n), (0, 0))
        } else {
            ((s, self.cap), (0, s + n - self.cap))
        }
    }

    // ---- ROB lifecycle ----------------------------------------------

    /// Claims the tail slot for a freshly renamed µop and returns it:
    /// the caller writes the µop there. Must be called before any set
    /// insert for that µop.
    #[inline]
    pub fn on_dispatch(&mut self) -> Slot {
        debug_assert!(self.rob_len() < self.cap, "ROB exceeds the ring capacity");
        let slot = (self.tail_pos & self.mask()) as usize;
        self.tail_pos += 1;
        self.slot_gen[slot] = self.slot_gen[slot].wrapping_add(1);
        self.dep_phys[slot] = NO_NODE;
        #[cfg(debug_assertions)]
        for set in &self.sets {
            debug_assert!(!set.contains(slot), "fresh slot still in a status set");
        }
        slot
    }

    /// Retires the ROB head. All set entries for the head must have been
    /// removed beforehand.
    #[inline]
    pub fn on_commit_head(&mut self) {
        debug_assert!(self.rob_len() > 0, "commit from an empty ROB");
        #[cfg(debug_assertions)]
        {
            let slot = self.head_slot();
            for set in &self.sets {
                debug_assert!(!set.contains(slot), "committed head still in a status set");
            }
            debug_assert_eq!(self.dep_phys[slot], NO_NODE, "committed head still parked");
        }
        self.head_pos += 1;
    }

    /// Squashes the youngest µop: retreats the tail, clears the slot's
    /// membership in every status set and unlinks it from any dependent
    /// list; its completion events (if any) stay in the wheel as stale
    /// entries (see module docs). Returns the freed slot, whose record
    /// stays readable until the slot is claimed again.
    #[inline]
    pub fn on_squash_pop(&mut self) -> Slot {
        debug_assert!(self.rob_len() > 0, "squash from an empty ROB");
        self.tail_pos -= 1;
        let slot = (self.tail_pos & self.mask()) as usize;
        for set in &mut self.sets {
            if set.len != 0 {
                set.remove(slot);
            }
        }
        self.unlink_dep(slot);
        slot
    }

    // ---- status sets ------------------------------------------------

    /// Inserts `slot` into `set`. Idempotent.
    #[inline]
    pub fn insert(&mut self, set: SetId, slot: Slot) {
        debug_assert!(self.offset(slot) < self.rob_len(), "slot outside the ROB");
        debug_assert!(
            GATES.iter().all(|&(candidates, parked)| candidates != set
                || parked
                    .iter()
                    .all(|&p| !self.sets[p as usize].contains(slot))),
            "a parked µop re-entered its gate's candidate set"
        );
        let s = &mut self.sets[set as usize];
        s.insert(slot);
        if set == SetId::Waiting && s.len as u64 > self.iq_hwm {
            self.iq_hwm = s.len as u64;
        }
    }

    /// Removes `slot` from `set`. Idempotent.
    #[inline]
    pub fn remove(&mut self, set: SetId, slot: Slot) {
        self.sets[set as usize].remove(slot);
    }

    /// Number of entries in `set`.
    #[inline]
    pub fn len(&self, set: SetId) -> usize {
        self.sets[set as usize].len
    }

    /// Number of entries of `set` younger than the head by less than
    /// `end_off` (the popcount rank query behind the gates' parked
    /// counts).
    #[inline]
    pub fn count_below(&self, set: SetId, end_off: usize) -> usize {
        let ((a0, a1), (b0, b1)) = self.pieces(0, end_off);
        let s = &self.sets[set as usize];
        s.count(a0, a1) + s.count(b0, b1)
    }

    /// Whether `slot` is in `set`.
    #[cfg(debug_assertions)]
    pub fn contains(&self, set: SetId, slot: Slot) -> bool {
        self.sets[set as usize].contains(slot)
    }

    // ---- parked gates -----------------------------------------------

    /// Parks `slot`: moves it from `gate`'s candidate set into
    /// `parked`, one of the gate's parked sets, until the frontier
    /// point reaches `until`.
    #[inline]
    pub fn park(&mut self, gate: BlockPoint, parked: SetId, slot: Slot, until: Seq) {
        let (from, gate_parked) = GATES[gate as usize];
        debug_assert!(
            gate_parked.contains(&parked),
            "not a {} parked set",
            gate.name()
        );
        debug_assert!(
            self.sets[from as usize].contains(slot),
            "parking a non-candidate"
        );
        self.sets[from as usize].remove(slot);
        self.sets[parked as usize].insert(slot);
        self.lapses[gate as usize].push(Lapse {
            until,
            slot: slot as u32,
            gen: self.slot_gen[slot],
        });
    }

    /// Un-parks every µop of `gate`'s parked sets whose lapse point is
    /// at or below the frontier point `fp`, back into its candidate set.
    /// Returns how many moved. Stale queue entries (squashed, committed
    /// or already un-parked µops) are dropped on the way.
    #[inline]
    pub fn unpark_due(&mut self, gate: BlockPoint, fp: Seq) -> u64 {
        let (candidates, parked) = GATES[gate as usize];
        let mut moved = 0;
        while let Some(Lapse { slot, gen, .. }) = self.lapses[gate as usize].pop_due(fp) {
            let slot = slot as usize;
            if self.slot_gen[slot] != gen {
                continue;
            }
            if let Some(&set) = parked
                .iter()
                .find(|&&s| self.sets[s as usize].contains(slot))
            {
                self.sets[set as usize].remove(slot);
                self.sets[candidates as usize].insert(slot);
                moved += 1;
            }
        }
        moved
    }

    /// Un-parks every parked µop of every gate (a tag write may have
    /// opened any of them) and empties the lapse queues. Returns the
    /// counts moved, indexed by [`BlockPoint`].
    pub fn unpark_all(&mut self) -> [u64; 3] {
        let mut moved = [0u64; 3];
        for (g, (candidates, parked)) in GATES.into_iter().enumerate() {
            let t = candidates as usize;
            for &parked in parked {
                let p = parked as usize;
                for w in 0..self.sets[p].words.len() {
                    let bits = std::mem::take(&mut self.sets[p].words[w]);
                    debug_assert_eq!(
                        self.sets[t].words[w] & bits,
                        0,
                        "parked µop also a candidate"
                    );
                    self.sets[t].words[w] |= bits;
                }
                let len = std::mem::take(&mut self.sets[p].len);
                self.sets[t].len += len;
                moved[g] += len as u64;
            }
            self.lapses[g].0.clear();
        }
        moved
    }

    /// Whether `set` is empty.
    #[inline]
    pub fn is_empty(&self, set: SetId) -> bool {
        self.len(set) == 0
    }

    /// The oldest entry of `set`, if any.
    #[inline]
    pub fn first(&self, set: SetId) -> Option<Slot> {
        self.nth(set, 0)
    }

    /// The `n`-th oldest entry of `set` (0-based), if any.
    pub fn nth(&self, set: SetId, n: usize) -> Option<Slot> {
        let ((a0, a1), (b0, b1)) = self.pieces(0, self.rob_len());
        let s = &self.sets[set as usize];
        match s.select(a0, a1, n) {
            Ok(slot) => Some(slot),
            Err(rest) => s.select(b0, b1, rest).ok(),
        }
    }

    /// Appends every entry of `set` to `out`, oldest first.
    #[inline]
    pub fn collect(&self, set: SetId, out: &mut Vec<Slot>) {
        self.collect_until(set, self.rob_len(), out);
    }

    /// Appends every entry of `set` at offsets below `end_off` to `out`,
    /// oldest first.
    #[inline]
    pub fn collect_until(&self, set: SetId, end_off: usize, out: &mut Vec<Slot>) {
        let ((a0, a1), (b0, b1)) = self.pieces(0, end_off);
        let s = &self.sets[set as usize];
        let mut f = |slot: usize| {
            out.push(slot);
            true
        };
        s.walk_asc(a0, a1, &mut f);
        s.walk_asc(b0, b1, &mut f);
    }

    /// Visits every in-flight store older than the load in `slot`,
    /// **youngest first** (the store-queue search order of
    /// `execute_load`). `f` returns `false` to stop the walk.
    #[inline]
    pub fn for_each_store_older(&self, slot: Slot, mut f: impl FnMut(Slot) -> bool) {
        let ((a0, a1), (b0, b1)) = self.pieces(0, self.offset(slot));
        let s = &self.sets[SetId::InflightStores as usize];
        if s.walk_desc(b0, b1, &mut f) {
            s.walk_desc(a0, a1, &mut f);
        }
    }

    /// Visits every in-flight load younger than the store in `slot`,
    /// **oldest first** (the violation-scan order of `execute_store`).
    /// `f` returns `false` to stop the walk.
    #[inline]
    pub fn for_each_load_younger(&self, slot: Slot, mut f: impl FnMut(Slot) -> bool) {
        let ((a0, a1), (b0, b1)) = self.pieces(self.offset(slot) + 1, self.rob_len());
        let s = &self.sets[SetId::InflightLoads as usize];
        if s.walk_asc(a0, a1, &mut f) {
            s.walk_asc(b0, b1, &mut f);
        }
    }

    // ---- completion wheel -------------------------------------------

    /// Schedules the µop in `slot` to complete at `done`.
    ///
    /// # Panics
    ///
    /// Panics if `done` is not within one ring of the last drained
    /// cycle: the ring is sized from the largest completion latency the
    /// core can schedule, so such a deadline is a sizing bug.
    #[inline]
    pub fn schedule_completion(&mut self, done: u64, slot: Slot) {
        assert!(
            done > self.drained && done - self.drained <= self.wmask,
            "completion at cycle {done} beyond the wheel horizon (drained to {}, ring {})",
            self.drained,
            self.wmask + 1
        );
        let ev = WheelEvent {
            slot: slot as u32,
            gen: self.slot_gen[slot],
        };
        self.wheel_live += 1;
        if self.wheel_live > self.wheel_hwm {
            self.wheel_hwm = self.wheel_live;
        }
        let b = (done & self.wmask) as usize;
        if self.buckets[b].is_empty() {
            self.stamp[b] = done;
            self.occupied[b / 64] |= 1 << (b % 64);
        }
        debug_assert_eq!(self.stamp[b], done, "two deadlines in one bucket");
        self.buckets[b].push(ev);
        self.bucket_events += 1;
        if done < self.bucket_min {
            self.bucket_min = done;
        }
    }

    /// Whether a drained event still denotes a live µop: its slot must
    /// hold the same dispatch generation and lie inside the window.
    /// (Generation alone misses squashed-not-reused slots; the window
    /// test alone misses reused slots — together they are exact.)
    #[inline]
    fn event_live(&self, ev: WheelEvent) -> bool {
        let slot = ev.slot as usize;
        if self.slot_gen[slot] != ev.gen {
            return false;
        }
        self.offset(slot) < self.rob_len()
    }

    /// Removes every completion event due at or before `cycle` and fills
    /// `out` with the due µops' slots in age order. Stale (squashed)
    /// events are dropped here in O(1) via generation stamps, so `out`
    /// holds only live µops.
    pub fn pop_completions(&mut self, cycle: u64, out: &mut Vec<Slot>) {
        out.clear();
        debug_assert_eq!(self.bucket_min, self.recomputed_bucket_min(), "stale cache");
        self.drained = cycle;
        let mut drained = 0u64;
        if self.bucket_min <= cycle {
            // Deadlines at or before `cycle`: every such bucket has its
            // stamp in `[bucket_min, cycle]` (the pipeline drains every
            // tick and on every fast-forward landing, so this range is
            // at most one jump long).
            for c in self.bucket_min..=cycle {
                let b = (c & self.wmask) as usize;
                if self.buckets[b].is_empty() || self.stamp[b] != c {
                    continue;
                }
                let mut bucket = std::mem::take(&mut self.buckets[b]);
                drained += bucket.len() as u64;
                self.bucket_events -= bucket.len() as u64;
                for &ev in &bucket {
                    if self.event_live(ev) {
                        out.push(ev.slot as usize);
                    }
                }
                bucket.clear();
                self.buckets[b] = bucket; // pooled
                self.occupied[b / 64] &= !(1 << (b % 64));
                if self.bucket_events == 0 {
                    break;
                }
            }
            self.bucket_min = if self.bucket_events == 0 {
                u64::MAX
            } else {
                // All remaining bucketed deadlines lie in
                // (cycle, cycle + ring], because every push happened at
                // a cycle ≤ `cycle` with latency < ring size, so the
                // first occupied bucket cyclically after `cycle` holds
                // the nearest one.
                let from = ((cycle + 1) & self.wmask) as usize;
                let b = self.next_occupied(from).expect("bucketed events remain");
                let min = self.stamp[b];
                debug_assert!(
                    min > cycle && min <= cycle + self.wmask + 1,
                    "bucketed event outside the ring horizon"
                );
                min
            };
        }
        // A bucket holds events in scheduling order, and a fast-forward
        // landing drains several deadlines at once; keep age order so
        // processing matches the old ROB scan.
        if out.len() > 1 {
            let head = self.head_slot();
            let mask = self.cap - 1;
            out.sort_unstable_by_key(|&slot| (slot + self.cap - head) & mask);
        }
        debug_assert!(drained <= self.wheel_live);
        self.wheel_live -= drained;
    }

    /// The cycle of the earliest outstanding completion event (live or
    /// stale), if any. O(1): a cached field maintained on push and
    /// recomputed on drain; squash leaves it untouched because stale
    /// events stay in the wheel.
    #[inline]
    pub fn next_completion_cycle(&self) -> Option<u64> {
        debug_assert_eq!(self.bucket_min, self.recomputed_bucket_min(), "stale cache");
        (self.bucket_min != u64::MAX).then_some(self.bucket_min)
    }

    /// The first occupied bucket at or cyclically after bucket `from`.
    fn next_occupied(&self, from: usize) -> Option<usize> {
        let words = self.occupied.len();
        let (w0, bit) = (from / 64, from % 64);
        let high = !0u64 << bit;
        // The starting word's bits from `from` up, every other word in
        // ring order, then the starting word's bits below `from`.
        (0..=words).find_map(|i| {
            let w = (w0 + i) % words;
            let bits = match i {
                0 => self.occupied[w] & high,
                _ if i == words => self.occupied[w] & !high,
                _ => self.occupied[w],
            };
            (bits != 0).then(|| w * 64 + bits.trailing_zeros() as usize)
        })
    }

    /// Debug-only ground truth for the cached bucket minimum (and for
    /// the occupancy bitmap it is found through).
    fn recomputed_bucket_min(&self) -> u64 {
        debug_assert!(
            (0..self.buckets.len())
                .all(|i| self.buckets[i].is_empty() == (self.occupied[i / 64] >> (i % 64) & 1 == 0)),
            "stale occupancy bitmap"
        );
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, b)| !b.is_empty())
            .map(|(i, _)| self.stamp[i])
            .min()
            .unwrap_or(u64::MAX)
    }

    // ---- dependent lists --------------------------------------------

    /// The list head for `phys`, honouring the epoch (a stale head from
    /// before the last reset reads as empty).
    #[inline]
    fn dep_head_of(&self, phys: usize) -> u32 {
        if self.dep_epoch[phys] == self.dep_epoch_cur {
            self.dep_head[phys]
        } else {
            NO_NODE
        }
    }

    /// Parks the µop in `slot` until physical register `phys` is
    /// written back. A µop is parked on at most one register at a time.
    #[inline]
    pub fn register_dep(&mut self, phys: usize, slot: Slot) {
        debug_assert_eq!(self.dep_phys[slot], NO_NODE, "µop parked twice");
        self.dep_phys[slot] = phys as u32;
        self.dep_next[slot] = NO_NODE;
        let head = self.dep_head_of(phys);
        if head == NO_NODE {
            self.dep_epoch[phys] = self.dep_epoch_cur;
            self.dep_head[phys] = slot as u32;
            self.dep_tail[phys] = slot as u32;
            self.dep_prev[slot] = NO_NODE;
        } else {
            let tail = self.dep_tail[phys] as usize;
            self.dep_next[tail] = slot as u32;
            self.dep_prev[slot] = tail as u32;
            self.dep_tail[phys] = slot as u32;
        }
    }

    /// Drains the dependent list of `phys` into `out` in registration
    /// order (the caller re-registers entries that are still not ready).
    /// Yields only live µops: squash unlinks eagerly.
    #[inline]
    pub fn drain_deps(&mut self, phys: usize, out: &mut Vec<Slot>) {
        let mut node = self.dep_head_of(phys);
        if node == NO_NODE {
            return;
        }
        while node != NO_NODE {
            let slot = node as usize;
            debug_assert_eq!(self.dep_phys[slot], phys as u32);
            out.push(slot);
            self.dep_phys[slot] = NO_NODE;
            node = self.dep_next[slot];
        }
        self.dep_head[phys] = NO_NODE;
        self.dep_tail[phys] = NO_NODE;
    }

    /// Unlinks `slot` from its dependent list, if parked. O(1); eager
    /// unlinking is required (not an optimisation): the slot is about to
    /// be reused, and a stale link from a lazily-filtered list would be
    /// rewritten by the new occupant's park, truncating the old list.
    fn unlink_dep(&mut self, slot: usize) {
        let phys = self.dep_phys[slot];
        if phys == NO_NODE {
            return;
        }
        let phys = phys as usize;
        let (prev, next) = (self.dep_prev[slot], self.dep_next[slot]);
        if prev == NO_NODE {
            self.dep_head[phys] = next;
        } else {
            self.dep_next[prev as usize] = next;
        }
        if next == NO_NODE {
            self.dep_tail[phys] = prev;
        } else {
            self.dep_prev[next as usize] = prev;
        }
        self.dep_phys[slot] = NO_NODE;
    }

    // ---- occupancy statistics ---------------------------------------

    /// High-water mark of the waiting set (issue-queue occupancy).
    pub fn iq_hwm(&self) -> u64 {
        self.iq_hwm
    }

    /// High-water mark of outstanding completion-wheel events (live and
    /// stale alike — both occupy wheel storage).
    pub fn wheel_hwm(&self) -> u64 {
        self.wheel_hwm
    }

    // ---- progress flag ----------------------------------------------

    /// Clears the progress flag at tick start.
    #[inline]
    pub fn clear_progress(&mut self) {
        self.progress = false;
    }

    /// Marks that this tick changed simulator state.
    #[inline]
    pub fn mark_progress(&mut self) {
        self.progress = true;
    }

    /// Whether this tick changed simulator state.
    #[inline]
    pub fn progress(&self) -> bool {
        self.progress
    }
}

// ---------------------------------------------------------------------
// Fetch-group hand-off
// ---------------------------------------------------------------------

/// One fetched µop, as produced by the fetch stage: the static index
/// plus the dynamic prediction state rename needs. Per-entry front-end
/// timing lives on the owning [`FetchGroup`] — all µops fetched in one
/// cycle become rename-ready together.
#[derive(Clone, Copy)]
pub(crate) struct FetchEntry {
    /// Static instruction index.
    pub idx: u32,
    /// Predicted next instruction index (`None` = predicted stop).
    pub pred_next: Option<u32>,
    /// For conditional branches: predicted direction.
    pub pred_taken: bool,
    /// TAGE global-history snapshot from before this µop's fetch.
    pub hist_snapshot: u64,
    /// RSB checkpoint id from before this µop's fetch
    /// ([`crate::Rsb::checkpoint`]).
    pub rsb_checkpoint: u32,
}

/// A fetch group: the µops fetched in one cycle, handed to rename as a
/// unit. A group ends at a predicted-taken control transfer, at the
/// fetch width, or at a front-end stall (L1I miss / queue cap).
pub(crate) struct FetchGroup {
    /// Cycle at which the whole group reaches rename (fetch cycle +
    /// front-end depth). Strictly increasing across queued groups, so
    /// one group-level check replaces the old per-entry check exactly.
    pub ready_cycle: u64,
    /// Index of the next unconsumed entry (rename may drain a group
    /// across several cycles under structural stalls).
    cursor: usize,
    entries: Vec<FetchEntry>,
}

// Fetch-group buffers are cleared and reused without a drop.
const _: () = assert!(!std::mem::needs_drop::<FetchEntry>());

impl FetchGroup {
    /// Entries rename has not consumed yet.
    pub fn remaining(&self) -> &[FetchEntry] {
        &self.entries[self.cursor..]
    }
}

/// The front-end queue in group form: fetch pushes one [`FetchGroup`]
/// per cycle; rename consumes entries from the front group in order.
/// Group entry buffers are pooled so the steady state allocates nothing
/// (the PR 5 arena discipline).
#[derive(Default)]
pub(crate) struct FetchQueue {
    groups: VecDeque<FetchGroup>,
    /// Spent entry buffers, kept for reuse.
    pool: Vec<Vec<FetchEntry>>,
    /// Total unconsumed entries across all groups (the old
    /// `fetch_queue.len()` — the fetch stage's cap is on µops, not
    /// groups).
    pending: usize,
}

impl FetchQueue {
    /// Takes an empty entry buffer for fetch to fill (pooled).
    pub fn begin_group(&mut self) -> Vec<FetchEntry> {
        self.pool.pop().unwrap_or_default()
    }

    /// Queues a filled group with its rename-ready cycle. An empty
    /// buffer (fetch stalled before producing anything) is returned to
    /// the pool without queuing a group.
    pub fn push_group(&mut self, entries: Vec<FetchEntry>, ready_cycle: u64) {
        if entries.is_empty() {
            self.pool.push(entries);
            return;
        }
        debug_assert!(
            self.groups
                .back()
                .is_none_or(|g| g.ready_cycle < ready_cycle),
            "group ready cycles must be strictly increasing"
        );
        self.pending += entries.len();
        self.groups.push_back(FetchGroup {
            ready_cycle,
            cursor: 0,
            entries,
        });
    }

    /// The front group's next unconsumed entry, with the group's
    /// ready cycle.
    pub fn head(&self) -> Option<(&FetchEntry, u64)> {
        self.groups
            .front()
            .map(|g| (&g.entries[g.cursor], g.ready_cycle))
    }

    /// The front group's ready cycle (fast-forward wake point).
    pub fn head_ready_cycle(&self) -> Option<u64> {
        self.groups.front().map(|g| g.ready_cycle)
    }

    /// The front group itself (diagnostics).
    pub fn front_group(&self) -> Option<&FetchGroup> {
        self.groups.front()
    }

    /// Consumes the entry returned by [`FetchQueue::head`]; exhausted
    /// groups are retired and their buffers pooled.
    pub fn advance_head(&mut self) {
        let g = self.groups.front_mut().expect("advance past empty queue");
        g.cursor += 1;
        self.pending -= 1;
        if g.cursor == g.entries.len() {
            let mut g = self.groups.pop_front().expect("front exists");
            g.entries.clear();
            self.pool.push(g.entries);
        }
    }

    /// Total unconsumed µops across all groups.
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Discards every queued group (fetch redirect), pooling their
    /// buffers.
    pub fn clear(&mut self) {
        while let Some(mut g) = self.groups.pop_front() {
            g.entries.clear();
            self.pool.push(g.entries);
        }
        self.pending = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL_SETS: [SetId; N_SETS] = [
        SetId::Waiting,
        SetId::IssueReady,
        SetId::WakeupPending,
        SetId::StoreWaiters,
        SetId::ResolvePending,
        SetId::UnresolvedBranches,
        SetId::InflightLoads,
        SetId::InflightStores,
        SetId::ExecParkedMem,
        SetId::ExecParkedAlu,
        SetId::ExecParkedDiv,
        SetId::WakeupParked,
        SetId::ResolveParked,
    ];

    /// A small scheduler (8-slot ring, 32-bucket wheel) plus the
    /// sequence number written into each slot, standing in for the
    /// ROB records: wrap-around is a handful of dispatches away.
    struct Ring {
        s: Scheduler,
        seq: [Seq; 8],
    }

    impl Ring {
        fn new() -> Ring {
            Ring {
                s: Scheduler::new(8, 8, 30),
                seq: [0; 8],
            }
        }

        fn dispatch(&mut self, seq: Seq) -> Slot {
            let slot = self.s.on_dispatch();
            self.seq[slot] = seq;
            slot
        }

        fn squash(&mut self, seq: Seq) {
            let slot = self.s.on_squash_pop();
            assert_eq!(self.seq[slot], seq, "squash pops the ROB tail");
        }

        fn seqs(&self, slots: &[Slot]) -> Vec<Seq> {
            slots.iter().map(|&slot| self.seq[slot]).collect()
        }

        fn contents(&self, set: SetId) -> Vec<Seq> {
            let mut out = Vec::new();
            self.s.collect(set, &mut out);
            self.seqs(&out)
        }
    }

    #[test]
    fn wheel_pops_due_events_in_age_order() {
        let mut r = Ring::new();
        let [a, b, c, d] = [1u64, 2, 3, 7].map(|seq| r.dispatch(seq));
        r.s.schedule_completion(10, c);
        r.s.schedule_completion(5, d);
        r.s.schedule_completion(5, b);
        r.s.schedule_completion(12, a);
        let mut out = Vec::new();
        r.s.pop_completions(4, &mut out);
        assert!(out.is_empty());
        assert_eq!(r.s.next_completion_cycle(), Some(5));
        r.s.pop_completions(10, &mut out);
        assert_eq!(r.seqs(&out), vec![2, 3, 7]);
        assert_eq!(r.s.next_completion_cycle(), Some(12));
        r.s.pop_completions(100, &mut out);
        assert_eq!(r.seqs(&out), vec![1]);
        assert_eq!(r.s.next_completion_cycle(), None);
    }

    #[test]
    fn wheel_minimum_found_across_words_and_the_ring_wrap() {
        // A DRAM-sized ring: 256 buckets, four bitmap words.
        let mut s = Scheduler::new(8, 8, 200);
        let [a, b, c] = [0; 3].map(|_| s.on_dispatch());
        s.schedule_completion(100, a);
        s.schedule_completion(250, b); // last word
        let mut out = Vec::new();
        s.pop_completions(100, &mut out);
        assert_eq!(out, vec![a]);
        s.schedule_completion(300, c); // bucket 44, past the wrap
        assert_eq!(s.next_completion_cycle(), Some(250));
        s.pop_completions(250, &mut out);
        assert_eq!(out, vec![b]);
        assert_eq!(s.next_completion_cycle(), Some(300));
        s.pop_completions(300, &mut out);
        assert_eq!(out, vec![c]);
        assert_eq!(s.next_completion_cycle(), None);
    }

    #[test]
    fn squash_discards_only_younger_entries() {
        let mut r = Ring::new();
        for seq in [1u64, 5, 9] {
            let slot = r.dispatch(seq);
            for set in ALL_SETS {
                r.s.insert(set, slot);
            }
        }
        // The pipeline squash pops younger µops, tail first.
        r.squash(9);
        for set in ALL_SETS {
            assert_eq!(r.contents(set), vec![1, 5]);
        }
    }

    #[test]
    fn squash_and_age_order_across_ring_wraparound() {
        let mut r = Ring::new();
        // Fill most of the 8-slot ring...
        for seq in 10..16 {
            let slot = r.dispatch(seq);
            r.s.insert(SetId::Waiting, slot);
        }
        // ...commit 5 heads so later dispatches wrap slots 0..=2.
        for _ in 10..15 {
            r.s.remove(SetId::Waiting, r.s.head_slot());
            r.s.on_commit_head();
        }
        for seq in 20..26 {
            let slot = r.dispatch(seq);
            r.s.insert(SetId::Waiting, slot);
            r.s.insert(SetId::InflightLoads, slot);
        }
        // Age order across the wrap: head is µop 15 at offset 0.
        assert_eq!(r.s.head_slot(), 5);
        assert_eq!(r.s.slot_at(3), 0);
        assert_eq!(r.s.offset(2), 5);
        assert_eq!(r.contents(SetId::Waiting), vec![15, 20, 21, 22, 23, 24, 25]);
        assert_eq!(r.seqs(&[r.s.nth(SetId::Waiting, 3).unwrap()]), vec![22]);
        let mut below = Vec::new();
        r.s.collect_until(SetId::Waiting, 4, &mut below);
        assert_eq!(r.seqs(&below), vec![15, 20, 21, 22]);
        // Squash the youngest three (all on wrapped slots).
        for seq in [25, 24, 23] {
            r.squash(seq);
        }
        assert_eq!(r.contents(SetId::Waiting), vec![15, 20, 21, 22]);
        assert_eq!(r.contents(SetId::InflightLoads), vec![20, 21, 22]);
        // Refill the squashed slots: no leakage from the dead µops.
        for seq in 30..33 {
            let slot = r.dispatch(seq);
            r.s.insert(SetId::Waiting, slot);
        }
        assert_eq!(r.contents(SetId::Waiting), vec![15, 20, 21, 22, 30, 31, 32]);
        assert_eq!(r.seqs(&[r.s.youngest().unwrap()]), vec![32]);
    }

    #[test]
    fn parked_gates_lapse_in_frontier_order() {
        let mut r = Ring::new();
        let slots: Vec<Slot> = (1..=5)
            .map(|seq| {
                let slot = r.dispatch(seq);
                r.s.insert(SetId::IssueReady, slot);
                slot
            })
            .collect();
        r.s.park(BlockPoint::Execute, SetId::ExecParkedMem, slots[1], 2);
        r.s.park(BlockPoint::Execute, SetId::ExecParkedAlu, slots[2], 9);
        r.s.park(BlockPoint::Execute, SetId::ExecParkedDiv, slots[4], 4);
        assert_eq!(r.contents(SetId::IssueReady), vec![1, 4]);
        // Rank queries count parked entries below an offset.
        assert_eq!(r.s.count_below(SetId::ExecParkedAlu, 2), 0);
        assert_eq!(r.s.count_below(SetId::ExecParkedAlu, 3), 1);
        assert_eq!(r.s.count_below(SetId::ExecParkedDiv, 5), 1);
        let mut out = Vec::new();
        r.s.collect_until(SetId::ExecParkedMem, 5, &mut out);
        assert_eq!(r.seqs(&out), vec![2]);
        // Nothing lapses below the earliest point; then in point order.
        assert_eq!(r.s.unpark_due(BlockPoint::Execute, 1), 0);
        assert_eq!(r.s.unpark_due(BlockPoint::Execute, 4), 2);
        assert_eq!(r.contents(SetId::IssueReady), vec![1, 2, 4, 5]);
        assert_eq!(r.contents(SetId::ExecParkedAlu), vec![3]);
        // A squashed parked µop leaves a stale queue entry; the slot's
        // next occupant is not un-parked by it.
        r.squash(5);
        r.squash(4);
        r.squash(3);
        let six = r.dispatch(6);
        r.s.insert(SetId::IssueReady, six);
        r.s.park(BlockPoint::Execute, SetId::ExecParkedAlu, six, 20);
        assert_eq!(r.s.unpark_due(BlockPoint::Execute, 10), 0);
        assert_eq!(r.contents(SetId::ExecParkedAlu), vec![6]);
        // The resolve gate parks through the same table, with its own
        // lapse queue: the execute gate's due points do not move it.
        r.s.insert(SetId::ResolvePending, slots[0]);
        r.s.insert(SetId::ResolvePending, six);
        r.s.park(BlockPoint::Resolve, SetId::ResolveParked, six, 5);
        r.s.park(BlockPoint::Resolve, SetId::ResolveParked, slots[0], 1);
        assert_eq!(r.contents(SetId::ResolveParked), vec![1, 6]);
        assert_eq!(r.s.count_below(SetId::ResolveParked, 1), 1);
        assert_eq!(r.s.unpark_due(BlockPoint::Execute, 5), 0);
        assert_eq!(r.s.unpark_due(BlockPoint::Resolve, 4), 1);
        assert_eq!(r.contents(SetId::ResolvePending), vec![1]);
        assert_eq!(r.contents(SetId::ResolveParked), vec![6]);
        // A tag write un-parks every gate at once.
        r.s.insert(SetId::WakeupPending, slots[0]);
        r.s.park(BlockPoint::Wakeup, SetId::WakeupParked, slots[0], 3);
        assert_eq!(r.s.unpark_all(), [1, 1, 1]);
        assert_eq!(r.contents(SetId::IssueReady), vec![1, 2, 6]);
        assert_eq!(r.contents(SetId::WakeupPending), vec![1]);
        assert_eq!(r.contents(SetId::ResolvePending), vec![1, 6]);
        // ...and empties every lapse queue.
        for gate in BlockPoint::ALL {
            assert_eq!(r.s.unpark_due(gate, Seq::MAX), 0);
        }
    }

    #[test]
    fn generation_stamps_skip_stale_wheel_events() {
        let mut r = Ring::new();
        r.dispatch(1);
        let two = r.dispatch(2);
        r.s.schedule_completion(20, two);
        r.squash(2);
        // The stale event stays in the wheel and keeps feeding the
        // cached minimum (fast-forward jump-target parity)...
        assert_eq!(r.s.next_completion_cycle(), Some(20));
        // ...and the reused slot's new occupant shares its bucket.
        let three = r.dispatch(3);
        assert_eq!(three, two);
        r.s.schedule_completion(20, three);
        let mut out = Vec::new();
        r.s.pop_completions(20, &mut out);
        assert_eq!(
            r.seqs(&out),
            vec![3],
            "stale event for squashed seq 2 must be skipped"
        );
        assert_eq!(r.s.next_completion_cycle(), None);
        // Stale event whose slot was *not* reused: window check.
        let four = r.dispatch(4);
        r.s.schedule_completion(40, four);
        r.squash(4);
        out.clear();
        r.s.pop_completions(40, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn wheel_deadlines_reach_one_ring_past_the_last_drain() {
        // max_latency 30 → 32-bucket ring: from a drain at cycle 5, the
        // deadlines 6..=36 fit, the farthest in the bucket just behind
        // the drained one.
        let mut r = Ring::new();
        let mut out = Vec::new();
        r.s.pop_completions(5, &mut out);
        let one = r.dispatch(1);
        let two = r.dispatch(2);
        r.s.schedule_completion(5 + 31, two);
        r.s.schedule_completion(6, one);
        assert_eq!(r.s.next_completion_cycle(), Some(6));
        r.s.pop_completions(6, &mut out);
        assert_eq!(r.seqs(&out), vec![1]);
        assert_eq!(r.s.next_completion_cycle(), Some(36));
        r.s.pop_completions(36, &mut out);
        assert_eq!(r.seqs(&out), vec![2]);
        assert_eq!(r.s.next_completion_cycle(), None);
    }

    #[test]
    #[should_panic(expected = "beyond the wheel horizon")]
    fn wheel_overflow_beyond_horizon() {
        // One ring past the drained cycle would share the drained
        // cycle's bucket.
        let mut r = Ring::new();
        let mut out = Vec::new();
        r.s.pop_completions(5, &mut out);
        let one = r.dispatch(1);
        r.s.schedule_completion(5 + 32, one);
    }

    #[test]
    fn dep_lists_roundtrip_in_registration_order() {
        let mut r = Ring::new();
        let four = r.dispatch(4);
        let eight = r.dispatch(8);
        r.s.register_dep(1, four);
        r.s.register_dep(1, eight);
        let mut out = Vec::new();
        r.s.drain_deps(1, &mut out);
        assert_eq!(r.seqs(&out), vec![4, 8]);
        out.clear();
        r.s.drain_deps(1, &mut out);
        r.s.drain_deps(0, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn dep_lists_unlink_on_squash_and_reset_by_epoch() {
        let mut r = Ring::new();
        for seq in 1..=3 {
            let slot = r.dispatch(seq);
            r.s.register_dep(5, slot);
        }
        // Squash the middle registrant's younger sibling and the middle
        // one itself: both unlink in O(1), the head survives.
        r.squash(3);
        r.squash(2);
        let mut out = Vec::new();
        r.s.drain_deps(5, &mut out);
        assert_eq!(r.seqs(&out), vec![1]);
        // Epoch reset: parked µops from before reset() read as empty.
        let nine = r.dispatch(9);
        r.s.register_dep(5, nine);
        r.s.reset();
        out.clear();
        r.s.drain_deps(5, &mut out);
        assert!(out.is_empty());
        // The arena is fully usable after the O(1) reset.
        let eleven = r.dispatch(11);
        r.s.register_dep(5, eleven);
        out.clear();
        r.s.drain_deps(5, &mut out);
        assert_eq!(r.seqs(&out), vec![11]);
    }

    #[test]
    fn disambiguation_walks_visit_in_search_order() {
        let mut r = Ring::new();
        let slots: Vec<Slot> = (1..=6)
            .map(|seq| {
                let slot = r.dispatch(seq);
                if seq % 2 == 1 {
                    r.s.insert(SetId::InflightStores, slot);
                } else {
                    r.s.insert(SetId::InflightLoads, slot);
                }
                slot
            })
            .collect();
        let mut stores = Vec::new();
        // Stores older than the load seq 6, youngest first.
        r.s.for_each_store_older(slots[5], |q| {
            stores.push(q);
            true
        });
        assert_eq!(r.seqs(&stores), vec![5, 3, 1]);
        let mut loads = Vec::new();
        // Loads younger than the store seq 1, oldest first, with an
        // early stop.
        r.s.for_each_load_younger(slots[0], |q| {
            loads.push(q);
            r.seq[q] != 4
        });
        assert_eq!(r.seqs(&loads), vec![2, 4]);
    }

    #[test]
    fn occupancy_high_water_marks() {
        let mut r = Ring::new();
        let slots: Vec<Slot> = (1..=3)
            .map(|seq| {
                let slot = r.dispatch(seq);
                r.s.insert(SetId::Waiting, slot);
                slot
            })
            .collect();
        r.s.remove(SetId::Waiting, slots[2]);
        r.s.insert(SetId::Waiting, slots[2]);
        assert_eq!(r.s.iq_hwm(), 3);
        r.s.schedule_completion(4, slots[0]);
        r.s.schedule_completion(4, slots[1]);
        let mut out = Vec::new();
        r.s.pop_completions(4, &mut out);
        r.s.schedule_completion(9, slots[2]);
        assert_eq!(r.s.wheel_hwm(), 2);
        r.s.reset();
        assert_eq!((r.s.iq_hwm(), r.s.wheel_hwm()), (0, 0));
    }

    #[test]
    fn progress_flag_lifecycle() {
        let mut r = Ring::new();
        assert!(!r.s.progress());
        r.s.mark_progress();
        assert!(r.s.progress());
        r.s.clear_progress();
        assert!(!r.s.progress());
    }

    fn entry(idx: u32) -> FetchEntry {
        FetchEntry {
            idx,
            pred_next: Some(idx + 1),
            pred_taken: false,
            hist_snapshot: 0,
            rsb_checkpoint: 0,
        }
    }

    #[test]
    fn fetch_queue_groups_drain_in_order() {
        let mut q = FetchQueue::default();
        assert!(q.head().is_none());
        let mut g = q.begin_group();
        g.push(entry(0));
        g.push(entry(1));
        q.push_group(g, 10);
        let mut g = q.begin_group();
        g.push(entry(2));
        q.push_group(g, 11);
        assert_eq!(q.pending(), 3);
        assert_eq!(q.head_ready_cycle(), Some(10));

        let (e, rc) = q.head().expect("head");
        assert_eq!((e.idx, rc), (0, 10));
        q.advance_head();
        // The front group is handed over as a slice; the cursor tracks
        // what rename has consumed.
        let rem: Vec<u32> = q.groups[0].remaining().iter().map(|e| e.idx).collect();
        assert_eq!(rem, vec![1]);
        let (e, rc) = q.head().expect("head");
        assert_eq!((e.idx, rc), (1, 10));
        q.advance_head();
        // First group exhausted: head moves to the second group.
        let (e, rc) = q.head().expect("head");
        assert_eq!((e.idx, rc), (2, 11));
        assert_eq!(q.pending(), 1);
        q.advance_head();
        assert!(q.head().is_none());
        assert_eq!(q.pending(), 0);
    }

    #[test]
    fn fetch_queue_empty_group_and_clear_recycle() {
        let mut q = FetchQueue::default();
        let g = q.begin_group();
        q.push_group(g, 5); // empty: no group queued
        assert!(q.head().is_none());
        let mut g = q.begin_group();
        g.push(entry(7));
        q.push_group(g, 6);
        assert_eq!(q.pending(), 1);
        q.clear();
        assert_eq!(q.pending(), 0);
        assert!(q.head().is_none());
        // Pooled buffers come back empty.
        assert!(q.begin_group().is_empty());
    }
}
