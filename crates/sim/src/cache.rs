//! Set-associative cache timing model with per-byte metadata bits.
//!
//! Caches here are *tag + metadata* models: data always comes from the
//! functional memory (plus store-queue forwarding), so the caches decide
//! latency, and — for the L1D — carry the per-byte protection/shadow bits
//! that ProtISA (§IV-C2a) and SPT attach to it. Evicting a line drops its
//! metadata, which is exactly the "L1D evictions cause ProtISA to forget
//! what data was unprotected" behaviour.
//!
//! # Data layout
//!
//! [`Cache`] is a structure-of-arrays: three flat vectors indexed by
//! `set * ways + way` instead of a `Vec` of per-line structs. Tags live
//! in one contiguous `Vec<u64>`, so a way probe is a linear scan of a
//! few adjacent words; LRU stamps live in a parallel `Vec<u64>`; and the
//! per-byte metadata is a bitmap of [`CacheConfig::meta_words_per_line`]
//! `u64` words per line, so `meta_any` / `meta_all` / `meta_set` are
//! masked word operations and a miss fill is one word store per 64 bytes
//! of line instead of a per-byte `bool` loop. The original boxed-`bool`
//! representation survives only as the differential-test oracle in
//! `tests/cache_flat_equiv.rs`.
//!
//! # Zero means empty
//!
//! An invalid way holds tag `0`; a resident line stores `line_addr | 1`
//! (`line_bytes >= 2`, so bit 0 of a line address is free). An empty
//! cache is therefore all zeros, and [`Cache::new`] is three zeroed
//! allocations (or spare arrays, below): the pages of a 30 MiB L3 that a
//! run never touches are never faulted in. Metadata needs no initial fill either — it is only
//! read through a resident way, and a miss writes the fill word when it
//! allocates the line. The observable tag ([`AccessResult::evicted`],
//! [`Cache::tag_observation`]) strips bit 0, so nothing outside this
//! module sees the encoding.
//!
//! # Touched-set reset
//!
//! The first miss fill of a set since the last reset marks the set in a
//! per-set bitmap and pushes its index onto a touched list. Only a miss
//! fill makes a way valid, so every set holding a non-zero tag or LRU
//! stamp is on the list, and [`Cache::reset`] zeroes exactly those sets:
//! it costs O(sets touched), not O(capacity).
//!
//! # Spare storage
//!
//! A zeroed allocation is only free while the allocator hands out fresh
//! pages. A long-running process that builds and drops many cores (one
//! per table cell) gets recycled heap memory instead — glibc, for one,
//! stops serving these sizes from `mmap` once the first such block is
//! freed — and `calloc` then clears all of it: ~1.8 ms for a 30 MiB L3
//! on a 2-vCPU Xeon.
//! So a dropped cache empties its touched sets, exactly as `reset` does,
//! and leaves its arrays in a small per-thread spare list; `new` takes a
//! spare of the same array lengths before it allocates. An emptied
//! array is all zeros in tags and LRU stamps, the same state a zeroed
//! allocation starts in, so a cache built from a spare is
//! indistinguishable from one built from fresh memory.

use crate::CacheConfig;
use std::cell::RefCell;

/// Tag stored in [`Cache::tags`] for an invalid way.
const INVALID_TAG: u64 = 0;

/// Bit a resident line's tag carries on top of its line address.
/// `line_bytes >= 2` (enforced in [`Cache::new`]) keeps bit 0 of a line
/// address clear, so `line_addr | RESIDENT` is never [`INVALID_TAG`] and
/// `tag & !RESIDENT` recovers the line address exactly.
const RESIDENT: u64 = 1;

/// The flat arrays of a dropped, emptied cache (see "Spare storage").
struct Spare {
    tags: Vec<u64>,
    lru: Vec<u64>,
    meta: Vec<u64>,
    touched_bits: Vec<u64>,
    touched: Vec<u32>,
}

/// Spares kept per thread: a core's four caches, plus the shared L3 and
/// a swapped-out one that a multi-core run drops alongside them.
const MAX_SPARES: usize = 8;

thread_local! {
    static SPARES: RefCell<Vec<Spare>> = const { RefCell::new(Vec::new()) };
}

/// A set-associative, LRU, write-allocate cache (timing + metadata).
///
/// # Examples
///
/// ```
/// use protean_sim::{Cache, CacheConfig};
///
/// let cfg = CacheConfig { size_bytes: 1024, ways: 2, line_bytes: 64, latency: 3 };
/// let mut c = Cache::new(cfg, true);
/// assert!(!c.access(0x100).hit);
/// assert!(c.access(0x100).hit); // now resident
/// ```
#[derive(Clone, Debug)]
pub struct Cache {
    cfg: CacheConfig,
    /// Line tags in one flat array: way `w` of set `s` lives at index
    /// `s * ways + w`. [`INVALID_TAG`] (zero) marks an invalid way and a
    /// resident line stores `line_addr | RESIDENT`, so the hit probe is a
    /// branch-predictable scan of one contiguous `u64` slice.
    tags: Vec<u64>,
    /// LRU timestamps, parallel to `tags`.
    lru: Vec<u64>,
    /// Per-byte metadata bitmap: `words_per_line` `u64` words per line,
    /// bit `b` of word `w` covering byte `w * 64 + b` of the line. Only
    /// meaningful for resident ways (written on every miss fill).
    meta: Vec<u64>,
    /// One bit per cache set, on once the set has had a miss fill since
    /// the last reset (or construction).
    touched_bits: Vec<u64>,
    /// Exactly the sets whose bit is on in `touched_bits`, in first-fill
    /// order.
    touched: Vec<u32>,
    /// `ceil(line_bytes / 64)` — cached from the config.
    words_per_line: usize,
    /// Metadata value for bytes of a newly filled line.
    meta_fill: bool,
    /// The word that fills a fresh line's metadata (`0` or `u64::MAX`).
    fill_word: u64,
    clock: u64,
    /// Hits and misses, for statistics.
    pub hits: u64,
    /// Miss counter.
    pub misses: u64,
}

/// Result of a cache access.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AccessResult {
    /// Whether the line was resident.
    pub hit: bool,
    /// The line-aligned address of any line evicted to make room.
    pub evicted: Option<u64>,
}

/// Mask selecting bits `[lo, lo + n)` of a `u64` word (`n <= 64`).
#[inline]
fn range_mask(lo: u64, n: u64) -> u64 {
    debug_assert!(lo < 64 && n >= 1 && lo + n <= 64);
    (u64::MAX >> (64 - n)) << lo
}

impl Cache {
    /// Creates an empty cache. `meta_fill` is the metadata value given to
    /// every byte of a newly allocated line (ProtISA: `true` = protected;
    /// SPT shadow bits: `false` = private).
    ///
    /// Storage is a spare of the same array lengths or a zeroed
    /// allocation (empty is all zeros), so this is O(1) in the capacity:
    /// pages are faulted in only as sets fill.
    pub fn new(cfg: CacheConfig, meta_fill: bool) -> Cache {
        assert!(
            cfg.line_bytes.is_power_of_two() && cfg.line_bytes >= 2,
            "line_bytes must be a power of two >= 2 (bit 0 marks a resident tag)"
        );
        let sets = cfg.sets();
        assert!(
            u32::try_from(sets).is_ok(),
            "set count must fit the u32 touched list"
        );
        let lines = cfg.lines();
        let words_per_line = cfg.meta_words_per_line();
        let (meta_len, bits_len) = (lines * words_per_line, sets.div_ceil(64));
        let spare = SPARES.with(|spares| {
            let mut spares = spares.borrow_mut();
            spares
                .iter()
                .position(|s| {
                    s.tags.len() == lines
                        && s.meta.len() == meta_len
                        && s.touched_bits.len() == bits_len
                })
                .map(|i| spares.swap_remove(i))
        });
        let spare = spare.unwrap_or_else(|| Spare {
            tags: vec![INVALID_TAG; lines],
            lru: vec![0; lines],
            meta: vec![0; meta_len],
            touched_bits: vec![0; bits_len],
            touched: Vec::new(),
        });
        Cache {
            cfg,
            tags: spare.tags,
            lru: spare.lru,
            meta: spare.meta,
            touched_bits: spare.touched_bits,
            touched: spare.touched,
            words_per_line,
            meta_fill,
            fill_word: if meta_fill { u64::MAX } else { 0 },
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Empties the cache in place, reusing the flat arrays (the
    /// `Core::reset` arena path). `meta_fill` may change because it is
    /// policy-derived and the arena is reused across policies.
    ///
    /// Zeroes the tags and LRU stamps of the touched sets only; their
    /// metadata is left stale, since a miss fill rewrites it before any
    /// read. O(sets touched since the last reset).
    pub fn reset(&mut self, meta_fill: bool) {
        self.meta_fill = meta_fill;
        self.fill_word = if meta_fill { u64::MAX } else { 0 };
        self.clear_touched();
        self.clock = 0;
        self.hits = 0;
        self.misses = 0;
    }

    /// Zeroes the tags and LRU stamps of every set filled since the last
    /// clear, leaving the arrays as a fresh zeroed allocation.
    fn clear_touched(&mut self) {
        let ways = self.cfg.ways;
        for &set in &self.touched {
            let set = set as usize;
            let base = set * ways;
            self.tags[base..base + ways].fill(INVALID_TAG);
            self.lru[base..base + ways].fill(0);
            // Every set with a bit on is on the list: clear whole words.
            self.touched_bits[set / 64] = 0;
        }
        self.touched.clear();
    }

    /// The configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    fn line_addr(&self, addr: u64) -> u64 {
        addr & !(self.cfg.line_bytes as u64 - 1)
    }

    fn set_index(&self, addr: u64) -> usize {
        ((addr / self.cfg.line_bytes as u64) % self.cfg.sets() as u64) as usize
    }

    /// Index into the flat arrays of the resident way holding line `la`
    /// (a line-aligned address), or `None`. A resident tag is never
    /// [`INVALID_TAG`], so invalid ways never match.
    #[inline]
    fn find_way(&self, la: u64) -> Option<usize> {
        let base = self.set_index(la) * self.cfg.ways;
        let tag = la | RESIDENT;
        self.tags[base..base + self.cfg.ways]
            .iter()
            .position(|&t| t == tag)
            .map(|w| base + w)
    }

    /// Returns `true` if the line containing `addr` is resident (no LRU
    /// update, no allocation).
    pub fn probe(&self, addr: u64) -> bool {
        self.find_way(self.line_addr(addr)).is_some()
    }

    /// Accesses (and allocates on miss) the line containing `addr`,
    /// updating LRU. Returns hit/miss and any eviction.
    pub fn access(&mut self, addr: u64) -> AccessResult {
        self.clock += 1;
        let la = self.line_addr(addr);
        if let Some(idx) = self.find_way(la) {
            self.lru[idx] = self.clock;
            self.hits += 1;
            return AccessResult {
                hit: true,
                evicted: None,
            };
        }
        self.misses += 1;
        let set = self.set_index(addr);
        let bit = 1u64 << (set % 64);
        if self.touched_bits[set / 64] & bit == 0 {
            self.touched_bits[set / 64] |= bit;
            self.touched.push(set as u32);
        }
        // Victim: invalid way, else LRU — the *first* way with the
        // minimal (valid, lru) key, matching `Iterator::min_by_key`.
        let base = set * self.cfg.ways;
        let mut victim = base;
        let mut best = (self.tags[base] != INVALID_TAG, self.lru[base]);
        for idx in base + 1..base + self.cfg.ways {
            let key = (self.tags[idx] != INVALID_TAG, self.lru[idx]);
            if key < best {
                best = key;
                victim = idx;
            }
        }
        let evicted = (self.tags[victim] != INVALID_TAG).then_some(self.tags[victim] & !RESIDENT);
        self.tags[victim] = la | RESIDENT;
        self.lru[victim] = self.clock;
        let mbase = victim * self.words_per_line;
        self.meta[mbase..mbase + self.words_per_line].fill(self.fill_word);
        AccessResult {
            hit: false,
            evicted,
        }
    }

    /// ORs the metadata bits of `[addr, addr+size)`. Bytes on non-resident
    /// lines contribute `meta_fill` (i.e. protected for ProtISA).
    ///
    /// Iterates by an explicit *byte count* with wrapping address
    /// arithmetic: addresses near `u64::MAX` are fuzzer-reachable, where
    /// `addr + size` (or `line_addr + line_bytes`) overflows — and a
    /// wrapping `[addr, addr+size)` range must visit exactly `size`
    /// bytes (wrapping through 0). Short-circuits on the first set bit.
    pub fn meta_any(&self, addr: u64, size: u64) -> bool {
        let mut a = addr;
        let mut remaining = size;
        while remaining > 0 {
            let la = self.line_addr(a);
            let offset = a - la;
            let chunk = (self.cfg.line_bytes as u64 - offset).min(remaining);
            match self.find_way(la) {
                Some(idx) => {
                    if self.line_bits_any(idx, offset, chunk) {
                        return true;
                    }
                }
                // A non-resident chunk contributes `meta_fill` once —
                // OR is idempotent, so once per byte would be the same
                // answer for 64x the work.
                None => {
                    if self.meta_fill {
                        return true;
                    }
                }
            }
            a = a.wrapping_add(chunk);
            remaining -= chunk;
        }
        false
    }

    /// ANDs the metadata bits of `[addr, addr+size)` (non-resident bytes
    /// contribute `meta_fill`). Same wrapping byte-count contract as
    /// [`Cache::meta_any`]; short-circuits on the first clear bit.
    pub fn meta_all(&self, addr: u64, size: u64) -> bool {
        let mut a = addr;
        let mut remaining = size;
        while remaining > 0 {
            let la = self.line_addr(a);
            let offset = a - la;
            let chunk = (self.cfg.line_bytes as u64 - offset).min(remaining);
            match self.find_way(la) {
                Some(idx) => {
                    if !self.line_bits_all(idx, offset, chunk) {
                        return false;
                    }
                }
                None => {
                    if !self.meta_fill {
                        return false;
                    }
                }
            }
            a = a.wrapping_add(chunk);
            remaining -= chunk;
        }
        true
    }

    /// Sets the metadata bits of `[addr, addr+size)` on resident lines to
    /// `value` (non-resident bytes are untouched: the cache has forgotten
    /// them). Same wrapping byte-count contract as [`Cache::meta_any`].
    pub fn meta_set(&mut self, addr: u64, size: u64, value: bool) {
        let line_bytes = self.cfg.line_bytes as u64;
        let mut a = addr;
        let mut remaining = size;
        while remaining > 0 {
            let la = self.line_addr(a);
            let offset = a - la;
            let chunk = (line_bytes - offset).min(remaining);
            if let Some(idx) = self.find_way(la) {
                self.line_bits_set(idx, offset, chunk, value);
            }
            a = a.wrapping_add(chunk);
            remaining -= chunk;
        }
    }

    /// Is any metadata bit of line `idx`'s bytes `[offset, offset+count)`
    /// set? One masked test per touched word.
    #[inline]
    fn line_bits_any(&self, idx: usize, offset: u64, count: u64) -> bool {
        let base = idx * self.words_per_line;
        let mut word = (offset / 64) as usize;
        let mut bit = offset % 64;
        let mut remaining = count;
        while remaining > 0 {
            let n = (64 - bit).min(remaining);
            if self.meta[base + word] & range_mask(bit, n) != 0 {
                return true;
            }
            word += 1;
            bit = 0;
            remaining -= n;
        }
        false
    }

    /// Are all metadata bits of line `idx`'s bytes `[offset,
    /// offset+count)` set?
    #[inline]
    fn line_bits_all(&self, idx: usize, offset: u64, count: u64) -> bool {
        let base = idx * self.words_per_line;
        let mut word = (offset / 64) as usize;
        let mut bit = offset % 64;
        let mut remaining = count;
        while remaining > 0 {
            let n = (64 - bit).min(remaining);
            let mask = range_mask(bit, n);
            if self.meta[base + word] & mask != mask {
                return false;
            }
            word += 1;
            bit = 0;
            remaining -= n;
        }
        true
    }

    /// Sets line `idx`'s metadata bits for bytes `[offset, offset+count)`
    /// to `value` with one masked store per touched word.
    #[inline]
    fn line_bits_set(&mut self, idx: usize, offset: u64, count: u64, value: bool) {
        let base = idx * self.words_per_line;
        let mut word = (offset / 64) as usize;
        let mut bit = offset % 64;
        let mut remaining = count;
        while remaining > 0 {
            let n = (64 - bit).min(remaining);
            let mask = range_mask(bit, n);
            if value {
                self.meta[base + word] |= mask;
            } else {
                self.meta[base + word] &= !mask;
            }
            word += 1;
            bit = 0;
            remaining -= n;
        }
    }

    /// The adversary-visible tag state: for each set, the resident line
    /// addresses ordered by recency (a FLUSH+RELOAD/PRIME+PROBE-grade
    /// observation). Allocates; the run loop uses
    /// [`Cache::tag_observation_into`] with arena-owned buffers.
    pub fn tag_observation(&self) -> Vec<u64> {
        let mut obs = Vec::with_capacity(self.cfg.sets() * (self.cfg.ways + 1));
        let mut scratch = Vec::with_capacity(self.cfg.ways);
        self.tag_observation_into(&mut obs, &mut scratch);
        obs
    }

    /// Appends the tag observation to `out`, sorting each set's resident
    /// ways in `scratch` (both caller-provided so the per-run hot path
    /// does not allocate).
    pub fn tag_observation_into(&self, out: &mut Vec<u64>, scratch: &mut Vec<(u64, u64)>) {
        out.reserve(self.cfg.sets() * (self.cfg.ways + 1));
        for (i, set_tags) in self.tags.chunks_exact(self.cfg.ways).enumerate() {
            let base = i * self.cfg.ways;
            scratch.clear();
            scratch.extend(
                set_tags
                    .iter()
                    .enumerate()
                    .filter(|&(_, &t)| t != INVALID_TAG)
                    .map(|(w, &t)| (self.lru[base + w], t & !RESIDENT)),
            );
            scratch.sort_unstable();
            out.push(i as u64);
            out.extend(scratch.iter().map(|&(_, t)| t));
        }
    }

    /// Hit rate so far (1.0 if no accesses).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl Drop for Cache {
    /// Empties the touched sets and keeps the arrays as a spare for the
    /// next [`Cache::new`] on this thread (freed if the list is full or
    /// the thread is exiting).
    fn drop(&mut self) {
        self.clear_touched();
        let spare = Spare {
            tags: std::mem::take(&mut self.tags),
            lru: std::mem::take(&mut self.lru),
            meta: std::mem::take(&mut self.meta),
            touched_bits: std::mem::take(&mut self.touched_bits),
            touched: std::mem::take(&mut self.touched),
        };
        let _ = SPARES.try_with(|spares| {
            let mut spares = spares.borrow_mut();
            if spares.len() < MAX_SPARES {
                spares.push(spare);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        Cache::new(
            CacheConfig {
                size_bytes: 256,
                ways: 2,
                line_bytes: 64,
                latency: 1,
            },
            true,
        )
    }

    #[test]
    fn hit_after_fill() {
        let mut c = tiny();
        assert!(!c.access(0x40).hit);
        assert!(c.access(0x40).hit);
        assert!(c.access(0x7f).hit); // same line
        assert_eq!(c.hits, 2);
        assert_eq!(c.misses, 1);
    }

    #[test]
    fn lru_eviction() {
        let mut c = tiny(); // 2 sets, 2 ways
                            // Three lines mapping to set 0 (line addrs multiples of 128).
        c.access(0x000);
        c.access(0x080);
        c.access(0x000); // touch to make 0x080 LRU
        let r = c.access(0x100);
        assert_eq!(r.evicted, Some(0x080));
        assert!(c.probe(0x000));
        assert!(!c.probe(0x080));
    }

    #[test]
    fn meta_bits_lifecycle() {
        let mut c = tiny();
        // Not resident: every byte reads as meta_fill (protected).
        assert!(c.meta_any(0x40, 8));
        c.access(0x40);
        assert!(c.meta_any(0x40, 8)); // fill default = protected
        c.meta_set(0x40, 8, false);
        assert!(!c.meta_any(0x40, 8));
        assert!(c.meta_any(0x40, 9)); // 9th byte still protected
                                      // Eviction forgets the unprotection.
        c.access(0x0c0);
        c.access(0x140); // evicts 0x40 (LRU)
        assert!(!c.probe(0x40));
        assert!(c.meta_any(0x40, 8));
    }

    #[test]
    fn meta_all_vs_any() {
        let mut c = tiny();
        c.access(0x00);
        c.meta_set(0x00, 4, false);
        assert!(!c.meta_all(0x00, 8)); // half unprotected
        assert!(c.meta_any(0x00, 8));
        assert!(!c.meta_any(0x00, 4));
        assert!(c.meta_all(0x04, 4));
    }

    #[test]
    fn tag_observation_reflects_contents() {
        let mut a = tiny();
        let mut b = tiny();
        a.access(0x000);
        b.access(0x080);
        assert_ne!(a.tag_observation(), b.tag_observation());
        let mut c = tiny();
        c.access(0x000);
        assert_eq!(a.tag_observation(), c.tag_observation());
    }

    #[test]
    fn meta_ops_near_u64_max_do_not_overflow() {
        // Regression: `line_end = line_addr + line_bytes` overflowed for
        // addresses on the last line of the address space (panic under
        // debug overflow checks). The addresses are fuzzer-reachable.
        let mut c = tiny();
        let addr = u64::MAX - 3;
        c.access(addr);
        assert!(c.meta_any(addr, 4));
        c.meta_set(addr, 4, false);
        assert!(!c.meta_any(addr, 4));
        assert!(!c.meta_all(u64::MAX, 1));
    }

    #[test]
    fn meta_ops_wrapping_range_visits_size_bytes() {
        // Regression: a range wrapping past u64::MAX must visit exactly
        // `size` bytes (through 0), not degenerate into a ~2^64-byte
        // walk. 8 bytes starting at MAX-3: 4 on the last line, 4 on line
        // 0.
        let mut c = tiny();
        let addr = u64::MAX - 3;
        c.access(addr);
        c.access(0);
        c.meta_set(addr, 8, false);
        assert!(!c.meta_any(addr, 8));
        assert!(!c.meta_any(0, 4));
        assert!(c.meta_any(0, 5)); // 5th byte of line 0 untouched
                                   // Unprotect only the wrapped-to half; the high half stays set.
        let mut c2 = tiny();
        c2.access(addr);
        c2.access(0);
        c2.meta_set(0, 4, false);
        assert!(c2.meta_any(addr, 8));
        assert!(!c2.meta_all(addr, 8));
    }

    #[test]
    fn meta_cross_line() {
        let mut c = tiny();
        c.access(0x78); // line 0x40
        c.access(0x80); // line 0x80
        c.meta_set(0x7c, 8, false); // spans both lines
        assert!(!c.meta_any(0x7c, 8));
    }

    #[test]
    fn range_mask_bounds() {
        assert_eq!(range_mask(0, 64), u64::MAX);
        assert_eq!(range_mask(0, 1), 1);
        assert_eq!(range_mask(63, 1), 1 << 63);
        assert_eq!(range_mask(4, 4), 0xf0);
    }

    #[test]
    fn scratch_observation_matches_allocating_path() {
        let mut c = tiny();
        for a in [0x000u64, 0x080, 0x040, 0x1c0, 0x000] {
            c.access(a);
        }
        let mut out = vec![0xdead]; // appended-to, not cleared
        let mut scratch = Vec::new();
        c.tag_observation_into(&mut out, &mut scratch);
        assert_eq!(out[0], 0xdead);
        assert_eq!(&out[1..], c.tag_observation().as_slice());
    }
}
