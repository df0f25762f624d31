//! Differential test: the flat SoA + word-bitmap [`Cache`] against the
//! original boxed-`bool` cache, kept here as the oracle
//! [`BoolMetaCache`].
//!
//! Random interleavings of every public cache operation — access,
//! probe, `meta_set`/`meta_any`/`meta_all` with cross-line
//! spans, and full `tag_observation` snapshots — over varied geometries
//! (ways, sets, line sizes below/at/above one metadata word) and both
//! `meta_fill` polarities. Address streams deliberately mix a small hot
//! region (so sets and ways actually collide) with the last line of the
//! address space, so the wrapping byte-count contract (`u64::MAX - 3`
//! + 8 bytes wraps through 0) is exercised on every run.
//!
//! `Reset` ops interleave the arena path: the flat cache's touched-set
//! `reset` (which zeroes only the sets filled since the last reset)
//! against a freshly built oracle, possibly with the other `meta_fill`.
//! `Renew` ops drop the flat cache and build a new one, which takes the
//! dropped cache's emptied arrays from the per-thread spare list (or an
//! earlier case's, of another geometry with the same array lengths).

use protean_sim::{AccessResult, Cache, CacheConfig};
use protean_testkit::{Checker, Rng};

/// One cache line of the boxed-`bool` oracle: tag plus per-byte metadata.
#[derive(Clone, Debug)]
struct BoolLine {
    /// Line-aligned address (`addr & !(line_bytes-1)`), or `None` if
    /// invalid.
    tag: Option<u64>,
    /// LRU timestamp.
    lru: u64,
    /// Per-byte metadata (ProtISA protection bits / SPT shadow bits).
    meta: Box<[bool]>,
}

/// The original `Vec<Line>` cache with heap `Box<[bool]>` per-byte
/// metadata: the differential-test oracle for the flat word-level
/// [`Cache`].
#[derive(Clone, Debug)]
struct BoolMetaCache {
    cfg: CacheConfig,
    /// All lines in one contiguous allocation: way `w` of set `s` lives
    /// at index `s * ways + w`.
    lines: Vec<BoolLine>,
    /// Metadata value for bytes of a newly filled line.
    meta_fill: bool,
    clock: u64,
    /// Hit counter.
    hits: u64,
    /// Miss counter.
    misses: u64,
}

impl BoolMetaCache {
    /// Creates an empty oracle cache (same contract as [`Cache::new`]).
    fn new(cfg: CacheConfig, meta_fill: bool) -> BoolMetaCache {
        let lines = (0..cfg.sets() * cfg.ways)
            .map(|_| BoolLine {
                tag: None,
                lru: 0,
                meta: vec![meta_fill; cfg.line_bytes].into_boxed_slice(),
            })
            .collect();
        BoolMetaCache {
            cfg,
            lines,
            meta_fill,
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// The ways of set `idx`, in way order.
    fn set(&self, idx: usize) -> &[BoolLine] {
        let base = idx * self.cfg.ways;
        &self.lines[base..base + self.cfg.ways]
    }

    fn line_addr(&self, addr: u64) -> u64 {
        addr & !(self.cfg.line_bytes as u64 - 1)
    }

    fn set_index(&self, addr: u64) -> usize {
        ((addr / self.cfg.line_bytes as u64) % self.cfg.sets() as u64) as usize
    }

    /// Residency probe (no LRU update, no allocation).
    fn probe(&self, addr: u64) -> bool {
        let la = self.line_addr(addr);
        self.set(self.set_index(addr))
            .iter()
            .any(|l| l.tag == Some(la))
    }

    /// Accesses (and allocates on miss) the line containing `addr`,
    /// updating LRU (same contract as [`Cache::access`]).
    fn access(&mut self, addr: u64) -> AccessResult {
        self.clock += 1;
        let la = self.line_addr(addr);
        let set_idx = self.set_index(addr);
        let clock = self.clock;
        let meta_fill = self.meta_fill;
        let base = set_idx * self.cfg.ways;
        let set = &mut self.lines[base..base + self.cfg.ways];
        if let Some(line) = set.iter_mut().find(|l| l.tag == Some(la)) {
            line.lru = clock;
            self.hits += 1;
            return AccessResult {
                hit: true,
                evicted: None,
            };
        }
        self.misses += 1;
        // Victim: invalid way, else LRU.
        let victim = set
            .iter_mut()
            .min_by_key(|l| (l.tag.is_some(), l.lru))
            .expect("cache set has ways");
        let evicted = victim.tag.take();
        victim.tag = Some(la);
        victim.lru = clock;
        victim.meta.fill(meta_fill);
        AccessResult {
            hit: false,
            evicted,
        }
    }

    /// ORs the metadata bits of `[addr, addr+size)` (non-resident bytes
    /// contribute `meta_fill`).
    fn meta_any(&self, addr: u64, size: u64) -> bool {
        self.meta_fold(addr, size, false, true, |acc, b| acc | b)
    }

    /// ANDs the metadata bits of `[addr, addr+size)` (non-resident bytes
    /// contribute `meta_fill`).
    fn meta_all(&self, addr: u64, size: u64) -> bool {
        self.meta_fold(addr, size, true, false, |acc, b| acc & b)
    }

    /// Folds `f` over the `size` metadata bits starting at `addr`, with
    /// the wrapping byte-count contract documented on
    /// [`Cache::meta_any`]. A non-resident chunk's contribution is a
    /// *single* fold of `meta_fill` (OR and AND are idempotent, so
    /// folding it once per byte — as the original code did — computes
    /// the same value for `line_bytes`× the work), and the walk stops
    /// early once the accumulator reaches `saturated` (a value `f` can
    /// never leave).
    fn meta_fold(
        &self,
        addr: u64,
        size: u64,
        init: bool,
        saturated: bool,
        f: impl Fn(bool, bool) -> bool,
    ) -> bool {
        let mut acc = init;
        let mut a = addr;
        let mut remaining = size;
        while remaining > 0 {
            if acc == saturated {
                return acc;
            }
            let la = self.line_addr(a);
            let offset = a - la;
            let chunk = (self.cfg.line_bytes as u64 - offset).min(remaining);
            let set = self.set(self.set_index(a));
            match set.iter().find(|l| l.tag == Some(la)) {
                Some(line) => {
                    for i in 0..chunk {
                        acc = f(acc, line.meta[(offset + i) as usize]);
                    }
                }
                None => acc = f(acc, self.meta_fill),
            }
            a = a.wrapping_add(chunk);
            remaining -= chunk;
        }
        acc
    }

    /// Sets the metadata bits of `[addr, addr+size)` on resident lines
    /// (same contract as [`Cache::meta_set`]).
    fn meta_set(&mut self, addr: u64, size: u64, value: bool) {
        let line_bytes = self.cfg.line_bytes as u64;
        let mut a = addr;
        let mut remaining = size;
        while remaining > 0 {
            let la = self.line_addr(a);
            let offset = a - la;
            let chunk = (line_bytes - offset).min(remaining);
            let set_idx = self.set_index(a);
            let base = set_idx * self.cfg.ways;
            if let Some(line) = self.lines[base..base + self.cfg.ways]
                .iter_mut()
                .find(|l| l.tag == Some(la))
            {
                for i in 0..chunk {
                    line.meta[(offset + i) as usize] = value;
                }
            }
            a = a.wrapping_add(chunk);
            remaining -= chunk;
        }
    }

    /// The adversary-visible tag state (same contract as
    /// [`Cache::tag_observation`]).
    fn tag_observation(&self) -> Vec<u64> {
        let mut obs = Vec::with_capacity(self.cfg.sets() * (self.cfg.ways + 1));
        let mut resident: Vec<(u64, u64)> = Vec::with_capacity(self.cfg.ways);
        for (i, set) in self.lines.chunks_exact(self.cfg.ways).enumerate() {
            resident.clear();
            resident.extend(set.iter().filter_map(|l| l.tag.map(|t| (l.lru, t))));
            resident.sort_unstable();
            obs.push(i as u64);
            obs.extend(resident.iter().map(|&(_, t)| t));
        }
        obs
    }
}

/// One cache operation of the differential scripts.
#[derive(Clone, Copy, Debug)]
enum Op {
    Access(u64),
    Probe(u64),
    MetaSet(u64, u64, bool),
    MetaAny(u64, u64),
    MetaAll(u64, u64),
    Observation,
    Reset { meta_fill: bool },
    Renew { meta_fill: bool },
}

/// Adversarial address mix: mostly a small region that collides in the
/// tiny geometries, sometimes the very top of the address space (the
/// wrap cases), sometimes anywhere.
fn arb_addr(rng: &mut Rng, line_bytes: u64) -> u64 {
    match rng.gen_range(0u32..8) {
        0..=4 => rng.gen_range(0u64..line_bytes * 24),
        5 | 6 => u64::MAX - rng.gen_range(0u64..line_bytes * 3),
        _ => rng.gen::<u64>(),
    }
}

fn arb_op(rng: &mut Rng, line_bytes: u64) -> Op {
    let addr = arb_addr(rng, line_bytes);
    // Sizes from 0 (empty range) past two full lines (multi-chunk walks).
    let size = rng.gen_range(0u64..line_bytes * 2 + 3);
    match rng.gen_range(0u32..13) {
        0..=3 => Op::Access(addr),
        4 => Op::Probe(addr),
        5 | 6 => Op::MetaSet(addr, size, rng.gen::<bool>()),
        7 => Op::MetaAny(addr, size),
        8 => Op::MetaAll(addr, size),
        9 => Op::Observation,
        10 => Op::Reset {
            meta_fill: rng.gen::<bool>(),
        },
        11 => Op::Renew {
            meta_fill: rng.gen::<bool>(),
        },
        // The pinned regression shape: unprotect 8 bytes at MAX-3.
        _ => Op::MetaSet(u64::MAX - 3, 8, false),
    }
}

#[derive(Debug)]
struct Case {
    cfg: CacheConfig,
    meta_fill: bool,
    ops: Vec<Op>,
}

fn arb_case(rng: &mut Rng) -> Case {
    // Line sizes below, at, and above one 64-bit metadata word.
    let line_bytes = [16usize, 32, 64, 128][rng.gen_range(0u32..4) as usize];
    let ways = rng.gen_range(1usize..5);
    let sets = 1 << rng.gen_range(0u32..4);
    let cfg = CacheConfig {
        size_bytes: sets * ways * line_bytes,
        ways,
        line_bytes,
        latency: 1,
    };
    let n = rng.gen_range(1usize..200);
    let ops = (0..n).map(|_| arb_op(rng, line_bytes as u64)).collect();
    Case {
        cfg,
        meta_fill: rng.gen::<bool>(),
        ops,
    }
}

fn run_case(case: &Case) {
    let mut flat = Cache::new(case.cfg, case.meta_fill);
    let mut oracle = BoolMetaCache::new(case.cfg, case.meta_fill);
    for (i, op) in case.ops.iter().enumerate() {
        match *op {
            Op::Access(a) => {
                assert_eq!(flat.access(a), oracle.access(a), "access {a:#x} at op {i}");
            }
            Op::Probe(a) => {
                assert_eq!(flat.probe(a), oracle.probe(a), "probe {a:#x} at op {i}");
            }
            Op::MetaSet(a, s, v) => {
                flat.meta_set(a, s, v);
                oracle.meta_set(a, s, v);
            }
            Op::MetaAny(a, s) => {
                assert_eq!(
                    flat.meta_any(a, s),
                    oracle.meta_any(a, s),
                    "meta_any({a:#x}, {s}) at op {i}"
                );
            }
            Op::MetaAll(a, s) => {
                assert_eq!(
                    flat.meta_all(a, s),
                    oracle.meta_all(a, s),
                    "meta_all({a:#x}, {s}) at op {i}"
                );
            }
            Op::Observation => {
                assert_eq!(
                    flat.tag_observation(),
                    oracle.tag_observation(),
                    "tag_observation at op {i}"
                );
            }
            Op::Reset { meta_fill } => {
                flat.reset(meta_fill);
                oracle = BoolMetaCache::new(case.cfg, meta_fill);
            }
            Op::Renew { meta_fill } => {
                drop(flat);
                flat = Cache::new(case.cfg, meta_fill);
                oracle = BoolMetaCache::new(case.cfg, meta_fill);
            }
        }
    }
    // Final state: observation, counters, and a metadata sweep of the
    // hot region plus the wrap window.
    assert_eq!(flat.tag_observation(), oracle.tag_observation());
    assert_eq!((flat.hits, flat.misses), (oracle.hits, oracle.misses));
    let lb = case.cfg.line_bytes as u64;
    for base in 0..4 * lb {
        assert_eq!(flat.meta_any(base, 3), oracle.meta_any(base, 3));
        assert_eq!(flat.meta_all(base, 3), oracle.meta_all(base, 3));
    }
    for off in 0..2 * lb {
        let a = u64::MAX - off;
        assert_eq!(flat.meta_any(a, lb + 2), oracle.meta_any(a, lb + 2));
        assert_eq!(flat.meta_all(a, lb + 2), oracle.meta_all(a, lb + 2));
    }
}

#[test]
fn cache_flat_matches_boxed_bool_oracle() {
    Checker::new("cache_flat_matches_boxed_bool_oracle")
        .cases(400)
        .run(arb_case, run_case);
}

/// The pinned regression scenarios from the unit suite, verbatim,
/// through the differential harness (deterministic, not sampled).
#[test]
fn cache_flat_equiv_pinned_wrap_cases() {
    let cfg = CacheConfig {
        size_bytes: 256,
        ways: 2,
        line_bytes: 64,
        latency: 1,
    };
    for meta_fill in [true, false] {
        let ops = vec![
            Op::Access(u64::MAX - 3),
            Op::Access(0),
            Op::MetaSet(u64::MAX - 3, 8, false),
            Op::MetaAny(u64::MAX - 3, 8),
            Op::MetaAny(0, 4),
            Op::MetaAny(0, 5),
            Op::MetaAll(u64::MAX, 1),
            Op::MetaSet(0, 4, true),
            Op::MetaAny(u64::MAX - 3, 8),
            Op::MetaAll(u64::MAX - 3, 8),
            Op::Observation,
            Op::Access(0x78),
            Op::Access(0x80),
            Op::MetaSet(0x7c, 8, false),
            Op::MetaAny(0x7c, 8),
            Op::MetaAny(u64::MAX - 3, 8),
            Op::Observation,
        ];
        run_case(&Case {
            cfg,
            meta_fill,
            ops,
        });
    }
}

/// The touched-set clear, deterministically, through `reset` and through
/// a drop + `new` that reuses the spare arrays: across a clear that flips
/// the meta-fill polarity, a set touched once, a set filled twice, set 0
/// and the last set must all read as empty — no stale tag, LRU stamp or
/// metadata — and refill exactly like a fresh cache.
#[test]
fn cache_flat_equiv_pinned_reset_cases() {
    // 4 sets x 2 ways of 64-byte lines: set = (addr / 64) % 4.
    let cfg = CacheConfig {
        size_bytes: 512,
        ways: 2,
        line_bytes: 64,
        latency: 1,
    };
    let clear = |renew: bool, meta_fill: bool| {
        if renew {
            Op::Renew { meta_fill }
        } else {
            Op::Reset { meta_fill }
        }
    };
    for (renew, meta_fill) in [(false, true), (false, false), (true, true), (true, false)] {
        let ops = vec![
            Op::Access(0x000), // set 0
            Op::Access(0x100), // set 0 again: both ways filled
            Op::Access(0x000), // 0x100 is now LRU
            Op::Access(0x0c0), // set 3, the last set
            Op::Access(0x040), // set 1, touched once
            Op::MetaSet(0x000, 8, !meta_fill),
            Op::MetaSet(0x0c0, 64, !meta_fill),
            Op::Observation,
            clear(renew, !meta_fill),
            Op::Observation,
            Op::Probe(0x000),
            Op::Probe(0x100),
            Op::Probe(0x040),
            Op::Probe(0x0c0),
            Op::MetaAny(0x000, 8),
            Op::MetaAll(0x0c0, 64),
            // Refill: LRU order restarts, and fills take the new
            // polarity.
            Op::Access(0x200), // set 0
            Op::Access(0x000), // set 0
            Op::Access(0x300), // set 0: evicts 0x200
            Op::Access(0x040), // set 1 again
            Op::Access(0x1c0), // set 3
            Op::MetaAny(0x000, 64),
            Op::MetaAll(0x040, 64),
            Op::MetaAny(0x1c0, 64),
            Op::Observation,
            // A clear that keeps the polarity.
            clear(renew, !meta_fill),
            Op::Observation,
            Op::Access(0x0c0),
            Op::MetaAll(0x0c0, 64),
            Op::Observation,
        ];
        run_case(&Case {
            cfg,
            meta_fill,
            ops,
        });
    }
}
