//! Always-on wall-time section profiler for the pipeline's phases.
//!
//! Each [`crate::pipeline::Core`] owns a [`Profiler`] with one *active
//! section*. The tick enters a section at every stage boundary, and
//! execution and the component models run inside an
//! enter/[`Profiler::resume`] pair. Each switch charges the time since
//! the previous one to the section being left, so nested sections
//! partition the tick by construction. Calls are counted on every tick
//! (exact, deterministic); `Instant` is read only on a deterministic
//! one-in-[`SAMPLE_EVERY`] sample of ticks chosen by a hash of the cycle
//! number, and the reported nanoseconds are scaled by total ÷ timed
//! ticks.
//!
//! Beside the sections, the profiler counts the defense gates' work:
//! policy evaluations, parks and un-parks per gate (see
//! [`crate::Gate`]). These are exact event counts too, reported on the
//! row of the section that runs the gate (`issue` for the execute gate,
//! `wakeup`, `resolve`).
//!
//! Same pure-observer discipline as the tracer (`crate::trace`): the
//! profiler reads clocks and never feeds back into simulation. Cores
//! flush into process-wide atomics at the end of every run, so a whole
//! campaign (including parallel workers) folds into one [`totals`]
//! table.

use crate::defense::BlockPoint;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The profiled pipeline phases, in tick order. `FastForward` is the
/// idle-cycle jump machinery that runs after a tick that made no
/// progress.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Section {
    /// Completion drain + wakeup arbitration (`complete_and_wakeup`).
    Wakeup = 0,
    /// Store-data capture (`capture_store_data`).
    StoreData = 1,
    /// Branch resolution and squash (`resolve_branches`).
    Resolve = 2,
    /// In-order commit.
    Commit = 3,
    /// Issue-window scheduling and defense gating.
    Issue = 4,
    /// Execution units (`execute_uop` and its load/store legs), entered
    /// from the issue stage.
    Execute = 5,
    /// Rename/dispatch.
    Rename = 6,
    /// Fetch and branch prediction.
    Fetch = 7,
    /// Idle-cycle fast-forward (bulk blocked-cycle attribution).
    FastForward = 8,
    /// Cache tag probes and fills (`Cache::access` walks for timing),
    /// entered from the stages that perform them (issue/commit/fetch).
    CacheAccess = 9,
    /// L1D metadata word ops (`meta_any`/`meta_all`/`meta_set`), entered
    /// from the issue/commit stages.
    CacheMeta = 10,
    /// Branch-predictor work (TAGE predict/update/speculate/restore,
    /// BTB, RSB), entered from the fetch/resolve/commit stages.
    Bpred = 11,
}

const N_SECTIONS: usize = 12;

const NAMES: [&str; N_SECTIONS] = [
    "wakeup",
    "store_data",
    "resolve",
    "commit",
    "issue",
    "execute",
    "rename",
    "fetch",
    "fast_forward",
    "cache_access",
    "cache_meta",
    "bpred",
];

/// The section each gate runs in, indexed by [`BlockPoint`].
const GATE_SECTIONS: [Section; 3] = [Section::Issue, Section::Wakeup, Section::Resolve];

/// One tick in this many is timed.
pub const SAMPLE_EVERY: u64 = 64;

/// Whether the tick at `cycle` is timed: the top bits of a Fibonacci
/// hash of the cycle number, so the sample is deterministic and spread
/// evenly over a run (gaps of a few lengths, not one stride that could
/// alias with a loop). The offset keeps cycle 0, the first tick of
/// every run, out of the sample.
#[inline]
fn sampled(cycle: u64) -> bool {
    cycle.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15) <= u64::MAX / SAMPLE_EVERY
}

/// Per-core accumulator (see the module docs).
#[derive(Clone, Debug)]
pub(crate) struct Profiler {
    /// The section a timed tick is currently charging.
    active: Section,
    /// Whether the current tick is timed.
    timing: bool,
    /// The last switch of a timed tick.
    last: Instant,
    ticks: u64,
    timed_ticks: u64,
    calls: [u64; N_SECTIONS],
    timed_calls: [u64; N_SECTIONS],
    nanos: [u64; N_SECTIONS],
    /// Per gate ([`BlockPoint`] order): policy evaluations, parks and
    /// un-parks.
    gate_evals: [u64; 3],
    gate_parks: [u64; 3],
    gate_unparks: [u64; 3],
}

impl Default for Profiler {
    fn default() -> Profiler {
        Profiler {
            active: Section::Wakeup,
            timing: false,
            last: Instant::now(),
            ticks: 0,
            timed_ticks: 0,
            calls: [0; N_SECTIONS],
            timed_calls: [0; N_SECTIONS],
            nanos: [0; N_SECTIONS],
            gate_evals: [0; 3],
            gate_parks: [0; 3],
            gate_unparks: [0; 3],
        }
    }
}

impl Profiler {
    /// Starts the tick at `cycle` in section `first`, counting one entry
    /// to it; the clock starts if the tick is sampled.
    #[inline]
    pub fn begin_tick(&mut self, cycle: u64, first: Section) {
        self.ticks += 1;
        self.calls[first as usize] += 1;
        self.timing = sampled(cycle);
        if self.timing {
            self.timed_ticks += 1;
            self.timed_calls[first as usize] += 1;
            self.active = first;
            // After untimed ticks the clock's code and data run cold; a
            // throwaway read keeps that miss out of the first section.
            std::hint::black_box(Instant::now());
            self.last = Instant::now();
        }
    }

    /// Ends the current tick, charging the active section.
    #[inline]
    pub fn end_tick(&mut self) {
        if self.timing {
            self.switch_to(self.active);
            self.timing = false;
        }
    }

    /// Counts one entry to `s`. On a timed tick, makes `s` active and
    /// returns the section left, for [`Profiler::resume`]; on an untimed
    /// tick nothing is active and `resume` is a no-op.
    #[inline]
    pub fn enter(&mut self, s: Section) -> Section {
        self.calls[s as usize] += 1;
        if !self.timing {
            return s;
        }
        self.timed_calls[s as usize] += 1;
        self.switch_to(s)
    }

    /// Switches back to `prev` (as returned by [`Profiler::enter`])
    /// without counting an entry.
    #[inline]
    pub fn resume(&mut self, prev: Section) {
        if self.timing {
            self.switch_to(prev);
        }
    }

    /// Counts one policy evaluation at `gate`.
    #[inline]
    pub fn gate_eval(&mut self, gate: BlockPoint) {
        self.gate_evals[gate as usize] += 1;
    }

    /// Counts one µop parked at `gate`.
    #[inline]
    pub fn gate_park(&mut self, gate: BlockPoint) {
        self.gate_parks[gate as usize] += 1;
    }

    /// Counts `n` µops un-parked at `gate`.
    #[inline]
    pub fn gate_unparks(&mut self, gate: BlockPoint, n: u64) {
        self.gate_unparks[gate as usize] += n;
    }

    /// Charges the time since the last switch to the active section,
    /// makes `s` active and returns the section left.
    #[cold]
    fn switch_to(&mut self, s: Section) -> Section {
        let now = Instant::now();
        let left = std::mem::replace(&mut self.active, s);
        self.nanos[left as usize] += (now - self.last).as_nanos() as u64;
        self.last = now;
        left
    }

    /// Folds this accumulator into the process-wide totals and zeroes
    /// it. Called at the end of every run: one relaxed RMW per nonzero
    /// counter.
    pub fn flush(&mut self) {
        let totals = [&TOTAL_TICKS, &TOTAL_TIMED_TICKS]
            .into_iter()
            .chain(&TOTAL_CALLS)
            .chain(&TOTAL_TIMED_CALLS)
            .chain(&TOTAL_NANOS)
            .chain(&TOTAL_GATE_EVALS)
            .chain(&TOTAL_GATE_PARKS)
            .chain(&TOTAL_GATE_UNPARKS);
        let locals = [&mut self.ticks, &mut self.timed_ticks]
            .into_iter()
            .chain(&mut self.calls)
            .chain(&mut self.timed_calls)
            .chain(&mut self.nanos)
            .chain(&mut self.gate_evals)
            .chain(&mut self.gate_parks)
            .chain(&mut self.gate_unparks);
        for (total, local) in totals.zip(locals) {
            if *local != 0 {
                total.fetch_add(std::mem::take(local), Ordering::Relaxed);
            }
        }
    }
}

static TOTAL_TICKS: AtomicU64 = AtomicU64::new(0);
static TOTAL_TIMED_TICKS: AtomicU64 = AtomicU64::new(0);
static TOTAL_CALLS: [AtomicU64; N_SECTIONS] = [const { AtomicU64::new(0) }; N_SECTIONS];
static TOTAL_TIMED_CALLS: [AtomicU64; N_SECTIONS] = [const { AtomicU64::new(0) }; N_SECTIONS];
static TOTAL_NANOS: [AtomicU64; N_SECTIONS] = [const { AtomicU64::new(0) }; N_SECTIONS];
static TOTAL_GATE_EVALS: [AtomicU64; 3] = [const { AtomicU64::new(0) }; 3];
static TOTAL_GATE_PARKS: [AtomicU64; 3] = [const { AtomicU64::new(0) }; 3];
static TOTAL_GATE_UNPARKS: [AtomicU64; 3] = [const { AtomicU64::new(0) }; 3];

/// One section's process-wide totals.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SectionTotal {
    /// The section's name (`wakeup`, `cache_access`, ...).
    pub section: &'static str,
    /// Wall time, scaled from the timed ticks to all ticks.
    pub nanos: u64,
    /// Entries on every tick (exact).
    pub calls: u64,
    /// Entries on timed ticks: the sample behind `nanos`.
    pub timed_calls: u64,
    /// Defense-gate policy evaluations made in this section (exact;
    /// zero for sections that run no gate).
    pub gate_evals: u64,
    /// µops parked at this section's gate (exact).
    pub gate_parks: u64,
    /// µops un-parked at this section's gate (exact).
    pub gate_unparks: u64,
}

/// Scales `nanos` measured on `timed_ticks` of `ticks` ticks up to all
/// of them (zero when nothing was timed).
fn scale(nanos: u64, ticks: u64, timed_ticks: u64) -> u64 {
    if timed_ticks == 0 {
        return 0;
    }
    (u128::from(nanos) * u128::from(ticks) / u128::from(timed_ticks)) as u64
}

/// Process-wide totals per section, in tick order.
pub fn totals() -> Vec<SectionTotal> {
    let ticks = TOTAL_TICKS.load(Ordering::Relaxed);
    let timed_ticks = TOTAL_TIMED_TICKS.load(Ordering::Relaxed);
    (0..N_SECTIONS)
        .map(|i| {
            let gate = GATE_SECTIONS.iter().position(|&s| s as usize == i);
            let gate_total = |t: &[AtomicU64; 3]| gate.map_or(0, |g| t[g].load(Ordering::Relaxed));
            SectionTotal {
                section: NAMES[i],
                nanos: scale(TOTAL_NANOS[i].load(Ordering::Relaxed), ticks, timed_ticks),
                calls: TOTAL_CALLS[i].load(Ordering::Relaxed),
                timed_calls: TOTAL_TIMED_CALLS[i].load(Ordering::Relaxed),
                gate_evals: gate_total(&TOTAL_GATE_EVALS),
                gate_parks: gate_total(&TOTAL_GATE_PARKS),
                gate_unparks: gate_total(&TOTAL_GATE_UNPARKS),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn nested_sections_charge_self_time() {
        let mut p = Profiler::default();
        p.begin_tick((0..).find(|&c| sampled(c)).unwrap(), Section::Issue);
        let nap = Duration::from_millis(20);
        let issue = p.enter(Section::Execute);
        let exec = p.enter(Section::CacheAccess);
        std::thread::sleep(nap);
        p.resume(exec);
        std::thread::sleep(nap);
        p.resume(issue);
        p.end_tick();
        // Each level holds its own sleep, not its child's.
        let (ns, nap) = (|s: Section| p.nanos[s as usize], nap.as_nanos() as u64);
        assert!(ns(Section::CacheAccess) >= nap);
        assert!((nap..2 * nap).contains(&ns(Section::Execute)));
        assert!(ns(Section::Issue) < nap);
        // `begin_tick` and `enter` count one call each; `resume` none.
        let mut expect = [0; N_SECTIONS];
        for s in [Section::Issue, Section::Execute, Section::CacheAccess] {
            expect[s as usize] = 1;
        }
        assert_eq!((p.calls, p.timed_calls), (expect, expect));
    }

    #[test]
    fn untimed_ticks_count_calls_but_read_no_clock() {
        let mut p = Profiler::default();
        p.begin_tick((0..).find(|&c| !sampled(c)).unwrap(), Section::Wakeup);
        let prev = p.enter(Section::Bpred);
        p.resume(prev);
        p.end_tick();
        assert_eq!((p.ticks, p.timed_ticks), (1, 0));
        assert_eq!(p.calls.iter().sum::<u64>(), 2);
        assert_eq!((p.timed_calls, p.nanos), ([0; N_SECTIONS], [0; N_SECTIONS]));
    }

    #[test]
    fn sampling_rate_and_scaling_are_exact() {
        let n = 1 << 20;
        let timed = (0..n).filter(|&c| sampled(c)).count() as u64;
        assert!(timed.abs_diff(n / SAMPLE_EVERY) * 50 < n / SAMPLE_EVERY);
        assert_eq!(scale(1_000, 64, 1), 64_000);
        assert_eq!(scale(3_000, 640, 10), 192_000);
        assert_eq!(scale(5, 1, 0), 0);
        assert_eq!(scale(u64::MAX / 2, 4, 2), u64::MAX - 1); // no overflow
    }
}
