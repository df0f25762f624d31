//! Hand-rolled wall-time section profiler for the pipeline's phases.
//!
//! Enabled by `PROTEAN_PROFILE=1` (`0` or unset is off; any other value
//! is refused); same pure-observer discipline as the tracer
//! (`crate::trace`): the profiler never feeds back into simulation, and
//! with it off the entire cost is one cached boolean branch per tick —
//! no `Instant` reads, no atomics.
//!
//! When on, each [`crate::pipeline::Core`] accumulates per-phase wall
//! time and call counts in a thread-local [`SectionTimes`] and flushes
//! into process-wide atomics at the end of every run ([`flush`]), so a
//! whole campaign (including parallel workers) folds into one table.
//! Bench binaries read [`totals`] and emit a schema-checked JSON
//! breakdown through `protean_sim::json` — the data behind the "which
//! phase paid for the speedup" tables in EXPERIMENTS.md.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// The profiled pipeline phases, in tick order. `Execute` is carved out
/// of the issue stage (the execution units proper); `Issue` is the
/// scheduling/gating remainder. `FastForward` is the idle-cycle jump
/// machinery outside `tick`.
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
    /// Issue-window scheduling and defense gating, minus execution.
    Issue = 4,
    /// Execution units (`execute_uop` and its load/store legs).
    Execute = 5,
    /// Rename/dispatch.
    Rename = 6,
    /// Fetch and branch prediction.
    Fetch = 7,
    /// Idle-cycle fast-forward (bulk blocked-cycle attribution).
    FastForward = 8,
    /// Cache tag probes and fills (`Cache::access` walks for timing),
    /// carved out of the stages that perform them (issue/commit/fetch).
    CacheAccess = 9,
    /// L1D metadata word ops (`meta_any`/`meta_all`/`meta_set`), carved
    /// out of the issue/commit stages.
    CacheMeta = 10,
    /// Branch-predictor work (TAGE predict/update/speculate/restore,
    /// BTB, RSB), carved out of the fetch/resolve/commit stages.
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

/// Whether profiling is enabled (`PROTEAN_PROFILE`, read once).
///
/// # Panics
///
/// Panics if `PROTEAN_PROFILE` is set to anything but `0` or `1` — a
/// value like `off` silently turning profiling *on* would skew every
/// wall-clock number of the run.
pub fn enabled() -> bool {
    static ON: OnceLock<bool> = OnceLock::new();
    *ON.get_or_init(|| {
        let raw = std::env::var_os("PROTEAN_PROFILE").map(|v| v.to_string_lossy().into_owned());
        parse_enabled(raw.as_deref()).unwrap_or_else(|why| panic!("{why}"))
    })
}

/// Parses a `PROTEAN_PROFILE` value (`None` = unset): unset or `0` is
/// off, `1` is on, surrounding whitespace is ignored, and anything else
/// is an error naming the variable.
fn parse_enabled(raw: Option<&str>) -> Result<bool, String> {
    match raw.map(str::trim) {
        None | Some("0") => Ok(false),
        Some("1") => Ok(true),
        Some(other) => Err(format!("PROTEAN_PROFILE={other} is not 0 or 1")),
    }
}

/// Per-core accumulator: nanoseconds and entry counts per section.
#[derive(Clone, Debug, Default)]
pub struct SectionTimes {
    nanos: [u64; N_SECTIONS],
    calls: [u64; N_SECTIONS],
}

impl SectionTimes {
    /// Charges the time since `t` to `s`; returns a fresh timestamp for
    /// the next section (one `Instant::now` per boundary).
    pub fn lap(&mut self, t: Instant, s: Section) -> Instant {
        let now = Instant::now();
        self.nanos[s as usize] += (now - t).as_nanos() as u64;
        self.calls[s as usize] += 1;
        now
    }

    /// As [`SectionTimes::lap`], minus `sub_nanos` already charged
    /// elsewhere (the issue stage subtracts the execution time its
    /// `execute_uop` calls booked to [`Section::Execute`]).
    pub fn lap_minus(&mut self, t: Instant, s: Section, sub_nanos: u64) -> Instant {
        let now = Instant::now();
        let span = (now - t).as_nanos() as u64;
        self.nanos[s as usize] += span.saturating_sub(sub_nanos);
        self.calls[s as usize] += 1;
        now
    }

    /// Charges an already-measured duration to `s`.
    pub fn add(&mut self, s: Section, d: Duration) {
        self.nanos[s as usize] += d.as_nanos() as u64;
        self.calls[s as usize] += 1;
    }

    /// As [`SectionTimes::add`], minus `sub_nanos` already charged
    /// elsewhere — the stage-level counterpart of
    /// [`SectionTimes::lap_minus`] for spans measured with an explicit
    /// duration (e.g. `Execute` deducting the component-model time its
    /// cache walks booked to [`Section::CacheAccess`]). Keeps sections
    /// disjoint so share-of-total stays meaningful.
    pub fn add_minus(&mut self, s: Section, d: Duration, sub_nanos: u64) {
        self.nanos[s as usize] += (d.as_nanos() as u64).saturating_sub(sub_nanos);
        self.calls[s as usize] += 1;
    }

    /// Nanoseconds accumulated for `s` so far.
    pub fn nanos_of(&self, s: Section) -> u64 {
        self.nanos[s as usize]
    }
}

static TOTAL_NANOS: [AtomicU64; N_SECTIONS] = [const { AtomicU64::new(0) }; N_SECTIONS];
static TOTAL_CALLS: [AtomicU64; N_SECTIONS] = [const { AtomicU64::new(0) }; N_SECTIONS];

/// Folds a core's accumulator into the process-wide totals and zeroes
/// it. Called at the end of every run; cheap relative to a run (one
/// relaxed RMW per section).
pub fn flush(local: &mut SectionTimes) {
    for i in 0..N_SECTIONS {
        if local.nanos[i] != 0 {
            TOTAL_NANOS[i].fetch_add(local.nanos[i], Ordering::Relaxed);
        }
        if local.calls[i] != 0 {
            TOTAL_CALLS[i].fetch_add(local.calls[i], Ordering::Relaxed);
        }
    }
    *local = SectionTimes::default();
}

/// Process-wide totals: `(section name, nanoseconds, calls)` per
/// section, in tick order.
pub fn totals() -> Vec<(&'static str, u64, u64)> {
    (0..N_SECTIONS)
        .map(|i| {
            (
                NAMES[i],
                TOTAL_NANOS[i].load(Ordering::Relaxed),
                TOTAL_CALLS[i].load(Ordering::Relaxed),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_switch_accepts_only_0_and_1() {
        assert_eq!(parse_enabled(None), Ok(false));
        assert_eq!(parse_enabled(Some("0")), Ok(false));
        assert_eq!(parse_enabled(Some("1")), Ok(true));
        assert_eq!(parse_enabled(Some(" 1\n")), Ok(true));
        for bad in ["", "false", "off", "true", "on", "2", "01"] {
            let err = parse_enabled(Some(bad)).unwrap_err();
            assert!(err.contains("PROTEAN_PROFILE"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn laps_accumulate_and_flush_folds() {
        let mut st = SectionTimes::default();
        let t = Instant::now();
        let t = st.lap(t, Section::Wakeup);
        st.lap_minus(t, Section::Issue, u64::MAX); // saturates to 0
        st.add(Section::Execute, Duration::from_nanos(42));
        assert_eq!(st.nanos_of(Section::Execute), 42);
        assert_eq!(st.nanos_of(Section::Issue), 0);
        assert_eq!(st.calls[Section::Issue as usize], 1);
        let before = totals();
        flush(&mut st);
        assert_eq!(st.nanos_of(Section::Execute), 0);
        let after = totals();
        let i = Section::Execute as usize;
        assert_eq!(after[i].1 - before[i].1, 42);
        assert!(after[i].2 > before[i].2);
        assert_eq!(after[i].0, "execute");
    }
}
