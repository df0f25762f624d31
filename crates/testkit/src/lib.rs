//! A minimal, dependency-free property-testing harness.
//!
//! Replaces the workspace's former `proptest` dev-dependency with the
//! three features the test suite actually relies on, built on the
//! in-tree deterministic [`Rng`]:
//!
//! * **seeded case generation** — every case derives from a campaign
//!   seed through SplitMix64, so a failing run is reproducible from one
//!   number;
//! * **failure-seed reporting** — a failing case panics with its case
//!   seed and the generated input's `Debug` form;
//! * **regression-seed replay** — failing seeds get pinned with
//!   [`Checker::regression`] and re-run first on every future run,
//!   replacing proptest's `.proptest-regressions` sidecar files with
//!   explicit, reviewable code.
//!
//! There is no shrinking: generators here are small and structured, and
//! a pinned seed replays the exact failing input, which has proven
//! enough to debug this codebase. What the harness buys instead is
//! *zero external dependencies* and bit-stable streams across runs and
//! hosts.
//!
//! # Example
//!
//! ```
//! use protean_testkit::Checker;
//!
//! Checker::new("addition_commutes")
//!     .cases(64)
//!     .regression(0xdead_beef) // a previously failing case seed
//!     .run(
//!         |rng| (rng.gen::<u32>(), rng.gen::<u32>()),
//!         |&(a, b)| {
//!             assert_eq!(a.wrapping_add(b), b.wrapping_add(a));
//!         },
//!     );
//! ```
//!
//! To replay one specific case from a failure report, either pin it
//! with [`Checker::regression`] or run the test under
//! `PROTEAN_CHECK_REPLAY=<case seed>` (which runs only that case).

#![warn(missing_docs)]

use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};

pub use protean_rng::{Rng, SplitMix64};

/// Default number of generated cases per property (matching proptest's
/// historical default, so coverage does not regress).
pub const DEFAULT_CASES: u32 = 256;

/// Default campaign seed. Changing it is a conscious act: recorded
/// regression seeds stay valid (they replay verbatim), but the novel
/// case stream moves.
pub const DEFAULT_SEED: u64 = 0x70e4_6a11_5eed_0001;

/// A property checker: a named campaign of seeded random cases.
///
/// See the [crate docs](crate) for the model and an example.
#[derive(Clone, Debug)]
pub struct Checker {
    name: &'static str,
    cases: u32,
    seed: u64,
    regressions: Vec<u64>,
}

impl Checker {
    /// Creates a checker for the property `name` (used in failure
    /// reports; conventionally the test function's name).
    ///
    /// The environment overrides `PROTEAN_CHECK_CASES` and
    /// `PROTEAN_CHECK_SEED` take precedence over [`Checker::cases`] and
    /// [`Checker::seed`] — they exist to replay a reported failure or
    /// to crank case counts in CI without editing code.
    pub fn new(name: &'static str) -> Checker {
        Checker {
            name,
            cases: env_u64("PROTEAN_CHECK_CASES").map_or(DEFAULT_CASES, |n| n as u32),
            seed: env_u64("PROTEAN_CHECK_SEED").unwrap_or(DEFAULT_SEED),
            regressions: Vec::new(),
        }
    }

    /// Sets the number of novel cases (unless overridden by
    /// `PROTEAN_CHECK_CASES`).
    pub fn cases(mut self, cases: u32) -> Checker {
        if std::env::var_os("PROTEAN_CHECK_CASES").is_none() {
            self.cases = cases;
        }
        self
    }

    /// Sets the campaign seed (unless overridden by
    /// `PROTEAN_CHECK_SEED`).
    pub fn seed(mut self, seed: u64) -> Checker {
        if std::env::var_os("PROTEAN_CHECK_SEED").is_none() {
            self.seed = seed;
        }
        self
    }

    /// Pins a case seed from a past failure. Regression seeds replay
    /// before any novel case, on every run — the in-code replacement
    /// for proptest's `.proptest-regressions` files.
    pub fn regression(mut self, seed: u64) -> Checker {
        self.regressions.push(seed);
        self
    }

    /// Runs the property: `gen` builds an input from a seeded [`Rng`],
    /// `prop` asserts about it (panicking on violation, e.g. via
    /// `assert!`).
    ///
    /// # Panics
    ///
    /// Panics on the first failing case, reporting the property name,
    /// the case seed, and the generated input.
    pub fn run<T: Debug>(&self, gen: impl Fn(&mut Rng) -> T, prop: impl Fn(&T)) {
        self.run_inner(&gen, |value, _| prop(value));
    }

    fn run_inner<T: Debug>(&self, gen: &impl Fn(&mut Rng) -> T, prop: impl Fn(&T, &mut Rng)) {
        if let Some(seed) = env_u64("PROTEAN_CHECK_REPLAY") {
            self.run_case(seed, gen, &prop, CaseKind::Replay);
            return;
        }
        for (i, seed) in self.regressions.iter().enumerate() {
            self.run_case(*seed, gen, &prop, CaseKind::Regression(i));
        }
        let mut case_seeds = SplitMix64::new(self.seed);
        for i in 0..self.cases {
            self.run_case(case_seeds.next_u64(), gen, &prop, CaseKind::Novel(i));
        }
    }

    fn run_case<T: Debug>(
        &self,
        case_seed: u64,
        gen: &impl Fn(&mut Rng) -> T,
        prop: &impl Fn(&T, &mut Rng),
        kind: CaseKind,
    ) {
        let mut rng = Rng::seed_from_u64(case_seed);
        let value = gen(&mut rng);
        // An independent stream for the property itself, so adding
        // draws to `prop` never perturbs input generation.
        let mut prop_rng = Rng::seed_from_u64(case_seed ^ 0x9e37_79b9_7f4a_7c15);
        let outcome = catch_unwind(AssertUnwindSafe(|| prop(&value, &mut prop_rng)));
        if let Err(payload) = outcome {
            let msg = panic_message(&*payload);
            panic!(
                "property `{}` failed on {} (case seed {:#018x})\n\
                 input: {:?}\n\
                 cause: {}\n\
                 replay: pin with `.regression({:#018x})` or run with \
                 PROTEAN_CHECK_REPLAY={:#x}",
                self.name, kind, case_seed, value, msg, case_seed, case_seed,
            );
        }
    }
}

enum CaseKind {
    Regression(usize),
    Novel(u32),
    Replay,
}

impl std::fmt::Display for CaseKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CaseKind::Regression(i) => write!(f, "pinned regression #{i}"),
            CaseKind::Novel(i) => write!(f, "novel case #{i}"),
            CaseKind::Replay => write!(f, "PROTEAN_CHECK_REPLAY case"),
        }
    }
}

fn env_u64(var: &str) -> Option<u64> {
    let raw = std::env::var(var).ok()?;
    let raw = raw.trim();
    let parsed = if let Some(hex) = raw.strip_prefix("0x") {
        u64::from_str_radix(hex, 16)
    } else {
        raw.parse()
    };
    Some(parsed.unwrap_or_else(|_| panic!("{var}={raw} is not a u64")))
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let mut count = 0u32;
        let counter = std::cell::Cell::new(0u32);
        Checker::new("counts").cases(17).seed(1).run(
            |rng| rng.gen::<u64>(),
            |_| {
                counter.set(counter.get() + 1);
            },
        );
        count += counter.get();
        assert_eq!(count, 17);
    }

    #[test]
    fn failing_property_reports_seed_and_input() {
        let result = catch_unwind(|| {
            Checker::new("fails").cases(8).seed(2).run(
                |rng| rng.gen_range(0..100u64),
                |v| assert!(*v > 100, "impossible"),
            );
        });
        let msg = panic_message(&*result.unwrap_err());
        assert!(msg.contains("property `fails` failed"), "got: {msg}");
        assert!(msg.contains("case seed 0x"), "got: {msg}");
        assert!(msg.contains("input: "), "got: {msg}");
    }

    #[test]
    fn regression_seeds_run_first_and_replay_exactly() {
        let seen = std::cell::RefCell::new(Vec::new());
        Checker::new("replay")
            .cases(0)
            .regression(42)
            .regression(43)
            .run(|rng| rng.gen::<u64>(), |v| seen.borrow_mut().push(*v));
        let direct: Vec<u64> = [42u64, 43]
            .iter()
            .map(|s| Rng::seed_from_u64(*s).gen::<u64>())
            .collect();
        assert_eq!(*seen.borrow(), direct);
    }

    #[test]
    fn deterministic_across_runs() {
        let collect = || {
            let seen = std::cell::RefCell::new(Vec::new());
            Checker::new("det")
                .cases(16)
                .seed(7)
                .run(|rng| rng.gen::<u64>(), |v| seen.borrow_mut().push(*v));
            seen.into_inner()
        };
        assert_eq!(collect(), collect());
    }
}
