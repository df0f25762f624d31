//! The correctness gate: every attempt of a unit must reproduce its
//! pinned digests (where pinned for this seed), the run's first outcome
//! for that unit (so traced = untraced), and the set-up reference; every
//! simulation must halt; and on `campaign` the paper's security result
//! must hold. A mismatch, a panic or a non-halting run fails the
//! attempt.

use crate::unit::{Column, Outcome, UnitInfo};
use std::collections::BTreeMap;

/// Pinned digests, one per line: `workload seed unit kind hex`, where
/// `seed` is `*` for workloads whose units do not depend on the seed
/// and `kind` is `out` (the unit's digest) or `stats` (its `Stats`
/// digest).
#[derive(Default)]
pub struct Pins(BTreeMap<String, u64>);

impl Pins {
    pub fn parse(text: &str) -> Result<Pins, String> {
        let mut pins = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            let [workload, seed, unit, kind, hex] = fields[..] else {
                return Err(format!("pins line {}: expected 5 fields", n + 1));
            };
            let value =
                u64::from_str_radix(hex, 16).map_err(|e| format!("pins line {}: {e}", n + 1))?;
            pins.insert(key(workload, seed, unit, kind), value);
        }
        Ok(Pins(pins))
    }

    pub fn get(&self, workload: &str, seed: &str, unit: &str, kind: &str) -> Option<u64> {
        self.0.get(&key(workload, seed, unit, kind)).copied()
    }
}

fn key(workload: &str, seed: &str, unit: &str, kind: &str) -> String {
    format!("{workload} {seed} {unit} {kind}")
}

/// One attempt of a unit: its outcome, or `None` when it panicked.
pub type Attempt = (usize, Option<Outcome>);

/// Tallies attempts and failures over a run.
pub struct Checker<'a> {
    pins: &'a Pins,
    workload: &'a str,
    /// The pin seed field: `*`, or the run's seed on seed-dependent
    /// workloads.
    seed: String,
    security: bool,
    first: Vec<Option<Outcome>>,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure reasons, for the report.
    pub reasons: Vec<String>,
}

impl<'a> Checker<'a> {
    pub fn new(
        pins: &'a Pins,
        workload: &'a str,
        seed: Option<u64>,
        security: bool,
        references: Vec<Option<Outcome>>,
    ) -> Checker<'a> {
        Checker {
            pins,
            workload,
            seed: seed.map_or_else(|| "*".to_string(), |s| s.to_string()),
            security,
            first: references,
            attempted: 0,
            failed: 0,
            reasons: Vec::new(),
        }
    }

    /// Checks one pass's attempts; the security result is judged over
    /// the whole pass.
    pub fn pass(&mut self, units: &[UnitInfo], attempts: &[Attempt]) {
        let unsafe_violations: u64 = attempts
            .iter()
            .filter(|(u, _)| units[*u].column == Column::Unsafe)
            .filter_map(|(_, o)| o.map(|o| o.violations))
            .sum();
        for &(u, outcome) in attempts {
            self.attempted += 1;
            if let Err(why) = self.judge(&units[u], u, outcome, unsafe_violations) {
                self.failed += 1;
                if self.reasons.len() < 8 {
                    self.reasons.push(format!("{}: {why}", units[u].name));
                }
            }
        }
    }

    fn judge(
        &mut self,
        info: &UnitInfo,
        u: usize,
        outcome: Option<Outcome>,
        unsafe_violations: u64,
    ) -> Result<(), String> {
        let o = outcome.ok_or("panicked")?;
        if !o.halted {
            return Err("a simulation did not halt".into());
        }
        let pin = |kind| self.pins.get(self.workload, &self.seed, &info.name, kind);
        if pin("out").is_some_and(|p| p != o.digest) {
            return Err(format!(
                "output digest {:016x} differs from its pin",
                o.digest
            ));
        }
        if let (Some(p), Some(s)) = (pin("stats"), o.stats_digest) {
            if p != s {
                return Err(format!("stats digest {s:016x} differs from its pin"));
            }
        }
        match &mut self.first[u] {
            slot @ None => *slot = Some(o),
            Some(first) => {
                if first.digest != o.digest {
                    return Err("output differs from the run's first outcome".into());
                }
                match (first.stats_digest, o.stats_digest) {
                    (Some(a), Some(b)) if a != b => {
                        return Err("stats differ from the run's first outcome".into())
                    }
                    (None, Some(_)) => first.stats_digest = o.stats_digest,
                    _ => {}
                }
            }
        }
        if self.security {
            if info.column.is_protean() && o.violations > 0 {
                return Err(format!("{} true positives under Protean", o.violations));
            }
            if info.column == Column::Unsafe && unsafe_violations == 0 {
                return Err("the unsafe core leaked nothing".into());
            }
        }
        Ok(())
    }

    /// The first outcome seen for each unit.
    pub fn outcomes(&self) -> &[Option<Outcome>] {
        &self.first
    }

    /// Failed attempts ÷ attempts.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::tiny_paper_cells;
    use crate::unit::Workload;

    /// The tiny row's units and the outcome of its first cell.
    fn tiny_unit() -> (Vec<UnitInfo>, Outcome) {
        let mut bench = tiny_paper_cells();
        let outcome = bench.run(0);
        (bench.units().to_vec(), outcome)
    }

    #[test]
    fn pins_parse_and_reject_malformed_lines() {
        let pins = Pins::parse("# comment\nsim_long * E-core/k/Unsafe out 00ff\n").expect("ok");
        assert_eq!(
            pins.get("sim_long", "*", "E-core/k/Unsafe", "out"),
            Some(0xff)
        );
        assert_eq!(pins.get("sim_long", "7", "E-core/k/Unsafe", "out"), None);
        assert!(Pins::parse("sim_long * unit out").is_err());
        assert!(Pins::parse("sim_long * unit out xyz").is_err());
    }

    #[test]
    fn perturbed_pin_makes_failed_share_nonzero() {
        let (units, outcome) = tiny_unit();
        let line = |digest: u64| format!("paper_cells * {} out {digest:016x}\n", units[0].name);
        let attempts = [(0, Some(outcome)), (0, Some(outcome))];

        let good = Pins::parse(&line(outcome.digest)).expect("pins");
        let mut checker = Checker::new(&good, "paper_cells", None, false, vec![None]);
        checker.pass(&units, &attempts);
        assert_eq!((checker.attempted, checker.failed), (2, 0));
        assert_eq!(checker.failed_share(), 0.0);

        let bad = Pins::parse(&line(outcome.digest ^ 1)).expect("pins");
        let mut checker = Checker::new(&bad, "paper_cells", None, false, vec![None]);
        checker.pass(&units, &attempts);
        assert_eq!((checker.attempted, checker.failed), (2, 2));
        assert_eq!(checker.failed_share(), 1.0);
    }

    #[test]
    fn later_attempts_must_match_the_first_and_panics_fail() {
        let (units, outcome) = tiny_unit();
        let pins = Pins::default();
        let moved = Outcome {
            digest: outcome.digest ^ 1,
            ..outcome
        };
        let mut checker = Checker::new(&pins, "paper_cells", None, false, vec![None]);
        checker.pass(&units, &[(0, Some(outcome)), (0, Some(moved)), (0, None)]);
        assert_eq!((checker.attempted, checker.failed), (3, 2));
    }

    #[test]
    fn security_result_is_enforced_per_pass() {
        let unit = |column| UnitInfo {
            name: format!("{column:?}"),
            group: 0,
            column,
        };
        let units = [unit(Column::Unsafe), unit(Column::ProtTrack)];
        let with = |violations| Outcome {
            violations,
            halted: true,
            ..Outcome::default()
        };
        let pins = Pins::default();
        let run = |unsafe_v, track_v| {
            let mut c = Checker::new(&pins, "campaign", Some(1), true, vec![None, None]);
            c.pass(
                &units,
                &[(0, Some(with(unsafe_v))), (1, Some(with(track_v)))],
            );
            c.failed
        };
        assert_eq!(run(3, 0), 0);
        assert_eq!(run(0, 0), 1, "an unsafe core that leaks nothing fails");
        assert_eq!(run(3, 1), 1, "a Protean true positive fails");
    }
}
