//! Machine-readable bench output: schema-stable JSON rows written next
//! to the text tables.
//!
//! Every table/figure/ablation report of `reproduce`, and each campaign
//! binary, assembles a [`BenchReport`] — a named list of flat JSON row
//! objects — and writes it to `<dir>/<name>.json`, where the binaries
//! pass [`results_dir`] (`bench_results/`, overridable via
//! `PROTEAN_BENCH_DIR`). The format is deliberately rigid so downstream
//! tooling can diff perf trajectories across commits:
//!
//! ```json
//! {"bench":"table_iv","schema":1,"rows":[
//!   {"suite":"spec","workload":"mcf","core":"P-core","defense":"STT",
//!    "norm":1.369,"cycles":123,"committed":456,
//!    "exec_blocked_cycles":7,"wakeup_blocked_cycles":0,
//!    "resolve_blocked_cycles":3},
//!   ...
//! ]}
//! ```
//!
//! Schema rules (checked by [`BenchReport::validate`]):
//!
//! * the top level is an object with exactly `bench` (string), `schema`
//!   (the integer [`SCHEMA_VERSION`]), and `rows` (array);
//! * every row is an object whose values are scalars (no nesting);
//! * every row has the same key sequence as the first row — column
//!   stability, so rows parse positionally as a table.
//!
//! Rendering goes through `protean_sim::json` (insertion-ordered keys,
//! deterministic float formatting), which — together with the
//! `protean-jobs` ordered merge — makes the files **byte-identical at
//! any `PROTEAN_JOBS` setting**.

use protean_sim::json::Json;
use std::path::{Path, PathBuf};

/// Version of the row schema. Bump when a field is renamed/removed (new
/// trailing fields are compatible: consumers match by key).
pub const SCHEMA_VERSION: u64 = 1;

/// The directory bench reports and campaign snapshots live in:
/// `$PROTEAN_BENCH_DIR`, defaulting to `bench_results/` under the
/// current directory.
pub fn results_dir() -> PathBuf {
    std::env::var_os("PROTEAN_BENCH_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("bench_results"))
}

/// An accumulating JSON report: one table, figure, ablation or campaign
/// summary.
#[derive(Clone, Debug)]
pub struct BenchReport {
    bench: String,
    rows: Vec<Json>,
}

impl BenchReport {
    /// Creates an empty report named `bench` (the output file is
    /// `<dir>/<bench>.json`).
    pub fn new(bench: &str) -> BenchReport {
        BenchReport {
            bench: bench.to_string(),
            rows: Vec::new(),
        }
    }

    /// Appends one row. Field order is preserved verbatim — every row
    /// of a report must use the same field sequence.
    pub fn row(&mut self, fields: Vec<(&str, Json)>) {
        self.rows.push(Json::obj(fields));
    }

    /// Number of rows so far.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the report has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The full report as a JSON value.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("bench", Json::str(self.bench.clone())),
            ("schema", Json::U64(SCHEMA_VERSION)),
            ("rows", Json::Arr(self.rows.clone())),
        ])
    }

    /// Renders the report (line-per-row pretty form; deterministic).
    pub fn render(&self) -> String {
        let mut s = self.to_json().render_pretty();
        s.push('\n');
        s
    }

    /// Validates a parsed report against the schema rules (see module
    /// docs). Returns a human-readable reason on failure.
    pub fn validate(json: &Json) -> Result<(), String> {
        let bench = json
            .get("bench")
            .ok_or("missing key: bench")?
            .as_str()
            .ok_or("bench is not a string")?;
        if bench.is_empty() {
            return Err("bench name is empty".into());
        }
        match json.get("schema") {
            Some(Json::U64(v)) if *v == SCHEMA_VERSION => {}
            Some(other) => return Err(format!("schema must be {SCHEMA_VERSION}, got {other:?}")),
            None => return Err("missing key: schema".into()),
        }
        let rows = json
            .get("rows")
            .ok_or("missing key: rows")?
            .as_arr()
            .ok_or("rows is not an array")?;
        let mut first_keys: Option<Vec<&str>> = None;
        for (i, row) in rows.iter().enumerate() {
            let Json::Obj(fields) = row else {
                return Err(format!("row {i} is not an object"));
            };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            for (k, v) in fields {
                if !v.is_scalar() {
                    return Err(format!("row {i} field {k} is not a scalar"));
                }
            }
            match &first_keys {
                None => first_keys = Some(keys),
                Some(expect) if *expect != keys => {
                    return Err(format!(
                        "row {i} keys {keys:?} differ from row 0 keys {expect:?}"
                    ));
                }
                Some(_) => {}
            }
        }
        Ok(())
    }

    /// Validates and writes the report to `<dir>/<bench>.json`
    /// (creating `dir`), returning the path written. The error names
    /// that path.
    ///
    /// # Panics
    ///
    /// Panics if the report violates its own schema — a bug in the bench
    /// binary, not an I/O condition.
    pub fn write(&self, dir: &Path) -> Result<PathBuf, String> {
        let json = self.to_json();
        if let Err(why) = Self::validate(&json) {
            panic!("bench {} produced an invalid report: {why}", self.bench);
        }
        let path = dir.join(format!("{}.json", self.bench));
        std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, self.render()))
            .map_err(|e| format!("could not write {}: {e}", path.display()))?;
        Ok(path)
    }

    /// Writes the report under `dir` and prints a one-line
    /// confirmation — the common tail call of every bench binary. On a
    /// write error it prints the error and exits with status 1.
    pub fn write_or_exit(&self, dir: &Path) {
        match self.write(dir) {
            Ok(path) => println!("\nwrote {} rows to {}", self.len(), path.display()),
            Err(why) => {
                eprintln!("{why}");
                std::process::exit(1);
            }
        }
    }
}

/// The standard measurement fields shared by every per-cell row:
/// normalized runtime, raw cycles, committed µops, the per-gate
/// defense cycle-attribution counters, and the scheduler occupancy
/// high-water marks (trailing fields — schema-compatible additions).
pub fn measure_fields(r: &crate::RunResult, norm: f64) -> Vec<(&'static str, Json)> {
    vec![
        ("norm", Json::F64(norm)),
        ("cycles", Json::U64(r.cycles)),
        ("committed", Json::U64(r.committed)),
        ("exec_blocked_cycles", Json::U64(r.exec_blocked_cycles)),
        ("wakeup_blocked_cycles", Json::U64(r.wakeup_blocked_cycles)),
        (
            "resolve_blocked_cycles",
            Json::U64(r.resolve_blocked_cycles),
        ),
        ("iq_hwm", Json::U64(r.iq_hwm)),
        ("wheel_hwm", Json::U64(r.wheel_hwm)),
    ]
}

/// Writes a `profile.json` report from the process-wide section
/// profiler totals. `timed_calls` is the sample behind each row's
/// (scaled) `nanos`; `gate_evals`/`gate_parks`/`gate_unparks` are the
/// exact defense-gate counts of the gate a section runs (zero
/// elsewhere). Call at the tail of a bench main, after the bench's
/// own report, with the same `dir`.
pub fn write_profile_report(dir: &Path) {
    let totals = protean_sim::profile::totals();
    let all: u64 = totals.iter().map(|t| t.nanos).sum();
    let mut rep = BenchReport::new("profile");
    for t in totals {
        let share = if all == 0 {
            0.0
        } else {
            t.nanos as f64 * 100.0 / all as f64
        };
        rep.row(vec![
            ("section", Json::str(t.section)),
            ("nanos", Json::U64(t.nanos)),
            ("calls", Json::U64(t.calls)),
            ("share_pct", Json::F64(share)),
            ("timed_calls", Json::U64(t.timed_calls)),
            ("gate_evals", Json::U64(t.gate_evals)),
            ("gate_parks", Json::U64(t.gate_parks)),
            ("gate_unparks", Json::U64(t.gate_unparks)),
        ]);
    }
    rep.write_or_exit(dir);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchReport {
        let mut rep = BenchReport::new("unit_test");
        rep.row(vec![
            ("workload", Json::str("a")),
            ("norm", Json::F64(1.25)),
            ("cycles", Json::U64(100)),
        ]);
        rep.row(vec![
            ("workload", Json::str("b")),
            ("norm", Json::F64(2.0)),
            ("cycles", Json::U64(200)),
        ]);
        rep
    }

    #[test]
    fn report_roundtrips_and_validates() {
        let rep = sample();
        let rendered = rep.render();
        let parsed = Json::parse(&rendered).expect("parses");
        BenchReport::validate(&parsed).expect("valid");
        assert_eq!(
            parsed.get("bench").and_then(|b| b.as_str()),
            Some("unit_test")
        );
        assert_eq!(
            parsed.get("rows").and_then(|r| r.as_arr()).map(|r| r.len()),
            Some(2)
        );
    }

    #[test]
    fn validate_rejects_mismatched_keys() {
        let mut rep = sample();
        rep.row(vec![("different", Json::U64(1))]);
        let err = BenchReport::validate(&rep.to_json()).unwrap_err();
        assert!(err.contains("differ from row 0"), "{err}");
    }

    #[test]
    fn validate_rejects_nested_values() {
        let mut rep = BenchReport::new("x");
        rep.row(vec![("nested", Json::Arr(vec![Json::U64(1)]))]);
        let err = BenchReport::validate(&rep.to_json()).unwrap_err();
        assert!(err.contains("not a scalar"), "{err}");
    }

    #[test]
    fn validate_rejects_wrong_schema_version() {
        let bad = Json::obj([
            ("bench", Json::str("x")),
            ("schema", Json::U64(SCHEMA_VERSION + 1)),
            ("rows", Json::Arr(Vec::new())),
        ]);
        assert!(BenchReport::validate(&bad).is_err());
    }

    #[test]
    fn write_error_names_the_path() {
        // A directory "under" a regular file cannot be created.
        let file = std::env::temp_dir().join(format!("protean-report-{}", std::process::id()));
        std::fs::write(&file, "not a directory").expect("temp file");
        let dir = file.join("reports");
        let err = sample().write(&dir).unwrap_err();
        std::fs::remove_file(&file).expect("remove temp file");
        let path = dir.join("unit_test.json");
        assert!(err.contains(&path.display().to_string()), "{err}");
    }

    #[test]
    fn write_creates_the_directory() {
        let root = std::env::temp_dir().join(format!("protean-report-ok-{}", std::process::id()));
        let path = sample().write(&root.join("nested")).expect("writes");
        assert_eq!(
            std::fs::read_to_string(&path).expect("reads"),
            sample().render()
        );
        std::fs::remove_dir_all(&root).expect("remove temp dir");
    }

    #[test]
    fn rendering_is_deterministic() {
        assert_eq!(sample().render(), sample().render());
    }
}
