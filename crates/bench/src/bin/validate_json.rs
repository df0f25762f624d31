//! `validate_json`: check bench JSON reports against the schema.
//!
//! Validates every file named on the command line — or, with no
//! arguments, every `*.json` under `$PROTEAN_BENCH_DIR` (default
//! `bench_results/`) — against the [`protean_bench::report`] schema.
//! Exits non-zero if any file is missing, unparsable, or out of schema;
//! CI runs this after the bench smoke run.
//!
//! ```text
//! cargo run --release -p protean-bench --bin validate_json [files...]
//! ```

use protean_bench::report::{results_dir, BenchReport};
use protean_sim::json::Json;
use std::path::PathBuf;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let paths: Vec<PathBuf> = if args.is_empty() {
        let dir = results_dir();
        let entries = std::fs::read_dir(&dir).unwrap_or_else(|e| {
            eprintln!("error: cannot read {}: {e}", dir.display());
            std::process::exit(2)
        });
        let mut paths: Vec<PathBuf> = entries
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        paths.sort();
        paths
    } else {
        args.into_iter().map(PathBuf::from).collect()
    };
    if paths.is_empty() {
        eprintln!("error: no JSON reports to validate");
        std::process::exit(2);
    }

    let mut failed = false;
    for path in &paths {
        let verdict = std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| Json::parse(&text))
            .and_then(|json| {
                BenchReport::validate(&json)?;
                let rows = json
                    .get("rows")
                    .and_then(|r| r.as_arr())
                    .map_or(0, |r| r.len());
                Ok(rows)
            });
        match verdict {
            Ok(rows) => println!("ok   {} ({rows} rows)", path.display()),
            Err(why) => {
                println!("FAIL {}: {why}", path.display());
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
