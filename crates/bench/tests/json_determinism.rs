//! The JSON bench reports are part of the regression workflow: a report
//! produced by a parallel sweep must be byte-identical to one produced
//! serially, or diffing two `bench_results/` directories becomes
//! meaningless. This test renders one real report of the reproduction
//! from its cell table at 1 and 4 workers and compares the bytes.

use protean_bench::report::BenchReport;
use protean_bench::reproduce::{self, Roster};
use protean_sim::json::Json;
use protean_workloads::Scale;

/// The `--quick` §IX-A2 report (12 distinct cells), text and JSON.
fn render(roster: &Roster, workers: usize) -> (String, String) {
    let (rendered, counts) = reproduce::render(roster, &[reproduce::ablation_protcc], workers);
    assert_eq!((counts.requested, counts.simulated), (18, 12));
    let r = rendered.into_iter().next().expect("one report");
    (r.text, r.report.render())
}

#[test]
fn report_bytes_identical_across_worker_counts() {
    let roster = Roster::new(true, Scale(1));
    let serial = render(&roster, 1);
    let parallel = render(&roster, 4);
    assert_eq!(serial, parallel, "worker count leaked into the report");

    // And the report both parses and satisfies its own schema.
    let json = Json::parse(&serial.1).expect("report parses as JSON");
    BenchReport::validate(&json).expect("report satisfies the schema");
    let rows = json.get("rows").and_then(|r| r.as_arr()).expect("rows");
    assert_eq!(rows.len(), 9, "one row per (pass × workload) cell");
}
