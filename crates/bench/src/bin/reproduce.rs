//! Reproduces every results table, figure and ablation of the paper —
//! Tab. I, II, IV, V, Fig. 5, 6 and §IX-A2…A7 — simulating each
//! distinct cell once (see `protean_bench::reproduce`). Prints each
//! report's text table, writes its JSON to
//! `$PROTEAN_BENCH_DIR/<report>.json` (default `bench_results/`) with
//! the whole reproduction's section profile next to them in
//! `profile.json`, and ends with the simulated and requested cell
//! counts.
//!
//! Exits with status 1 if a report cannot be written.
//!
//! ```text
//! cargo run --release -p protean-bench --bin reproduce [--quick] [--scale N]
//! ```

use protean_bench::report::{results_dir, write_profile_report};
use protean_bench::reproduce::{self, Roster};
use protean_workloads::Scale;

fn main() {
    let (quick, scale) = protean_bench::parse_flags();
    let roster = Roster::new(quick, Scale(scale));
    let (reports, counts) = reproduce::all(&roster, protean_jobs::worker_count());
    let dir = results_dir();
    for r in &reports {
        print!("{}", r.text);
        r.report.write_or_exit(&dir);
    }
    write_profile_report(&dir);
    println!(
        "\nsimulated {} distinct cells for {} requested",
        counts.simulated, counts.requested
    );
}
