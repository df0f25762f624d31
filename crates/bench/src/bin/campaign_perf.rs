//! `campaign_perf`: AMuLeT\* campaign-throughput benchmark (record-only).
//!
//! Times whole fuzzing campaigns — program generation, ProtCC
//! instrumentation, sequential contract traces, and defended hardware
//! runs — and reports **campaign runs per wall-second** (µarch
//! executions compared, `Report::tests`) and **committed-µop
//! throughput**. Contract-testing coverage is bounded by exactly this
//! number, so it is the headline metric for the allocation-free hot
//! paths (COW memory, `Core::reset` arenas).
//!
//! ```text
//! cargo run --release -p protean-bench --bin campaign_perf [--quick]
//! ```
//!
//! Two JSON files are written:
//!
//! * `campaign_perf.json` — wall-clock rows (machine-dependent, exempt
//!   from the byte-identical contract like `perf_smoke`);
//! * `campaign_perf_report.json` — the deterministic campaign counters
//!   only (tests / rejected pairs / violations / false positives /
//!   committed µops). This file **is** byte-identical at any
//!   `PROTEAN_JOBS` setting; `ci.sh` diffs it across worker counts.
//!
//! `PROTEAN_BENCH_SAMPLES` / `PROTEAN_BENCH_WARMUP` override the
//! default 3 samples / 1 warmup.

use protean_amulet::{fuzz, Adversary, ContractKind, FuzzConfig, Report};
use protean_bench::harness::Bench;
use protean_bench::report::BenchReport;
use protean_cc::Pass;
use protean_core::{ProtDelayPolicy, ProtTrackPolicy};
use protean_sim::json::Json;
use protean_sim::{DefensePolicy, UnsafePolicy};

/// One benchmark case: a named campaign configuration plus the defense
/// under test.
struct Case {
    name: &'static str,
    cfg: FuzzConfig,
    factory: &'static (dyn Fn() -> Box<dyn DefensePolicy> + Sync),
}

fn cases(programs: usize) -> Vec<Case> {
    let build = |pass, contract, adversary| {
        let mut cfg = FuzzConfig::quick(pass, contract, adversary);
        cfg.programs = programs;
        cfg.inputs_per_program = 3;
        cfg.gen.seed = 0xbead;
        // Timing benchmark: skip the rendered-trace re-runs for example
        // violations. Every deterministic report counter is unaffected.
        cfg.capture_traces = false;
        cfg
    };
    vec![
        Case {
            name: "unsafe/arch/cache",
            cfg: build(Pass::Arch, ContractKind::ArchSeq, Adversary::CacheTlb),
            factory: &|| Box::new(UnsafePolicy),
        },
        Case {
            name: "protdelay/ct/cache",
            cfg: build(Pass::Ct, ContractKind::CtSeq, Adversary::CacheTlb),
            factory: &|| Box::new(ProtDelayPolicy::new()),
        },
        Case {
            name: "prottrack/unprot/timing",
            cfg: build(
                Pass::Rand { prob: 0.5, seed: 7 },
                ContractKind::UnprotSeq,
                Adversary::Timing,
            ),
            factory: &|| Box::new(ProtTrackPolicy::new()),
        },
    ]
}

fn main() {
    let (quick, _) = protean_bench::parse_flags();
    let programs = if quick { 6 } else { 16 };

    println!("campaign_perf: AMuLeT* campaign throughput (record-only)");
    println!("========================================================\n");

    let bench = Bench::new("campaign_perf").samples(3).warmup(1);
    let mut timing_rep = BenchReport::new("campaign_perf");
    let mut det_rep = BenchReport::new("campaign_perf_report");

    for case in cases(programs) {
        // One untimed run pins the deterministic counters; the timed
        // samples below re-run the identical campaign.
        let report: Report = fuzz(&case.cfg, case.factory);
        let stats = bench.run(case.name, || fuzz(&case.cfg, case.factory));
        let secs = stats.median.as_secs_f64();
        let runs_per_s = report.tests as f64 / secs;
        let kuops_per_s = report.committed_uops as f64 / secs / 1e3;
        println!(
            "  {:<24} {:>5} tests {:>9} µops  {:>8.1} runs/s  {:>9.1} kuops/s\n",
            case.name, report.tests, report.committed_uops, runs_per_s, kuops_per_s
        );
        timing_rep.row(vec![
            ("case", Json::str(case.name)),
            ("programs", Json::U64(programs as u64)),
            ("tests", Json::U64(report.tests)),
            ("committed_uops", Json::U64(report.committed_uops)),
            ("wall_ms_median", Json::F64(secs * 1e3)),
            ("runs_per_s", Json::F64(runs_per_s)),
            ("kuops_per_s", Json::F64(kuops_per_s)),
        ]);
        det_rep.row(vec![
            ("case", Json::str(case.name)),
            ("programs", Json::U64(programs as u64)),
            ("tests", Json::U64(report.tests)),
            ("pairs_rejected", Json::U64(report.pairs_rejected)),
            ("violations", Json::U64(report.violations)),
            ("false_positives", Json::U64(report.false_positives)),
            ("committed_uops", Json::U64(report.committed_uops)),
            ("hw_truncated", Json::U64(report.hw_truncated)),
            ("no_partner", Json::U64(report.no_partner)),
        ]);
    }

    timing_rep.write_and_announce();
    det_rep.write_and_announce();
    protean_bench::report::write_profile_report_if_enabled();
}
