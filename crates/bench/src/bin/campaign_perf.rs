//! `campaign_perf`: deterministic AMuLeT\* campaign report.
//!
//! Runs three fixed campaigns — unsafe baseline, ProtDelay, and
//! ProtTrack — once each and writes their counters (tests / rejected
//! pairs / violations / false positives / committed µops / truncated
//! and partnerless runs) to `campaign_perf_report.json`. The file holds
//! no wall-clock numbers, so it is byte-identical at any `PROTEAN_JOBS`
//! setting; `ci.sh` diffs it across worker counts. The section
//! profiler's breakdown of the same runs goes to `profile.json`.
//! Campaign throughput is measured by the repository benchmark
//! (`perfbench`, workload `campaign`), not here.
//!
//! ```text
//! cargo run --release -p protean-bench --bin campaign_perf [--quick]
//! ```

use protean_amulet::{fuzz, Adversary, ContractKind, FuzzConfig, Report};
use protean_bench::report::{results_dir, write_profile_report, BenchReport};
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
        // Skip the rendered-trace re-runs for example violations: the
        // report holds counters only, and none of them depends on it.
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

    println!("campaign_perf: AMuLeT* campaign counters");
    println!("========================================\n");

    let mut rep = BenchReport::new("campaign_perf_report");
    for case in cases(programs) {
        let report: Report = fuzz(&case.cfg, case.factory);
        println!(
            "  {:<24} {:>5} tests {:>9} µops  {:>3} violations  {:>3} false positives",
            case.name,
            report.tests,
            report.committed_uops,
            report.violations,
            report.false_positives
        );
        rep.row(vec![
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

    let dir = results_dir();
    rep.write_or_exit(&dir);
    write_profile_report(&dir);
}
