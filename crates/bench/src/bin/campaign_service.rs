//! `campaign_service`: the resumable campaign engine as a service-style
//! driver over the quick fuzzing roster.
//!
//! Runs three fixed campaigns — the unsafe baseline, ProtDelay, and
//! ProtTrack, six programs of three inputs each from seed `0xbead` —
//! through `amulet::run_campaign` with every engine feature on
//! (two-stage SEQ prefilter, coverage-guided generation,
//! audit-signature triage) and a per-case snapshot under
//! `$PROTEAN_BENCH_DIR`. The snapshots use the BenchReport row schema,
//! so the `validate_json` CI gate covers them automatically.
//!
//! ```text
//! cargo run --release -p protean-bench --bin campaign_service [--kill-after N]
//! ```
//!
//! `--kill-after N` processes at most `N` chunks per campaign and exits
//! *without* writing the report — simulating a preempted service. A
//! later invocation resumes each campaign from its snapshot. The final
//! `campaign_service.json` (written only once every campaign completes)
//! is **byte-identical** whether or not the service was killed along the
//! way, at any `PROTEAN_JOBS` worker count; `ci.sh` diffs exactly that.
//! Any other argument, or a missing or non-integer `N`, exits with
//! status 2 and a usage line.
//!
//! Whenever it writes the report, the service also writes the section
//! profiler's `profile.json` next to it. The profile covers only the
//! simulations this process ran: after a resume, the chunks run before
//! the kill are in the report but not in the profile. Its event counts
//! are exact, so an uninterrupted run's counts are identical at any
//! `PROTEAN_JOBS`; `ci.sh` diffs those too.
//!
//! Reported per case: the deterministic campaign counters plus the two
//! engine-quality headline numbers — the stage-1 **prefilter hit rate**
//! (admitted pairs / SEQ-traced pairs: how much cycle-accurate replay
//! the cheap oracle saves) and the triage **dedup ratio** (candidate
//! violations per root-cause bucket).

use protean_amulet::{run_campaign, Adversary, CampaignConfig, ContractKind, FuzzConfig};
use protean_bench::report::{results_dir, write_profile_report, BenchReport};
use protean_cc::Pass;
use protean_core::{ProtDelayPolicy, ProtTrackPolicy};
use protean_sim::json::Json;
use protean_sim::{DefensePolicy, UnsafePolicy};
use std::path::PathBuf;

struct Case {
    name: &'static str,
    cfg: CampaignConfig,
    factory: &'static (dyn Fn() -> Box<dyn DefensePolicy> + Sync),
}

fn cases(kill_after: Option<usize>) -> Vec<Case> {
    let build = |name: &str, pass, contract, adversary| {
        let mut fuzz = FuzzConfig::quick(pass, contract, adversary);
        fuzz.programs = 6;
        fuzz.inputs_per_program = 3;
        fuzz.gen.seed = 0xbead;
        fuzz.capture_traces = false;
        let mut cfg = CampaignConfig::new(fuzz);
        cfg.chunk_size = 2;
        cfg.coverage_guided = true;
        cfg.prefilter = true;
        cfg.triage = true;
        cfg.snapshot = Some(snapshot_path(name));
        cfg.max_chunks_per_call = kill_after;
        cfg
    };
    vec![
        Case {
            name: "unsafe/arch/cache",
            cfg: build(
                "unsafe/arch/cache",
                Pass::Arch,
                ContractKind::ArchSeq,
                Adversary::CacheTlb,
            ),
            factory: &|| Box::new(UnsafePolicy),
        },
        Case {
            name: "protdelay/ct/cache",
            cfg: build(
                "protdelay/ct/cache",
                Pass::Ct,
                ContractKind::CtSeq,
                Adversary::CacheTlb,
            ),
            factory: &|| Box::new(ProtDelayPolicy::new()),
        },
        Case {
            name: "prottrack/unprot/timing",
            cfg: build(
                "prottrack/unprot/timing",
                Pass::Rand { prob: 0.5, seed: 7 },
                ContractKind::UnprotSeq,
                Adversary::Timing,
            ),
            factory: &|| Box::new(ProtTrackPolicy::new()),
        },
    ]
}

/// `$PROTEAN_BENCH_DIR/campaign_snapshot_<case>.json` with the case
/// name's separators flattened for the filesystem.
fn snapshot_path(case: &str) -> PathBuf {
    results_dir().join(format!("campaign_snapshot_{}.json", case.replace('/', "_")))
}

/// Parses the arguments (without the program name): `--kill-after N`
/// with `N` a non-negative integer, or nothing.
fn parse_args(args: &[String]) -> Result<Option<usize>, String> {
    let mut kill_after = None;
    let mut args = args.iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--kill-after" => {
                let v = args.next().ok_or("--kill-after requires a value")?;
                let n = v
                    .parse()
                    .map_err(|_| format!("--kill-after must be an integer, got {v:?}"))?;
                kill_after = Some(n);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(kill_after)
}

fn main() {
    let mut args = std::env::args();
    let bin = args.next().unwrap_or_default();
    let kill_after = parse_args(&args.collect::<Vec<_>>()).unwrap_or_else(|why| {
        eprintln!("{why}\nusage: {bin} [--kill-after N]");
        std::process::exit(2);
    });

    println!("campaign_service: resumable coverage-guided campaigns");
    println!("=====================================================\n");

    let mut rep = BenchReport::new("campaign_service");
    let mut all_complete = true;
    for case in cases(kill_after) {
        let r = run_campaign(&case.cfg, case.factory).unwrap_or_else(|e| {
            eprintln!("campaign_service: {}: {e}", case.name);
            std::process::exit(1);
        });
        let traced = r.prefilter_pairs + r.prefilter_rejected;
        let hit_rate = if traced > 0 {
            r.prefilter_pairs as f64 / traced as f64
        } else {
            0.0
        };
        let buckets = r.triage.len() as u64;
        let dedup_ratio = if buckets > 0 {
            r.candidates as f64 / buckets as f64
        } else {
            0.0
        };
        println!(
            "  {:<24} {:>2}/{} programs{} {:>3} tests  {:>2} violations  \
             prefilter {:>5.1}%  {} buckets ({:.1}x dedup)",
            case.name,
            r.programs_done,
            case.cfg.fuzz.programs,
            if r.resumed { " (resumed)" } else { "" },
            r.report.tests,
            r.report.violations,
            hit_rate * 100.0,
            buckets,
            dedup_ratio,
        );
        if !r.complete {
            all_complete = false;
            continue;
        }
        rep.row(vec![
            ("case", Json::str(case.name)),
            ("programs", Json::U64(case.cfg.fuzz.programs as u64)),
            ("chunks", Json::U64(r.chunks_done)),
            ("tests", Json::U64(r.report.tests)),
            ("pairs_rejected", Json::U64(r.report.pairs_rejected)),
            ("violations", Json::U64(r.report.violations)),
            ("false_positives", Json::U64(r.report.false_positives)),
            ("committed_uops", Json::U64(r.report.committed_uops)),
            ("hw_truncated", Json::U64(r.report.hw_truncated)),
            ("no_partner", Json::U64(r.report.no_partner)),
            ("prefilter_pairs", Json::U64(r.prefilter_pairs)),
            ("prefilter_rejected", Json::U64(r.prefilter_rejected)),
            ("prefilter_hit_rate", Json::F64(hit_rate)),
            ("hw_pairs", Json::U64(r.hw_pairs)),
            ("candidates", Json::U64(r.candidates)),
            ("triage_buckets", Json::U64(buckets)),
            ("dedup_ratio", Json::F64(dedup_ratio)),
            ("coverage_keys", Json::U64(r.coverage.len() as u64)),
        ]);
    }

    if all_complete {
        let dir = results_dir();
        rep.write_or_exit(&dir);
        write_profile_report(&dir);
    } else {
        println!("\nkilled before completion; snapshots saved — rerun to resume");
    }
}

#[cfg(test)]
mod tests {
    use super::parse_args;

    fn parse(args: &[&str]) -> Result<Option<usize>, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parse_args_accepts_kill_after() {
        assert_eq!(parse(&[]), Ok(None));
        assert_eq!(parse(&["--kill-after", "1"]), Ok(Some(1)));
        assert_eq!(parse(&["--kill-after", "0"]), Ok(Some(0)));
    }

    #[test]
    fn parse_args_refuses_a_missing_or_non_integer_count() {
        for bad in [
            &["--kill-after"][..],
            &["--kill-after", "one"],
            &["--kill-after", "-1"],
        ] {
            assert!(parse(bad).unwrap_err().contains("--kill-after"), "{bad:?}");
        }
    }

    #[test]
    fn parse_args_refuses_unknown_arguments() {
        for bad in [&["--kil-after", "1"][..], &["--quick"], &["1"]] {
            assert!(parse(bad).unwrap_err().contains("unknown"), "{bad:?}");
        }
    }
}
