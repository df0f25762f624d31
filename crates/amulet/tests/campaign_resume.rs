//! The campaign engine's crash-consistency contract: a campaign killed
//! after any chunk and resumed from its snapshot finishes with a report
//! **byte-identical** to an uninterrupted run — at any worker count,
//! with every engine feature (prefilter, coverage guidance, triage)
//! enabled. Plus the coverage-map determinism corollary: the same seed
//! produces the same coverage counters regardless of parallelism.

use protean_amulet::{
    fuzz, run_campaign, Adversary, CampaignConfig, CampaignReport, ContractKind, FuzzConfig,
    SnapshotError,
};
use protean_sim::UnsafePolicy;
use std::path::PathBuf;

/// Runs `cfg` against the unsafe core; every snapshot here is valid.
fn run(cfg: &CampaignConfig) -> CampaignReport {
    run_campaign(cfg, &|| Box::new(UnsafePolicy)).expect("valid snapshot")
}

fn engine_cfg(workers: usize, capture_traces: bool) -> CampaignConfig {
    let mut fuzz = FuzzConfig::quick(Pass::Arch, ContractKind::ArchSeq, Adversary::CacheTlb);
    fuzz.programs = 8;
    fuzz.inputs_per_program = 3;
    fuzz.gen.seed = 0xbead;
    fuzz.workers = Some(workers);
    fuzz.capture_traces = capture_traces;
    let mut cfg = CampaignConfig::new(fuzz);
    cfg.chunk_size = 2;
    cfg.coverage_guided = true;
    cfg.prefilter = true;
    cfg.triage = true;
    cfg
}

use protean_cc::Pass;

fn temp_snapshot(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("protean_campaign_resume_tests");
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join(format!("{name}.json"));
    let _ = std::fs::remove_file(&path);
    path
}

/// Kill the campaign after 1, 2, and 3 chunks (of 4), resume each, and
/// compare against the uninterrupted run — crossing worker counts 1 and
/// 4 between the killed and resuming halves.
#[test]
fn killed_campaign_resumes_byte_identically() {
    let uninterrupted = run(&engine_cfg(1, false));
    assert!(uninterrupted.complete);
    assert!(
        uninterrupted.report.violations > 0,
        "the unsafe core must leak for this test to be meaningful"
    );
    assert!(!uninterrupted.triage.is_empty(), "triage must bucket them");
    assert!(!uninterrupted.coverage.is_empty(), "coverage must populate");

    for kill_after in [1usize, 2, 3] {
        for (kill_workers, resume_workers) in [(1, 4), (4, 1), (4, 4)] {
            let path = temp_snapshot(&format!("kill{kill_after}_w{kill_workers}{resume_workers}"));
            let mut first = engine_cfg(kill_workers, false);
            first.snapshot = Some(path.clone());
            first.max_chunks_per_call = Some(kill_after);
            let partial = run(&first);
            assert!(!partial.complete, "kill after {kill_after} chunks");
            assert_eq!(partial.chunks_done as usize, kill_after);

            let mut second = engine_cfg(resume_workers, false);
            second.snapshot = Some(path.clone());
            let resumed = run(&second);
            assert!(resumed.resumed, "second call must load the snapshot");
            assert!(resumed.complete);
            assert_eq!(
                resumed.digest(),
                uninterrupted.digest(),
                "kill after {kill_after} chunks ({kill_workers}→{resume_workers} workers)"
            );
            let _ = std::fs::remove_file(&path);
        }
    }
}

/// Example violations — including their rendered base/mutant pipeline
/// traces — survive the snapshot roundtrip byte-identically.
#[test]
fn resumed_examples_keep_their_traces() {
    let uninterrupted = run(&engine_cfg(1, true));
    assert!(uninterrupted
        .report
        .examples
        .iter()
        .any(|e| e.trace.is_some()));

    let path = temp_snapshot("traced_examples");
    let mut first = engine_cfg(4, true);
    first.snapshot = Some(path.clone());
    first.max_chunks_per_call = Some(2);
    run(&first);
    let mut second = engine_cfg(1, true);
    second.snapshot = Some(path.clone());
    let resumed = run(&second);
    assert_eq!(resumed.digest(), uninterrupted.digest());
    let _ = std::fs::remove_file(&path);
}

/// Coverage counters are a pure function of the seed: the same campaign
/// at worker counts 1 and 4 produces identical coverage maps (weights
/// are only updated at chunk boundaries, so intra-chunk completion
/// order cannot leak into scheduling).
#[test]
fn coverage_map_is_worker_count_independent() {
    let a = run(&engine_cfg(1, false));
    let b = run(&engine_cfg(4, false));
    assert_eq!(a.coverage, b.coverage);
    assert_eq!(a.digest(), b.digest());
}

/// Features-off engine runs reproduce the batch driver byte-identically
/// even across a kill/resume cycle.
#[test]
fn features_off_resume_still_matches_fuzz() {
    let mut base = engine_cfg(1, false);
    base.coverage_guided = false;
    base.prefilter = false;
    base.triage = false;
    let direct = fuzz(&base.fuzz, &|| Box::new(UnsafePolicy));

    let path = temp_snapshot("features_off");
    let mut first = base.clone();
    first.fuzz.workers = Some(4);
    first.snapshot = Some(path.clone());
    first.max_chunks_per_call = Some(1);
    run(&first);
    let mut second = base.clone();
    second.snapshot = Some(path.clone());
    let resumed = run(&second);
    assert_eq!(format!("{direct:?}"), format!("{:?}", resumed.report));
    let _ = std::fs::remove_file(&path);
}

/// A snapshot cut short at any byte — a torn copy, a full disk — either
/// is refused with a clean error or (when only trailing whitespace was
/// lost) resumes to the uninterrupted result. It is never resumed as a
/// silently different state, and never panics.
#[test]
fn truncated_snapshot_is_refused_or_resumes_identically() {
    let mut cfg = engine_cfg(1, false);
    cfg.fuzz.programs = 4;
    cfg.fuzz.inputs_per_program = 2;
    let uninterrupted = run(&cfg);

    let path = temp_snapshot("truncated_source");
    let mut first = cfg.clone();
    first.snapshot = Some(path.clone());
    first.max_chunks_per_call = Some(1);
    run(&first);
    let full = std::fs::read(&path).expect("snapshot written");
    let _ = std::fs::remove_file(&path);
    assert!(
        full.windows(9).any(|w| w == b"\"example\""),
        "the cut snapshot must hold every row kind worth truncating"
    );

    let cut_path = temp_snapshot("truncated");
    let mut resume = cfg.clone();
    resume.snapshot = Some(cut_path.clone());
    let mut resumed = 0;
    for len in 0..=full.len() {
        std::fs::write(&cut_path, &full[..len]).unwrap();
        match run_campaign(&resume, &|| Box::new(UnsafePolicy)) {
            Ok(r) => {
                resumed += 1;
                assert!(r.resumed, "cut at {len}");
                assert_eq!(r.digest(), uninterrupted.digest(), "cut at {len}");
            }
            Err(SnapshotError::Io { .. } | SnapshotError::Malformed { .. }) => {}
            Err(e) => panic!("cut at {len}: unexpected error {e}"),
        }
    }
    // The uncut file resumes; beyond it only cuts of trailing
    // whitespace may.
    assert!(
        (1..4).contains(&resumed),
        "only whitespace-only cuts may resume ({resumed} did)"
    );
    let _ = std::fs::remove_file(&cut_path);
}
