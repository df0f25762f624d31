//! Step-budget divergence handling: the emulator runs for
//! `cfg.max_steps` architectural steps while the hardware gets a
//! `(max_steps, max_steps * 60)` instruction/cycle budget. A program the
//! SEQ oracle cannot finish must be skipped outright — never compared
//! against (possibly truncated) hardware runs — and a hardware run cut
//! off by its budget must never enter an adversary comparison. A
//! hardware run that deadlocks is not a truncation but a simulator bug:
//! the campaign panics with the watchdog's dump.

use protean_amulet::{fuzz, run_campaign, Adversary, CampaignConfig, ContractKind, FuzzConfig};
use protean_arch::OracleMode;
use protean_cc::Pass;
use protean_core::ProtTrackPolicy;
use protean_sim::UnsafePolicy;

fn budget_cfg(max_steps: u64) -> FuzzConfig {
    let mut cfg = FuzzConfig::quick(Pass::Arch, ContractKind::ArchSeq, Adversary::CacheTlb);
    cfg.programs = 6;
    cfg.inputs_per_program = 3;
    cfg.gen.seed = 0xbead;
    cfg.max_steps = max_steps;
    cfg
}

/// Every generated program needs far more than 4 architectural steps:
/// with such a budget the SEQ oracle exits `StepLimit` for every base
/// input, so no hardware run happens at all — no bogus
/// emulator-StepLimit-vs-halted-hardware comparisons, no tests, no
/// violations.
#[test]
fn seq_step_limit_skips_program_entirely() {
    for oracle in [OracleMode::Interp, OracleMode::Threaded] {
        let mut cfg = budget_cfg(4);
        cfg.oracle = oracle;
        let r = fuzz(&cfg, &|| Box::new(UnsafePolicy));
        assert_eq!(r.tests, 0, "no pair may be compared ({oracle:?})");
        assert_eq!(r.violations, 0, "{oracle:?}");
        assert_eq!(r.false_positives, 0, "{oracle:?}");
        assert_eq!(r.pairs_rejected, 0, "{oracle:?}");
        assert_eq!(
            r.committed_uops, 0,
            "no hardware run may happen without a base trace ({oracle:?})"
        );
        assert_eq!(r.hw_truncated, 0, "{oracle:?}");
    }
}

/// With the normal budget, the campaign's hardware runs all halt: the
/// truncation counter stays zero and the report is identical under both
/// oracle backends — including under a stalling defense, where hardware
/// runs take many more cycles than architectural steps.
#[test]
fn full_budget_reports_match_across_oracles() {
    for factory in [
        &(|| Box::new(UnsafePolicy) as Box<dyn protean_sim::DefensePolicy>)
            as &(dyn Fn() -> Box<dyn protean_sim::DefensePolicy> + Sync),
        &|| Box::new(ProtTrackPolicy::new()) as Box<dyn protean_sim::DefensePolicy>,
    ] {
        let mut interp_cfg = budget_cfg(60_000);
        interp_cfg.oracle = OracleMode::Interp;
        let mut threaded_cfg = budget_cfg(60_000);
        threaded_cfg.oracle = OracleMode::Threaded;
        let a = fuzz(&interp_cfg, factory);
        let b = fuzz(&threaded_cfg, factory);
        assert!(a.tests > 0);
        assert_eq!(a.hw_truncated, 0);
        assert_eq!(a.tests, b.tests);
        assert_eq!(a.pairs_rejected, b.pairs_rejected);
        assert_eq!(a.violations, b.violations);
        assert_eq!(a.false_positives, b.false_positives);
        assert_eq!(a.committed_uops, b.committed_uops);
        assert_eq!(a.hw_truncated, b.hw_truncated);
    }
}

/// A defense that never lets any µop begin execution: the pipeline
/// commits nothing. Under [`STALL_STEPS`] every *base* hardware run
/// ends `MaxCycles`; under the normal budget the deadlock watchdog
/// fires first.
struct StallForeverPolicy;

/// A step budget whose hardware cycle budget (`60 ×` steps = 96 000
/// cycles) runs out before the core's 100 000-cycle deadlock watchdog,
/// and which every program of [`budget_cfg`]'s campaign finishes on the
/// SEQ oracle: a stalled run is truncated, not deadlocked.
const STALL_STEPS: u64 = 1_600;

impl protean_sim::DefensePolicy for StallForeverPolicy {
    fn name(&self) -> String {
        "stall-forever".to_string()
    }

    fn may_execute(
        &self,
        _u: &protean_sim::DynInst,
        _tags: &protean_sim::RegTags,
        _fr: &protean_sim::SpecFrontier,
    ) -> protean_sim::Gate {
        // Never lapses while the frontier is finite.
        protean_sim::Gate::Closed {
            until: u64::MAX,
            rule: "stall-forever",
        }
    }
}

/// When the base hardware run is truncated, no mutant has a comparison
/// partner. The worker has already SEQ-traced every mutant (stage 1
/// runs before any hardware run), but it replays none of them on the
/// core, books all of them under `no_partner`, and leaves
/// `pairs_rejected` untouched: that counter is for genuine contract
/// non-equivalence, not for missing partners.
#[test]
fn truncated_base_run_skips_mutants_as_no_partner() {
    let cfg = budget_cfg(STALL_STEPS);
    let r = fuzz(&cfg, &|| Box::new(StallForeverPolicy));
    assert_eq!(
        r.hw_truncated, cfg.programs as u64,
        "every base run must hit the cycle budget under the stalling policy"
    );
    assert_eq!(
        r.no_partner,
        (cfg.programs * cfg.inputs_per_program) as u64,
        "every mutant of every program is partnerless"
    );
    assert_eq!(
        r.pairs_rejected, 0,
        "partnerless mutants must not inflate the SEQ rejection stats"
    );
    assert_eq!(r.tests, 0, "nothing may be compared");
    assert_eq!(r.violations, 0);
    assert_eq!(r.false_positives, 0);
    assert_eq!(r.committed_uops, 0, "a fully stalled core commits nothing");
}

/// With the normal budget the stalled core trips the deadlock watchdog
/// long before the cycle budget. That is a simulator (or policy) bug,
/// not a truncated run: the campaign panics, naming the program seed
/// and input and carrying the watchdog's pipeline dump, instead of
/// booking the run as `hw_truncated`.
#[test]
fn deadlocked_hardware_run_panics_with_dump() {
    let mut cfg = budget_cfg(60_000);
    cfg.workers = Some(1);
    let panic = std::panic::catch_unwind(|| fuzz(&cfg, &|| Box::new(StallForeverPolicy)))
        .expect_err("a deadlocked hardware run must panic");
    let msg = panic
        .downcast_ref::<String>()
        .expect("panic message is a String");
    assert!(msg.contains("hardware run deadlocked"), "{msg}");
    assert!(msg.contains("program seed"), "{msg}");
    assert!(msg.contains("the base input"), "{msg}");
    assert!(msg.contains("--- deadlock dump @cycle"), "{msg}");
}

/// An in-between budget: some generated programs finish inside it, some
/// do not. The ones that finish are fuzzed normally; the ones that do
/// not are skipped — and the two oracle backends agree exactly on which
/// is which.
#[test]
fn partial_budget_is_consistent_across_oracles() {
    let mut interp_cfg = budget_cfg(1_500);
    interp_cfg.oracle = OracleMode::Interp;
    let mut threaded_cfg = budget_cfg(1_500);
    threaded_cfg.oracle = OracleMode::Threaded;
    let a = fuzz(&interp_cfg, &|| Box::new(UnsafePolicy));
    let b = fuzz(&threaded_cfg, &|| Box::new(UnsafePolicy));
    assert_eq!(a.tests, b.tests);
    assert_eq!(a.pairs_rejected, b.pairs_rejected);
    assert_eq!(a.violations, b.violations);
    assert_eq!(a.false_positives, b.false_positives);
    assert_eq!(a.committed_uops, b.committed_uops);
    assert_eq!(a.hw_truncated, b.hw_truncated);
}

/// The same rule with the SEQ prefilter on: a program whose stage 1
/// admits a mutant builds its core, runs out of cycles on the base
/// run, and books every mutant as partnerless — while the engine's own
/// stage-1 statistics still count what the cheap stage rejected.
#[test]
fn truncated_base_rule_holds_under_prefilter() {
    let mut cfg = CampaignConfig::new(budget_cfg(STALL_STEPS));
    cfg.prefilter = true;
    let r = run_campaign(&cfg, &|| Box::new(StallForeverPolicy)).expect("no snapshot");
    let mutants = (cfg.fuzz.programs * cfg.fuzz.inputs_per_program) as u64;
    assert_eq!(r.report.hw_truncated, cfg.fuzz.programs as u64);
    assert_eq!(r.report.no_partner, mutants);
    assert_eq!(r.report.pairs_rejected, 0);
    assert_eq!(r.report.tests, 0);
    assert_eq!(r.hw_pairs, 0);
    assert_eq!(r.prefilter_pairs + r.prefilter_rejected, mutants);
}

/// `stop_at_first` with the prefilter on ends where the plain campaign
/// ends and counts the same rejections: inputs drawn after the stopping
/// one are SEQ-traced by stage 1 but not counted in `pairs_rejected`.
/// (`committed_uops` is left out: the prefilter skips the base run of a
/// program whose mutants are all rejected.)
#[test]
fn stop_at_first_under_prefilter_matches_fuzz() {
    let mut fuzz_cfg = budget_cfg(60_000);
    fuzz_cfg.stop_at_first = true;
    fuzz_cfg.capture_traces = false;
    let plain = fuzz(&fuzz_cfg, &|| Box::new(UnsafePolicy));
    assert!(plain.violations > 0, "the unsafe core must leak");
    let mut cfg = CampaignConfig::new(fuzz_cfg);
    cfg.prefilter = true;
    let r = run_campaign(&cfg, &|| Box::new(UnsafePolicy)).expect("no snapshot");
    assert!(r.stopped);
    assert_eq!(r.report.tests, plain.tests);
    assert_eq!(r.report.pairs_rejected, plain.pairs_rejected);
    assert_eq!(r.report.violations, plain.violations);
    assert_eq!(r.report.false_positives, plain.false_positives);
    assert_eq!(r.report.hw_truncated, plain.hw_truncated);
    assert_eq!(r.report.no_partner, plain.no_partner);
    assert_eq!(
        format!("{:?}", r.report.examples),
        format!("{:?}", plain.examples)
    );
}
