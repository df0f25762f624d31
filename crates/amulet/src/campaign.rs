//! The persistent, resumable campaign engine (ROADMAP item 3).
//!
//! Every campaign runs through [`run_campaign`] and its one per-program
//! worker; [`fuzz`](crate::fuzz) is the single-chunk, in-memory call.
//! Paper-scale evaluation (§VII-B) wants *long-running* campaigns that
//! survive preemption, spend cheap SEQ emulation before expensive
//! cycle-accurate replay, dedup the violation firehose into root-cause
//! buckets, and steer generation toward undercovered microarchitectural
//! behavior. The engine provides those four capabilities:
//!
//! * **Chunked work queue + snapshots.** The program stream is processed
//!   in chunks of [`CampaignConfig::chunk_size`] via
//!   `protean_jobs::map_range_with`; with [`CampaignConfig::snapshot`]
//!   set, the full accumulator state is written after every chunk to a
//!   versioned JSON snapshot (`protean_sim::json`, no serde) with an
//!   atomic tmp-file rename. A killed campaign restarted with the same
//!   config resumes from the last chunk boundary and finishes
//!   **byte-identical** to an uninterrupted run, at any `PROTEAN_JOBS`
//!   worker count — chunk boundaries are a pure function of
//!   `chunk_size`, and per-chunk results concatenate to the single-call
//!   result (asserted in `protean-jobs` tests).
//! * **Two-stage cheap-first filter.** The worker computes all of a
//!   program's mutant SEQ traces (threaded-code oracle) *before* any
//!   hardware run. With [`CampaignConfig::prefilter`] on, a program
//!   whose mutants are all rejected by that stage never constructs the
//!   cycle-accurate core. [`CampaignReport::prefilter_rejected`] /
//!   `prefilter_pairs` / `hw_pairs` quantify the stage-1 hit rate.
//! * **Audit-signature triage.** With [`CampaignConfig::triage`] on, each
//!   candidate violation is re-run with pipeline tracing and bucketed on
//!   [`Trace::audit_signature`](protean_sim::Trace::audit_signature) —
//!   the sorted set of `(gate, rule)` defense decisions plus squash
//!   causes. One root cause, one [`TriageBucket`], regardless of how
//!   many seeds re-trigger it.
//! * **Coverage-guided generation.** With
//!   [`CampaignConfig::coverage_guided`] on, the traced base run's
//!   pipeline events (squash causes × defense block rules), attributed
//!   to the gadget templates the generator drew, feed a coverage map;
//!   template weights for chunk *k* are derived from the map as of the
//!   end of chunk *k − 1* (`w = 1 + c_max − c`), biasing generation
//!   toward undercovered templates. Updating weights only at chunk
//!   boundaries keeps reports worker-count independent.
//!
//! With [`FuzzConfig::capture_traces`] on, each example violation
//! carries rendered traces of its base and mutant runs
//! ([`Violation::trace`]). The worker records the example and keeps its
//! inputs; the trace is rendered at the fold, only after the report's
//! [`Report::MAX_EXAMPLES`] cap has kept the example, with one traced
//! replay of the program's base input shared by all of its kept
//! examples. Snapshots store the rendered traces, so a resumed campaign
//! replays nothing it has already folded.
//!
//! With coverage guidance off, the fuzzing [`Report`] does not depend on
//! the chunk size, the snapshot, or the triage option, so a campaign
//! with every option off reproduces [`fuzz`](crate::fuzz) exactly.

use crate::fuzzer::{
    derive_program_seed, make_input, randomize_secrets, render_replay, seq_trace, traced_replay,
    FuzzConfig, Report, SeqOracle, Violation,
};
use crate::generator::{self, GadgetTemplate, GenConfig};
use protean_arch::{ArchState, ExecRecord};
use protean_cc::compile_with;
use protean_isa::Program;
use protean_rng::Rng;
use protean_sim::json::Json;
use protean_sim::{Core, DefensePolicy, SimExit, SimResult};
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// Campaign-engine configuration: a [`FuzzConfig`] plus the engine
/// options. [`CampaignConfig::new`] leaves every option off.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// The underlying fuzzing configuration. `fuzz.programs` is the
    /// length of the program stream; `fuzz.workers` resolves the worker
    /// count exactly as in [`fuzz`](crate::fuzz).
    pub fuzz: FuzzConfig,
    /// Programs per work-queue chunk: the snapshot/coverage-update
    /// granularity. Reports are independent of this value only when
    /// coverage guidance is off (weights change at chunk boundaries).
    pub chunk_size: usize,
    /// Snapshot file path. `Some(path)`: state is saved after every
    /// chunk and, if `path` exists when the campaign starts, loaded and
    /// resumed from. `None`: run in memory only.
    pub snapshot: Option<PathBuf>,
    /// Feed pipeline-event coverage back into template selection.
    pub coverage_guided: bool,
    /// Skip a program's hardware runs entirely when the cheap SEQ stage
    /// admits none of its mutant pairs.
    pub prefilter: bool,
    /// Triage candidate violations into audit-signature buckets.
    pub triage: bool,
    /// Stop after this many chunks in this call (the campaign is *not*
    /// complete; a later call resumes from the snapshot). `None`: run to
    /// completion. This is how tests and CI simulate a killed campaign.
    pub max_chunks_per_call: Option<usize>,
}

impl CampaignConfig {
    /// An engine wrapper around `fuzz` with every option off.
    pub fn new(fuzz: FuzzConfig) -> CampaignConfig {
        CampaignConfig {
            fuzz,
            chunk_size: 8,
            snapshot: None,
            coverage_guided: false,
            prefilter: false,
            triage: false,
            max_chunks_per_call: None,
        }
    }
}

/// One root-cause bucket of the violation triage: every candidate whose
/// traced re-run produced the same audit signature.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TriageBucket {
    /// Candidate violations with this signature (true and false
    /// positives).
    pub count: u64,
    /// How many of them the committed-fingerprint filter rejected.
    pub false_positives: u64,
    /// Program seed of the first candidate in the bucket (a reproducer).
    pub first_program_seed: u64,
    /// Input index of the first candidate.
    pub first_input_index: usize,
}

/// Campaign results: the plain fuzzing [`Report`] plus engine state
/// (progress cursor, prefilter statistics, triage buckets, coverage
/// map). Everything except [`CampaignReport::resumed`] is a
/// deterministic function of `(config, completed chunk count)`.
#[derive(Clone, Debug, Default)]
pub struct CampaignReport {
    /// The accumulated fuzzing report (same fold as [`fuzz`](crate::fuzz)).
    pub report: Report,
    /// Programs fully processed (the resume cursor).
    pub programs_done: usize,
    /// Chunks fully processed.
    pub chunks_done: u64,
    /// Mutant pairs admitted by the cheap SEQ stage (contract-equivalent).
    pub prefilter_pairs: u64,
    /// Mutant pairs rejected by the cheap SEQ stage (observer traces
    /// differ — never reached hardware).
    pub prefilter_rejected: u64,
    /// Hardware pair replays actually compared (both runs halted).
    pub hw_pairs: u64,
    /// Candidate violations before dedup (true + false positives).
    pub candidates: u64,
    /// Violation triage: audit signature → bucket. Empty unless
    /// [`CampaignConfig::triage`] is on.
    pub triage: BTreeMap<String, TriageBucket>,
    /// Pipeline-event coverage map: `template|event` → count. Empty
    /// unless [`CampaignConfig::coverage_guided`] is on.
    pub coverage: BTreeMap<String, u64>,
    /// `stop_at_first` fired.
    pub stopped: bool,
    /// This call loaded state from a snapshot (session-local; excluded
    /// from [`CampaignReport::digest`] and never persisted).
    pub resumed: bool,
    /// The whole program stream has been processed (or `stop_at_first`
    /// ended the campaign). `false` after a `max_chunks_per_call` exit.
    pub complete: bool,
}

impl CampaignReport {
    /// A deterministic rendering of every field except `resumed`: a
    /// killed-and-resumed campaign must produce the same digest as an
    /// uninterrupted one, and `resumed` is the one field that records
    /// *how* the state was reached rather than what it is.
    pub fn digest(&self) -> String {
        format!(
            "{:?}|programs_done={}|chunks_done={}|prefilter={}/{}|hw_pairs={}|candidates={}|triage={:?}|coverage={:?}|stopped={}|complete={}",
            self.report,
            self.programs_done,
            self.chunks_done,
            self.prefilter_pairs,
            self.prefilter_rejected,
            self.hw_pairs,
            self.candidates,
            self.triage,
            self.coverage,
            self.stopped,
            self.complete,
        )
    }
}

/// Why a campaign snapshot could not be loaded or saved. A campaign
/// never resumes from a snapshot it cannot fully account for.
#[derive(Debug)]
pub enum SnapshotError {
    /// Reading or writing the snapshot file failed (including a file
    /// that is not UTF-8).
    Io {
        /// The snapshot path.
        path: PathBuf,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// The file is not a complete snapshot: not JSON, a row without its
    /// string fields, a missing `meta` row or counter, or a value that
    /// does not parse.
    Malformed {
        /// The snapshot path.
        path: PathBuf,
        /// What is wrong with it.
        reason: String,
    },
    /// The snapshot was written under a different schema version.
    Version {
        /// The snapshot path.
        path: PathBuf,
        /// The version the snapshot declares.
        found: u64,
    },
    /// The snapshot was written by a different campaign configuration;
    /// resuming it would silently break the determinism contract.
    Fingerprint {
        /// The snapshot path.
        path: PathBuf,
        /// The fingerprint the snapshot declares.
        found: String,
        /// The fingerprint of the configuration being run.
        expected: String,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io { path, source } => {
                write!(f, "snapshot {}: {source}", path.display())
            }
            SnapshotError::Malformed { path, reason } => {
                write!(f, "snapshot {} is malformed: {reason}", path.display())
            }
            SnapshotError::Version { path, found } => write!(
                f,
                "snapshot {} has version {found}, engine expects {SNAPSHOT_VERSION}",
                path.display()
            ),
            SnapshotError::Fingerprint {
                path,
                found,
                expected,
            } => write!(
                f,
                "snapshot {} was written by a different campaign config \
                 (fingerprint {found} != {expected}); refusing to resume",
                path.display()
            ),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Snapshot schema version (bumped on incompatible layout changes; a
/// mismatched snapshot is refused rather than misread).
const SNAPSHOT_VERSION: u64 = 1;

/// Runs (or resumes) a campaign. See the module docs for the engine's
/// contract; in short:
///
/// * with coverage guidance and the prefilter off (triage only adds
///   buckets), the returned [`CampaignReport::report`] is
///   byte-identical to [`fuzz`](crate::fuzz) on the same [`FuzzConfig`];
/// * killing the campaign after any chunk (simulated via
///   [`CampaignConfig::max_chunks_per_call`], or a real SIGKILL — the
///   snapshot write is atomic) and re-running with the same config
///   resumes and finishes with an identical [`CampaignReport::digest`],
///   at any worker count.
///
/// # Errors
///
/// Returns a [`SnapshotError`] if the snapshot cannot be read or
/// written, is malformed or incomplete, or was written under a
/// different config (fingerprint mismatch) or schema version. Resuming
/// a campaign from state it cannot verify would corrupt the determinism
/// contract, so it is refused.
pub fn run_campaign(
    cfg: &CampaignConfig,
    policy_factory: &(dyn Fn() -> Box<dyn DefensePolicy> + Sync),
) -> Result<CampaignReport, SnapshotError> {
    // The fingerprint only tags and checks snapshots.
    let snapshot = cfg
        .snapshot
        .as_deref()
        .map(|path| (path, config_fingerprint(cfg)));
    let mut state = CampaignReport::default();
    if let Some((path, fingerprint)) = &snapshot {
        if path.exists() {
            state = load_snapshot(path, fingerprint)?;
            state.resumed = true;
        }
    }

    let workers = cfg.fuzz.workers.unwrap_or_else(protean_jobs::worker_count);
    let total = cfg.fuzz.programs;
    let mut chunks_this_call = 0usize;

    while state.programs_done < total && !state.stopped {
        if let Some(max) = cfg.max_chunks_per_call {
            if chunks_this_call >= max {
                return Ok(state); // simulated kill: snapshot already saved
            }
        }
        let start = state.programs_done;
        let end = (start + cfg.chunk_size.max(1)).min(total);
        // Coverage weights are frozen for the whole chunk, derived from
        // the map as of the previous chunk boundary — the scheduling
        // decision is independent of intra-chunk completion order, so
        // reports stay byte-identical at any worker count.
        let weights = cfg
            .coverage_guided
            .then(|| coverage_weights(&state.coverage));
        let outcomes = protean_jobs::map_range_with(workers, start..end, |p| {
            run_program(cfg, p, weights.as_ref(), policy_factory)
        });

        state.programs_done = end;
        for (off, outcome) in outcomes.into_iter().enumerate() {
            let stopped = outcome.stopped;
            fold_outcome(&mut state, outcome, &cfg.fuzz, policy_factory);
            if stopped {
                // stop_at_first: discard the speculatively fuzzed later
                // programs of the chunk and pin the cursor to the
                // stopping program.
                state.stopped = true;
                state.programs_done = start + off + 1;
                break;
            }
        }
        state.chunks_done += 1;
        chunks_this_call += 1;
        state.complete = state.programs_done >= total || state.stopped;
        if let Some((path, fingerprint)) = &snapshot {
            save_snapshot(path, fingerprint, &state)?;
        }
    }
    state.complete = state.programs_done >= total || state.stopped;
    Ok(state)
}

/// One program's share of a campaign: its [`Report`] contribution plus
/// the engine-only event streams, all folded in program order.
#[derive(Default)]
struct ProgramOutcome {
    report: Report,
    /// `stop_at_first` found a true positive in this program: the fold
    /// must not consume any later program's results.
    stopped: bool,
    prefilter_pairs: u64,
    prefilter_rejected: u64,
    hw_pairs: u64,
    candidates: u64,
    /// Coverage events, one `template|event` key per increment.
    coverage: Vec<String>,
    /// Triage events: `(signature, program_seed, input_index, fp)`.
    triage: Vec<(String, u64, usize, bool)>,
    /// What the fold needs to render the traces of the examples it
    /// keeps. `None` unless [`FuzzConfig::capture_traces`] is on and the
    /// program recorded an example.
    replay: Option<ReplayInputs>,
}

/// The inputs of one program's example replays: the compiled program,
/// its base input, and one mutant input per recorded example, in
/// `report.examples` order. Inputs are COW [`ArchState`]s, so holding
/// them until the chunk is folded shares pages rather than copying them.
struct ReplayInputs {
    program: Program,
    base: ArchState,
    mutants: Vec<ArchState>,
}

/// Folds one program's outcome into the campaign state, in program
/// order. Only the examples the report keeps are rendered.
fn fold_outcome(
    state: &mut CampaignReport,
    outcome: ProgramOutcome,
    cfg: &FuzzConfig,
    policy_factory: &(dyn Fn() -> Box<dyn DefensePolicy> + Sync),
) {
    state.prefilter_pairs += outcome.prefilter_pairs;
    state.prefilter_rejected += outcome.prefilter_rejected;
    state.hw_pairs += outcome.hw_pairs;
    state.candidates += outcome.candidates;
    for key in outcome.coverage {
        *state.coverage.entry(key).or_insert(0) += 1;
    }
    for (sig, seed, input, fp) in outcome.triage {
        let bucket = state.triage.entry(sig).or_insert_with(|| TriageBucket {
            count: 0,
            false_positives: 0,
            first_program_seed: seed,
            first_input_index: input,
        });
        bucket.count += 1;
        if fp {
            bucket.false_positives += 1;
        }
    }
    let (report, part) = (&mut state.report, outcome.report);
    report.tests += part.tests;
    report.pairs_rejected += part.pairs_rejected;
    report.violations += part.violations;
    report.false_positives += part.false_positives;
    report.committed_uops += part.committed_uops;
    report.hw_truncated += part.hw_truncated;
    report.no_partner += part.no_partner;
    let first_kept = report.examples.len();
    let room = Report::MAX_EXAMPLES.saturating_sub(first_kept);
    report.examples.extend(part.examples.into_iter().take(room));
    if let Some(replay) = &outcome.replay {
        render_examples(
            &mut report.examples[first_kept..],
            replay,
            cfg,
            policy_factory,
        );
    }
}

/// Fills in the traces of one program's kept examples: one traced
/// replay of the base input, shared by every example, and one per
/// mutant. A trace stays `None` when either replay yields none.
fn render_examples(
    kept: &mut [Violation],
    replay: &ReplayInputs,
    cfg: &FuzzConfig,
    policy_factory: &(dyn Fn() -> Box<dyn DefensePolicy> + Sync),
) {
    if kept.is_empty() {
        return;
    }
    let Some(base) = render_replay(&replay.program, &replay.base, cfg, policy_factory()) else {
        return;
    };
    for (v, mutant) in kept.iter_mut().zip(&replay.mutants) {
        v.trace = render_replay(&replay.program, mutant, cfg, policy_factory())
            .map(|m| format!("=== base run ===\n{base}\n=== mutant run ===\n{m}"));
    }
}

/// Panics if a hardware run ended on the deadlock watchdog. A core that
/// stops committing is a simulator (or defense-policy) bug, not a run
/// cut short by its budget, so it must not be booked as `hw_truncated`;
/// the panic names the program seed and input (`None` = the base
/// input) and carries the dump.
fn assert_no_deadlock(hw: &SimResult, seed: u64, input: Option<usize>) {
    if hw.exit == SimExit::Deadlock {
        let input = input.map_or("the base input".to_string(), |i| format!("input {i}"));
        panic!(
            "hardware run deadlocked (program seed {seed}, {input})\n{}",
            hw.deadlock_dump.as_deref().unwrap_or("")
        );
    }
}

/// Template weights from the coverage map: `w = 1 + c_max − c`, where
/// `c` sums every event counter attributed to the template. A template
/// at the coverage frontier (max events) keeps weight 1; the least
/// covered template is `1 + (c_max − c_min)` times likelier.
fn coverage_weights(coverage: &BTreeMap<String, u64>) -> [u64; GadgetTemplate::ALL.len()] {
    let mut counts = [0u64; GadgetTemplate::ALL.len()];
    for (i, t) in GadgetTemplate::ALL.iter().enumerate() {
        let prefix = format!("{}|", t.name());
        counts[i] = coverage
            .iter()
            .filter(|(k, _)| k.starts_with(&prefix))
            .map(|(_, c)| c)
            .sum();
    }
    let c_max = counts.iter().copied().max().unwrap_or(0);
    counts.map(|c| 1 + c_max - c)
}

/// Fuzzes the `p`-th program of the campaign: generate, instrument,
/// SEQ-trace every mutant (stage 1), then replay the contract-equivalent
/// pairs on the cycle-accurate core (stage 2), with coverage harvesting
/// and audit-signature triage when those options are on. Pure function
/// of `(cfg, p, weights)`: the per-program seed and RNG are derived
/// here, never shared across jobs.
fn run_program(
    cc: &CampaignConfig,
    p: usize,
    weights: Option<&[u64; GadgetTemplate::ALL.len()]>,
    policy_factory: &(dyn Fn() -> Box<dyn DefensePolicy> + Sync),
) -> ProgramOutcome {
    let cfg = &cc.fuzz;
    let mut out = ProgramOutcome::default();

    let seed = derive_program_seed(cfg.gen.seed, p);
    let gen_cfg = GenConfig {
        seed,
        ..cfg.gen.clone()
    };
    let generated = generator::generate_recorded(&gen_cfg, cfg.only_template, weights);
    let program = compile_with(&generated.program, cfg.pass).program;
    let observer = cfg.contract.observer(&program);
    let mut rng = Rng::seed_from_u64(seed ^ 0x5eed);

    // Per-program arenas: one `Core` serves the base run and every
    // mutant run via `Core::reset` (byte-identical to constructing a
    // fresh core each time), one record buffer backs every SEQ trace,
    // and in the fast oracle mode one threaded-code lowering backs every
    // SEQ emulation.
    let mut records: Vec<ExecRecord> = Vec::new();
    let oracle = SeqOracle::new(&program, cfg.oracle);

    if cc.coverage_guided {
        // Template-ran events are recorded even when the hardware stage
        // is skipped, so the weight feedback sees every draw.
        for t in &generated.templates {
            out.coverage.push(format!("{}|ran", t.name()));
        }
    }

    let base = make_input(&mut rng);
    let Some(base_trace) = seq_trace(
        &program,
        &oracle,
        &base,
        &observer,
        cfg.max_steps,
        &mut records,
    ) else {
        // Non-terminating or bad control flow: skip program. The
        // emulator's `StepLimit` lands here too — a program the SEQ
        // oracle cannot finish within the architectural step budget is
        // never compared against (possibly truncated) hardware runs.
        return out;
    };

    // Stage 1 (cheap): draw every mutant (secrets only) and SEQ-trace
    // it before any cycle-accurate hardware run.
    let mut admitted: Vec<(usize, ArchState)> = Vec::new();
    // Inputs whose trace differs from the base: not contract-equivalent,
    // so the difference is permitted.
    let mut rejected: Vec<usize> = Vec::new();
    for i in 0..cfg.inputs_per_program {
        let mut mutant = base.clone();
        randomize_secrets(&mut mutant, &mut rng);
        let Some(mutant_trace) = seq_trace(
            &program,
            &oracle,
            &mutant,
            &observer,
            cfg.max_steps,
            &mut records,
        ) else {
            continue;
        };
        if mutant_trace == base_trace {
            admitted.push((i, mutant));
        } else {
            rejected.push(i);
        }
    }
    out.prefilter_pairs = admitted.len() as u64;
    out.prefilter_rejected = rejected.len() as u64;

    if cc.prefilter && admitted.is_empty() {
        // Stage 1 admitted nothing: the hardware core is never built.
        out.report.pairs_rejected = out.prefilter_rejected;
        return out;
    }

    // Stage 2 (expensive): cycle-accurate replay of the admitted pairs.
    // Coverage mode constructs the core with pipeline tracing on —
    // tracing is observation-only, so every counter matches an untraced
    // run; the base run's trace is the coverage harvest.
    let mut core_cfg = cfg.core.clone();
    if cc.coverage_guided {
        core_cfg.trace = true;
    }
    let mut core = Core::new(&program, core_cfg, policy_factory(), &base);
    core.record_traces(true);
    let base_hw = core.run_mut(cfg.max_steps, cfg.max_steps * 60);
    assert_no_deadlock(&base_hw, seed, None);
    out.report.committed_uops += base_hw.stats.committed;
    if cc.coverage_guided {
        if let Some(trace) = &base_hw.trace {
            let causes = trace.squash_causes();
            let mut rules: Vec<String> = trace
                .blocked_by_rule()
                .iter()
                .map(|(point, rule, _)| format!("{}/{rule}", point.name()))
                .collect();
            rules.sort();
            rules.dedup();
            let mut templates = generated.templates.clone();
            templates.sort_by_key(|t| t.name());
            templates.dedup();
            for t in &templates {
                for c in &causes {
                    out.coverage.push(format!("{}|squash:{c}", t.name()));
                }
                for r in &rules {
                    out.coverage.push(format!("{}|block:{r}", t.name()));
                }
            }
        }
    }
    // The SEQ oracle halted within `max_steps`, but a defense can slow
    // the hardware past its instruction/cycle budget (`max_steps`,
    // `max_steps * 60`): a truncated run observed only a prefix and
    // must not be compared.
    if base_hw.exit != SimExit::Halted {
        // No mutant has a comparison partner. They are all counted as
        // partnerless, and none as rejected: `pairs_rejected` counts
        // contract non-equivalence of pairs that could have been
        // compared, not missing partners.
        out.report.hw_truncated += 1;
        out.report.no_partner += cfg.inputs_per_program as u64;
        return out;
    }

    // Under `stop_at_first` the campaign ends at the first true
    // positive; inputs drawn after it were never up for comparison, so
    // their stage-1 rejections do not count.
    let mut last_input = cfg.inputs_per_program;
    // The mutant input of each recorded example, for the fold's replay.
    let mut example_inputs: Vec<ArchState> = Vec::new();
    for (i, mutant) in admitted {
        core.reset(&program, policy_factory(), &mutant);
        core.record_traces(true);
        let mutant_hw = core.run_mut(cfg.max_steps, cfg.max_steps * 60);
        assert_no_deadlock(&mutant_hw, seed, Some(i));
        out.report.committed_uops += mutant_hw.stats.committed;
        if mutant_hw.exit != SimExit::Halted {
            out.report.hw_truncated += 1;
            continue;
        }
        out.hw_pairs += 1;
        out.report.tests += 2;
        if cfg.adversary.observations_differ(&base_hw, &mutant_hw) {
            // Candidate violation; apply the false-positive filter.
            out.candidates += 1;
            let fp = base_hw.committed_idxs != mutant_hw.committed_idxs;
            if fp {
                out.report.false_positives += 1;
            } else {
                out.report.violations += 1;
            }
            if cc.triage {
                let sig = traced_replay(&program, &mutant, cfg, policy_factory())
                    .map(|t| t.audit_signature())
                    .unwrap_or_else(|| "no-trace".to_string());
                out.triage.push((sig, seed, i, fp));
            }
            if out.report.examples.len() < Report::MAX_EXAMPLES {
                // The trace is rendered at the fold, and only if the
                // report keeps the example.
                out.report.examples.push(Violation {
                    program_seed: seed,
                    input_index: i,
                    false_positive: fp,
                    trace: None,
                });
                if cfg.capture_traces {
                    example_inputs.push(mutant);
                }
            }
            if !fp && cfg.stop_at_first {
                out.stopped = true;
                last_input = i;
                break;
            }
        }
    }
    out.report.pairs_rejected = rejected.iter().filter(|&&i| i < last_input).count() as u64;
    if !example_inputs.is_empty() {
        out.replay = Some(ReplayInputs {
            program,
            base,
            mutants: example_inputs,
        });
    }
    out
}

/// A cheap FNV-1a fingerprint of every campaign parameter that affects
/// results. The worker count is deliberately excluded — resuming at a
/// different `PROTEAN_JOBS` is exactly what the engine supports. The
/// defense policy is not capturable (it is a closure); callers resuming
/// a snapshot must supply the same policy.
fn config_fingerprint(cfg: &CampaignConfig) -> String {
    let mut canon = cfg.clone();
    canon.fuzz.workers = None;
    canon.max_chunks_per_call = None; // kill simulation, not a result input
    canon.snapshot = None; // the file's location is not its content
    let text = format!("{canon:?}");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

// --- snapshot serialization -----------------------------------------
//
// The snapshot is a BenchReport-schema JSON document (`bench`,
// `schema:1`, uniform flat `rows`) so the existing `validate_json` CI
// gate covers snapshots with no new tooling. State is flattened into
// `{kind, key, value}` string triples: counters, coverage entries,
// triage buckets (value = nested compact JSON string), and recorded
// examples.

fn snapshot_json(fingerprint: &str, state: &CampaignReport) -> Json {
    let mut rows: Vec<Json> = Vec::new();
    let mut row = |kind: &str, key: String, value: String| {
        rows.push(Json::obj([
            ("kind", Json::str(kind)),
            ("key", Json::Str(key)),
            ("value", Json::Str(value)),
        ]));
    };
    row("meta", "version".into(), SNAPSHOT_VERSION.to_string());
    row("meta", "fingerprint".into(), fingerprint.to_string());
    let counters = [
        ("programs_done", state.programs_done as u64),
        ("chunks_done", state.chunks_done),
        ("stopped", state.stopped as u64),
        ("tests", state.report.tests),
        ("pairs_rejected", state.report.pairs_rejected),
        ("violations", state.report.violations),
        ("false_positives", state.report.false_positives),
        ("committed_uops", state.report.committed_uops),
        ("hw_truncated", state.report.hw_truncated),
        ("no_partner", state.report.no_partner),
        ("prefilter_pairs", state.prefilter_pairs),
        ("prefilter_rejected", state.prefilter_rejected),
        ("hw_pairs", state.hw_pairs),
        ("candidates", state.candidates),
    ];
    for (k, v) in counters {
        row("counter", k.into(), v.to_string());
    }
    for (i, v) in state.report.examples.iter().enumerate() {
        let example = Json::obj([
            ("program_seed", Json::U64(v.program_seed)),
            ("input_index", Json::U64(v.input_index as u64)),
            ("false_positive", Json::Bool(v.false_positive)),
            (
                "trace",
                match &v.trace {
                    Some(t) => Json::str(t.clone()),
                    None => Json::Null,
                },
            ),
        ]);
        row("example", i.to_string(), example.render());
    }
    for (k, c) in &state.coverage {
        row("coverage", k.clone(), c.to_string());
    }
    for (sig, b) in &state.triage {
        let bucket = Json::obj([
            ("count", Json::U64(b.count)),
            ("false_positives", Json::U64(b.false_positives)),
            ("first_program_seed", Json::U64(b.first_program_seed)),
            ("first_input_index", Json::U64(b.first_input_index as u64)),
        ]);
        row("triage", sig.clone(), bucket.render());
    }
    Json::obj([
        ("bench", Json::str("campaign_snapshot")),
        ("schema", Json::U64(1)),
        ("rows", Json::Arr(rows)),
    ])
}

fn save_snapshot(
    path: &Path,
    fingerprint: &str,
    state: &CampaignReport,
) -> Result<(), SnapshotError> {
    let doc = snapshot_json(fingerprint, state);
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(dir);
        }
    }
    // Atomic publish: a kill between write and rename leaves the old
    // snapshot intact; a torn write never becomes the snapshot.
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, doc.render_pretty())
        .and_then(|()| std::fs::rename(&tmp, path))
        .map_err(|source| SnapshotError::Io {
            path: path.to_path_buf(),
            source,
        })
}

/// Reads an exact integer field from a parsed snapshot object —
/// `Json::as_f64` would silently round seeds above 2^53.
fn get_u64(obj: &Json, key: &str) -> Option<u64> {
    match obj.get(key) {
        Some(Json::U64(v)) => Some(*v),
        _ => None,
    }
}

/// Parses a snapshot back into campaign state, refusing anything it
/// cannot account for: every `meta` row and counter must be present and
/// every value must parse.
fn load_snapshot(path: &Path, fingerprint: &str) -> Result<CampaignReport, SnapshotError> {
    let malformed = |reason: String| SnapshotError::Malformed {
        path: path.to_path_buf(),
        reason,
    };
    let text = std::fs::read_to_string(path).map_err(|source| SnapshotError::Io {
        path: path.to_path_buf(),
        source,
    })?;
    let doc = Json::parse(&text).map_err(|e| malformed(format!("not JSON: {e}")))?;
    let rows = doc
        .get("rows")
        .and_then(|r| r.as_arr())
        .ok_or_else(|| malformed("no rows".into()))?;

    let mut state = CampaignReport::default();
    let mut counters: BTreeMap<&str, u64> = BTreeMap::new();
    let mut examples: Vec<(usize, Violation)> = Vec::new();
    let (mut version_seen, mut fingerprint_seen) = (false, false);
    for r in rows {
        let field = |name: &str| {
            r.get(name)
                .and_then(|v| v.as_str())
                .ok_or_else(|| malformed(format!("a row has no string `{name}`")))
        };
        let (kind, key, value) = (field("kind")?, field("key")?, field("value")?);
        let number = |text: &str| {
            text.parse::<u64>()
                .map_err(|_| malformed(format!("{kind} `{key}` does not parse: {text:?}")))
        };
        let object = || {
            Json::parse(value).map_err(|e| malformed(format!("{kind} `{key}` is not JSON: {e}")))
        };
        let exact = |obj: &Json, k: &str| {
            get_u64(obj, k).ok_or_else(|| malformed(format!("{kind} `{key}` has no integer `{k}`")))
        };
        match kind {
            "meta" => match key {
                "version" => {
                    let found = number(value)?;
                    if found != SNAPSHOT_VERSION {
                        return Err(SnapshotError::Version {
                            path: path.to_path_buf(),
                            found,
                        });
                    }
                    version_seen = true;
                }
                "fingerprint" => {
                    if value != fingerprint {
                        return Err(SnapshotError::Fingerprint {
                            path: path.to_path_buf(),
                            found: value.to_string(),
                            expected: fingerprint.to_string(),
                        });
                    }
                    fingerprint_seen = true;
                }
                _ => {}
            },
            "counter" => {
                counters.insert(key, number(value)?);
            }
            "coverage" => {
                state.coverage.insert(key.to_string(), number(value)?);
            }
            "triage" => {
                let b = object()?;
                state.triage.insert(
                    key.to_string(),
                    TriageBucket {
                        count: exact(&b, "count")?,
                        false_positives: exact(&b, "false_positives")?,
                        first_program_seed: exact(&b, "first_program_seed")?,
                        first_input_index: exact(&b, "first_input_index")? as usize,
                    },
                );
            }
            "example" => {
                let v = object()?;
                let trace = match v.get("trace") {
                    Some(Json::Str(t)) => Some(t.clone()),
                    Some(Json::Null) => None,
                    _ => return Err(malformed(format!("example `{key}` has no trace field"))),
                };
                let false_positive = match v.get("false_positive") {
                    Some(Json::Bool(b)) => *b,
                    _ => return Err(malformed(format!("example `{key}` has no false_positive"))),
                };
                examples.push((
                    number(key)? as usize,
                    Violation {
                        program_seed: exact(&v, "program_seed")?,
                        input_index: exact(&v, "input_index")? as usize,
                        false_positive,
                        trace,
                    },
                ));
            }
            _ => {}
        }
    }
    if !(version_seen && fingerprint_seen) {
        return Err(malformed("no meta/version or meta/fingerprint row".into()));
    }
    examples.sort_by_key(|(i, _)| *i);
    state.report.examples = examples.into_iter().map(|(_, v)| v).collect();
    let c = |k: &str| {
        counters
            .get(k)
            .copied()
            .ok_or_else(|| malformed(format!("no `{k}` counter")))
    };
    state.programs_done = c("programs_done")? as usize;
    state.chunks_done = c("chunks_done")?;
    state.stopped = c("stopped")? != 0;
    state.report.tests = c("tests")?;
    state.report.pairs_rejected = c("pairs_rejected")?;
    state.report.violations = c("violations")?;
    state.report.false_positives = c("false_positives")?;
    state.report.committed_uops = c("committed_uops")?;
    state.report.hw_truncated = c("hw_truncated")?;
    state.report.no_partner = c("no_partner")?;
    state.prefilter_pairs = c("prefilter_pairs")?;
    state.prefilter_rejected = c("prefilter_rejected")?;
    state.hw_pairs = c("hw_pairs")?;
    state.candidates = c("candidates")?;
    Ok(state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuzzer::{Adversary, ContractKind};
    use protean_cc::Pass;
    use protean_sim::UnsafePolicy;

    fn tiny_cfg() -> CampaignConfig {
        let mut fuzz = FuzzConfig::quick(Pass::Arch, ContractKind::ArchSeq, Adversary::CacheTlb);
        fuzz.programs = 6;
        fuzz.inputs_per_program = 2;
        fuzz.workers = Some(1);
        fuzz.capture_traces = false;
        let mut cfg = CampaignConfig::new(fuzz);
        cfg.chunk_size = 2;
        cfg
    }

    #[test]
    fn snapshot_roundtrips_every_field() {
        let mut state = CampaignReport {
            programs_done: 7,
            chunks_done: 3,
            prefilter_pairs: 10,
            prefilter_rejected: 4,
            hw_pairs: 9,
            candidates: 2,
            stopped: true,
            complete: false,
            resumed: false,
            ..Default::default()
        };
        state.report.tests = 18;
        state.report.violations = 1;
        state.report.examples.push(Violation {
            program_seed: 0xdead,
            input_index: 1,
            false_positive: false,
            trace: Some("line1\nline2 \"quoted\"".to_string()),
        });
        state.coverage.insert("rsb|squash:branch".into(), 5);
        state.triage.insert(
            "rules[] squashes[branch]".into(),
            TriageBucket {
                count: 2,
                false_positives: 1,
                first_program_seed: 42,
                first_input_index: 0,
            },
        );
        let dir = std::env::temp_dir().join("protean_campaign_test_roundtrip");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("snap.json");
        save_snapshot(&path, "fp", &state).unwrap();
        let loaded = load_snapshot(&path, "fp").unwrap();
        // `complete` is recomputed by the driver, not persisted; compare
        // digests after normalizing it.
        let mut expect = state.clone();
        expect.complete = false;
        assert_eq!(loaded.digest(), expect.digest());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn snapshot_fingerprint_mismatch_is_refused() {
        let dir = std::env::temp_dir().join("protean_campaign_test_fp");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("snap.json");
        save_snapshot(&path, "aaaa", &CampaignReport::default()).unwrap();
        let err = load_snapshot(&path, "bbbb").unwrap_err();
        assert!(
            matches!(&err, SnapshotError::Fingerprint { found, expected, .. }
                if found == "aaaa" && expected == "bbbb"),
            "{err}"
        );
        assert!(err.to_string().contains("different campaign config"));
    }

    /// Rewrites a saved snapshot through `edit` and loads it back.
    fn load_edited(
        name: &str,
        edit: impl Fn(String) -> String,
    ) -> Result<CampaignReport, SnapshotError> {
        let dir = std::env::temp_dir().join("protean_campaign_test_edit");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join(format!("{name}.json"));
        save_snapshot(&path, "fp", &CampaignReport::default()).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, edit(text)).unwrap();
        let loaded = load_snapshot(&path, "fp");
        let _ = std::fs::remove_file(&path);
        loaded
    }

    #[test]
    fn snapshot_without_meta_rows_is_refused() {
        for meta in ["version", "fingerprint"] {
            let err = load_edited(meta, |t| {
                t.replace(&format!("\"key\":\"{meta}\""), "\"key\":\"other\"")
            })
            .unwrap_err();
            assert!(
                matches!(&err, SnapshotError::Malformed { reason, .. } if reason.contains("meta/")),
                "{meta}: {err}"
            );
        }
    }

    #[test]
    fn snapshot_with_unparsable_counter_is_refused() {
        let err = load_edited("counter", |t| t.replace("\"0\"", "\"zero\"")).unwrap_err();
        assert!(
            matches!(&err, SnapshotError::Malformed { reason, .. } if reason.contains("does not parse")),
            "{err}"
        );
        // The unedited file loads.
        assert!(load_edited("intact", |t| t).is_ok());
    }

    #[test]
    fn unreadable_or_non_json_snapshot_is_an_error() {
        let missing = std::env::temp_dir().join("protean_campaign_test_missing/none.json");
        assert!(matches!(
            load_snapshot(&missing, "fp"),
            Err(SnapshotError::Io { .. })
        ));
        let err = load_edited("garbage", |_| "not a snapshot".into()).unwrap_err();
        assert!(matches!(err, SnapshotError::Malformed { .. }), "{err}");
    }

    #[test]
    fn features_off_campaign_matches_fuzz() {
        let cfg = tiny_cfg();
        let direct = crate::fuzz(&cfg.fuzz, &|| Box::new(UnsafePolicy));
        let engine = run_campaign(&cfg, &|| Box::new(UnsafePolicy)).unwrap();
        assert_eq!(format!("{direct:?}"), format!("{:?}", engine.report));
        assert!(engine.complete);
        assert_eq!(engine.programs_done, cfg.fuzz.programs);
    }

    #[test]
    fn coverage_weights_favor_undercovered_templates() {
        let mut cov = BTreeMap::new();
        cov.insert("rsb|ran".to_string(), 9u64);
        cov.insert("rsb|squash:branch".to_string(), 1u64);
        let w = coverage_weights(&cov);
        // rsb has 10 events, everything else 0 → weight 1 vs 11.
        let rsb = GadgetTemplate::ALL
            .iter()
            .position(|t| t.name() == "rsb")
            .unwrap();
        assert_eq!(w[rsb], 1);
        for (i, &wi) in w.iter().enumerate() {
            if i != rsb {
                assert_eq!(wi, 11);
            }
        }
    }

    #[test]
    fn fingerprint_ignores_workers_and_kill_knobs() {
        let mut a = tiny_cfg();
        let mut b = tiny_cfg();
        b.fuzz.workers = Some(4);
        b.max_chunks_per_call = Some(1);
        b.snapshot = Some(PathBuf::from("/tmp/elsewhere.json"));
        assert_eq!(config_fingerprint(&a), config_fingerprint(&b));
        a.fuzz.gen.seed = 99;
        assert_ne!(config_fingerprint(&a), config_fingerprint(&b));
    }
}
