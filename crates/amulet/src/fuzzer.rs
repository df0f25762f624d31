//! The fuzzing campaign's vocabulary and batch entry point (paper §VII-B).
//!
//! For each generated program: instrument with a ProtCC pass, find
//! secret-mutation input pairs that are *contract-equivalent* (identical
//! observer-mode traces under SEQ execution), run both inputs on the
//! defended microarchitecture, and flag a **contract violation** when
//! the adversary's observations differ. Candidate violations whose
//! *committed* fingerprints differ are classified as false positives
//! (the §VII-B1e post-processing filter).
//!
//! This module holds the configuration, report types and the SEQ-oracle
//! and input helpers; the per-program worker that does the steps above
//! is the campaign engine's (`crate::campaign`), and [`fuzz`] is a
//! single-chunk call into it.

use crate::campaign::{run_campaign, CampaignConfig};
use crate::generator::{
    self, GadgetTemplate, GenConfig, PUBLIC_BASE, PUBLIC_SIZE, SECRET_BASE, SECRET_SIZE,
};
use protean_arch::{
    ArchState, Emulator, ExecRecord, ExitStatus, ObserverMode, OracleMode, ThreadedProgram,
};
use protean_cc::{public_typing, Pass};
use protean_isa::Program;
use protean_rng::{Rng, SplitMix64};
use protean_sim::{Core, CoreConfig, DefensePolicy, SimResult, Trace};

/// Which security contract to test against (paper §II-C, §VII-B1c).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ContractKind {
    /// ARCH-SEQ: sequentially accessed data is public.
    ArchSeq,
    /// CT-SEQ: sequentially transmitted operands are public.
    CtSeq,
    /// CTS-SEQ: CT plus publicly-*typed* register values.
    CtsSeq,
    /// UNPROT-SEQ: CT plus ProtISA-unprotected register values.
    UnprotSeq,
}

impl ContractKind {
    /// Contract name for reports.
    pub fn name(self) -> &'static str {
        match self {
            ContractKind::ArchSeq => "ARCH-SEQ",
            ContractKind::CtSeq => "CT-SEQ",
            ContractKind::CtsSeq => "CTS-SEQ",
            ContractKind::UnprotSeq => "UNPROT-SEQ",
        }
    }

    /// Builds the observer mode for a given (instrumented) binary.
    pub fn observer(self, program: &Program) -> ObserverMode {
        match self {
            ContractKind::ArchSeq => ObserverMode::Arch,
            ContractKind::CtSeq => ObserverMode::Ct,
            ContractKind::CtsSeq => ObserverMode::Cts(public_typing(program)),
            ContractKind::UnprotSeq => ObserverMode::Unprot,
        }
    }
}

/// The adversary model (paper §VII-B1d).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Adversary {
    /// AMuLeT's default: data-cache (and TLB) tag state.
    CacheTlb,
    /// AMuLeT\*'s addition: the cycle at which each committed
    /// instruction reaches each pipeline stage (surfaces SMT-grade
    /// timing channels, e.g. the divider).
    Timing,
}

impl Adversary {
    /// Adversary name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Adversary::CacheTlb => "cache+TLB",
            Adversary::Timing => "timing",
        }
    }

    /// Whether the adversary can distinguish the two runs. Compares the
    /// observations in place — no copy of the cache or timing trace is
    /// ever materialised.
    pub(crate) fn observations_differ(self, a: &SimResult, b: &SimResult) -> bool {
        match self {
            Adversary::CacheTlb => a.cache_obs != b.cache_obs,
            Adversary::Timing => a.timing != b.timing,
        }
    }
}

/// Fuzzing-campaign configuration.
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    /// Number of programs to generate.
    pub programs: usize,
    /// Secret mutations (input pairs) per program.
    pub inputs_per_program: usize,
    /// Generator settings (seed is advanced per program).
    pub gen: GenConfig,
    /// Instrumentation pass applied to every test binary.
    pub pass: Pass,
    /// The contract under test.
    pub contract: ContractKind,
    /// The adversary model.
    pub adversary: Adversary,
    /// Core configuration for the hardware runs.
    pub core: CoreConfig,
    /// Step/instruction budget per run.
    pub max_steps: u64,
    /// Stop the campaign at the first true-positive violation (as each
    /// AMuLeT\* instance does).
    pub stop_at_first: bool,
    /// Restrict gadget segments to one template (targeted validation of
    /// a single speculation primitive); `None` = the full mix.
    pub only_template: Option<GadgetTemplate>,
    /// Worker threads for the per-program fan-out: `None` resolves via
    /// `PROTEAN_JOBS` / available parallelism (see `protean_jobs`).
    /// Reports are byte-identical at any worker count.
    pub workers: Option<usize>,
    /// Which SEQ-oracle backend produces the contract traces: the
    /// threaded-code lowering (the [`FuzzConfig::quick`] default, fast)
    /// or the `match`-based interpreter (the differential reference).
    /// Both produce identical traces and therefore identical reports.
    pub oracle: OracleMode,
    /// Capture rendered pipeline traces for example violations (a traced
    /// re-run per recorded example). Throughput benchmarks switch this
    /// off; every *deterministic* report counter is unaffected either
    /// way.
    pub capture_traces: bool,
}

impl FuzzConfig {
    /// A small default campaign suitable for CI.
    pub fn quick(pass: Pass, contract: ContractKind, adversary: Adversary) -> FuzzConfig {
        FuzzConfig {
            programs: 20,
            inputs_per_program: 3,
            gen: GenConfig::default(),
            pass,
            contract,
            adversary,
            core: CoreConfig::test_tiny(),
            max_steps: 60_000,
            stop_at_first: false,
            only_template: None,
            workers: None,
            oracle: OracleMode::Threaded,
            capture_traces: true,
        }
    }
}

/// One detected contract violation.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Generator seed of the offending program.
    pub program_seed: u64,
    /// Which input pair triggered it.
    pub input_index: usize,
    /// Whether the post-processing filter classified it as a false
    /// positive (committed fingerprints differ — sequential leakage).
    pub false_positive: bool,
    /// Rendered pipeline trace of the leaking run (text diagram plus the
    /// defense-decision audit log), captured by a deterministic traced
    /// re-run of the mutant input when the example is recorded.
    pub trace: Option<String>,
}

/// Campaign results (one row of the paper's Tab. II).
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Microarchitectural executions compared.
    pub tests: u64,
    /// Input pairs rejected as not contract-equivalent.
    pub pairs_rejected: u64,
    /// True-positive violations.
    pub violations: u64,
    /// Filtered false positives.
    pub false_positives: u64,
    /// Total µops committed across all hardware runs (base and mutant),
    /// for campaign-throughput accounting. Deterministic like every
    /// other counter: traced example re-runs are excluded.
    pub committed_uops: u64,
    /// Hardware runs cut off by the cycle/instruction budget before
    /// halting. A truncated run's adversary observations cover only a
    /// prefix of the execution, so comparing it against a completed (or
    /// differently truncated) run would manufacture bogus candidate
    /// violations — such runs are counted here and never compared. A
    /// run that deadlocks is not counted: the campaign panics instead.
    pub hw_truncated: u64,
    /// Mutants skipped because the program's *base* hardware run was
    /// truncated: with no comparison partner they can never be tested,
    /// so none of their hardware runs is paid for and they never touch
    /// `pairs_rejected` (which counts genuine contract-inequivalent
    /// pairs of comparable programs only).
    pub no_partner: u64,
    /// Example violations (up to [`Report::MAX_EXAMPLES`]).
    pub examples: Vec<Violation>,
}

impl Report {
    /// Cap on recorded example violations per report.
    pub const MAX_EXAMPLES: usize = 8;
}

/// Runs a fuzzing campaign against `policy_factory`'s defense.
///
/// Programs are fuzzed **in parallel** (one job per generated program,
/// see [`FuzzConfig::workers`] and `protean_jobs`): every per-program
/// seed is derived up front from `cfg.gen.seed`, each job owns its
/// private RNG, and per-program results are merged in program order, so
/// the report is byte-identical at any worker count. Under
/// `stop_at_first`, later programs may be fuzzed speculatively, but the
/// merge discards everything after the first true positive — again
/// matching the serial report exactly.
///
/// This is [`run_campaign`] with every engine option off, no snapshot,
/// and the whole program stream as one chunk (so the job pool sees
/// every program at once and no chunk barrier ever idles a worker).
///
/// # Examples
///
/// ```
/// use protean_amulet::{fuzz, Adversary, ContractKind, FuzzConfig};
/// use protean_cc::Pass;
/// use protean_sim::UnsafePolicy;
///
/// let mut cfg = FuzzConfig::quick(Pass::Arch, ContractKind::ArchSeq, Adversary::CacheTlb);
/// cfg.programs = 2;
/// cfg.stop_at_first = true;
/// let report = fuzz(&cfg, &|| Box::new(UnsafePolicy));
/// assert!(report.tests > 0);
/// ```
pub fn fuzz(
    cfg: &FuzzConfig,
    policy_factory: &(dyn Fn() -> Box<dyn DefensePolicy> + Sync),
) -> Report {
    let campaign = CampaignConfig {
        chunk_size: cfg.programs,
        ..CampaignConfig::new(cfg.clone())
    };
    run_campaign(&campaign, policy_factory)
        .expect("a campaign without a snapshot has no snapshot to fail on")
        .report
}

/// Derives the `p`-th program's seed from the campaign base seed.
///
/// The base seed is scrambled through SplitMix64's finalizer *before*
/// the program index is mixed in, so campaigns with adjacent base seeds
/// draw disjoint program streams — `wrapping_add(p)` alone made seed 1
/// fuzz seed 0's programs shifted by one.
pub(crate) fn derive_program_seed(base: u64, p: usize) -> u64 {
    let mut sm = SplitMix64::new(base);
    let stream = sm.next_u64();
    let mut sm = SplitMix64::new(stream ^ p as u64);
    sm.next_u64()
}

/// The per-program SEQ oracle: the reference interpreter, or the
/// threaded-code closures (fast mode) built once per program and reused
/// for the base trace and every mutant trace.
pub(crate) enum SeqOracle {
    Interp,
    Threaded(ThreadedProgram),
}

impl SeqOracle {
    pub(crate) fn new(program: &Program, mode: OracleMode) -> SeqOracle {
        match mode {
            OracleMode::Interp => SeqOracle::Interp,
            OracleMode::Threaded => SeqOracle::Threaded(ThreadedProgram::new(program)),
        }
    }

    pub(crate) fn emulator<'a>(&'a self, program: &'a Program, input: &ArchState) -> Emulator<'a> {
        match self {
            SeqOracle::Interp => Emulator::new(program, input.clone()),
            SeqOracle::Threaded(threaded) => {
                Emulator::with_threaded(program, threaded, input.clone())
            }
        }
    }
}

/// Builds a base input: cold chain, public data, registers, secrets.
pub(crate) fn make_input(rng: &mut Rng) -> ArchState {
    let mut state = ArchState::new();
    generator::init_cold_chain(&mut state.mem);
    for i in 0..PUBLIC_SIZE / 8 {
        // Small public values (they index the probe region safely).
        state
            .mem
            .write(PUBLIC_BASE + i * 8, 8, rng.gen_range(0..64));
    }
    randomize_secrets(&mut state, rng);
    for i in 0..6 {
        state.set_reg(protean_isa::Reg::gpr(i), rng.gen_range(0..1024));
    }
    state
}

pub(crate) fn randomize_secrets(state: &mut ArchState, rng: &mut Rng) {
    for i in 0..SECRET_SIZE / 8 {
        state.mem.write(SECRET_BASE + i * 8, 8, rng.gen::<u64>());
    }
}

/// Sequential (contract) trace; `None` if the program misbehaves (bad
/// control flow, or `StepLimit` — an execution the oracle cannot finish
/// is never admitted into a comparison). `records` is a caller-owned
/// scratch buffer (cleared and refilled by the emulator) so repeated
/// traces reuse one allocation.
pub(crate) fn seq_trace(
    program: &Program,
    oracle: &SeqOracle,
    input: &ArchState,
    observer: &ObserverMode,
    max_steps: u64,
    records: &mut Vec<ExecRecord>,
) -> Option<Vec<protean_arch::Obs>> {
    let mut emu = oracle.emulator(program, input);
    let status = emu.run_into(max_steps, records);
    (status == ExitStatus::Halted).then(|| observer.trace(records))
}

/// Re-runs one input with pipeline tracing enabled and returns the raw
/// [`Trace`]. The simulator is deterministic, so the traced run replays
/// the original execution exactly; tracing is kept out of the fuzzing
/// hot loop so the millions of non-violating runs pay nothing for it.
pub(crate) fn traced_replay(
    program: &Program,
    input: &ArchState,
    cfg: &FuzzConfig,
    policy: Box<dyn DefensePolicy>,
) -> Option<Trace> {
    let mut core_cfg = cfg.core.clone();
    core_cfg.trace = true;
    let core = Core::new(program, core_cfg, policy, input);
    let result = core.run(cfg.max_steps, cfg.max_steps * 60);
    result.trace
}

/// Re-runs the violating *pair* with pipeline tracing enabled and
/// renders both counterexample traces side by side. A violation is a
/// difference between the base and mutant executions, so a one-sided
/// rendering hides half the evidence; both halves carry the pipeline
/// timeline and the defense audit log.
pub(crate) fn traced_rerun(
    program: &Program,
    base: &ArchState,
    mutant: &ArchState,
    cfg: &FuzzConfig,
    policy_factory: &(dyn Fn() -> Box<dyn DefensePolicy> + Sync),
) -> Option<String> {
    let render = |trace: &Trace| {
        format!(
            "{}\n{}",
            trace.render_pipeline(48, 120),
            trace.render_audit(16)
        )
    };
    let base_trace = traced_replay(program, base, cfg, policy_factory())?;
    let mutant_trace = traced_replay(program, mutant, cfg, policy_factory())?;
    Some(format!(
        "=== base run ===\n{}\n=== mutant run ===\n{}",
        render(&base_trace),
        render(&mutant_trace)
    ))
}
