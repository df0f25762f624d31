//! `campaign`: the Table II roster of AMuLeT\* contract-testing
//! campaigns (paper §VII-B): five contract × ProtCC rows, each under
//! Unsafe, ProtDelay and ProtTrack, each cell fuzzing against both the
//! cache+TLB and the timing adversary on the `test_tiny` core.
//!
//! Many tiny programs: generation, ProtCC, the SEQ oracle, adversary
//! comparison and the per-run `Core::reset` carry most of the time.
//!
//! The untraced unit calls `protean_amulet::fuzz`. The traced unit
//! re-assembles the same campaign from the public layer calls and must
//! reproduce every `Report` counter; set-up runs it once, untraced by
//! spans, to obtain each cell's reference outcome and simulated cycles
//! (which `fuzz` does not report).

use crate::spans::Spans;
use crate::stats::Digest;
use crate::unit::{record_stats, Column, Outcome, UnitInfo, Workload};
use protean_amulet::{
    fuzz, generate, init_cold_chain, Adversary, ContractKind, FuzzConfig, GenConfig, Report,
    Violation, PUBLIC_BASE, PUBLIC_SIZE, SECRET_BASE, SECRET_SIZE,
};
use protean_arch::{
    ArchState, Emulator, ExecRecord, ExitStatus, Obs, ObserverMode, OracleMode, ThreadedProgram,
};
use protean_bench::Defense;
use protean_cc::{compile_with, Pass};
use protean_isa::{Program, Reg};
use protean_rng::{Rng, SplitMix64};
use protean_sim::{Core, SimExit, SimResult, Trace};

/// Generated programs per campaign (per adversary, per cell).
const PROGRAMS: usize = 12;
/// Secret mutations per program, as in Table II.
const INPUTS_PER_PROGRAM: usize = 3;

/// Table II's rows: contract name, instrumentation, pass, contract.
fn rows() -> [(&'static str, Pass, ContractKind); 5] {
    [
        (
            "ProtCC-RAND",
            Pass::Rand { prob: 0.5, seed: 7 },
            ContractKind::UnprotSeq,
        ),
        ("ProtCC-ARCH", Pass::Arch, ContractKind::ArchSeq),
        ("ProtCC-CTS", Pass::Cts, ContractKind::CtsSeq),
        ("ProtCC-CT", Pass::Ct, ContractKind::CtSeq),
        ("ProtCC-UNR", Pass::Unr, ContractKind::CtSeq),
    ]
}

const COLUMNS: [Column; 3] = [Column::Unsafe, Column::ProtDelay, Column::ProtTrack];
const ADVERSARIES: [Adversary; 2] = [Adversary::CacheTlb, Adversary::Timing];

pub struct Campaign {
    units: Vec<UnitInfo>,
    /// One campaign configuration per adversary, per unit.
    configs: Vec<[FuzzConfig; 2]>,
    reference: Vec<Outcome>,
}

/// Builds the roster for `seed` and computes every cell's reference
/// outcome through the public layer calls.
pub fn setup(seed: u64) -> Campaign {
    let mut units = Vec::new();
    let mut configs = Vec::new();
    for (row, (instr, pass, contract)) in rows().into_iter().enumerate() {
        for column in COLUMNS {
            units.push(UnitInfo {
                name: format!("{instr}/{:?}", column.defense()),
                group: row,
                column,
            });
            configs.push(std::array::from_fn(|a| {
                let mut cfg = FuzzConfig::quick(pass, contract, ADVERSARIES[a]);
                cfg.programs = PROGRAMS;
                cfg.inputs_per_program = INPUTS_PER_PROGRAM;
                // One program stream per row and adversary, shared by
                // the row's three columns as in Table II.
                cfg.gen.seed = seed
                    .wrapping_mul(16)
                    .wrapping_add(2 * row as u64 + a as u64);
                cfg.workers = Some(1);
                cfg.oracle = OracleMode::Threaded;
                cfg.capture_traces = true;
                cfg
            }));
        }
    }
    let mut campaign = Campaign {
        units,
        configs,
        reference: Vec::new(),
    };
    let mut off = Spans::off();
    campaign.reference = (0..campaign.units.len())
        .map(|u| campaign.run_traced(u, &mut off))
        .collect();
    campaign
}

impl Workload for Campaign {
    fn units(&self) -> &[UnitInfo] {
        &self.units
    }

    fn run(&mut self, unit: usize) -> Outcome {
        let defense = self.units[unit].column.defense();
        let reports = self.configs[unit]
            .each_ref()
            .map(|cfg| fuzz(cfg, &move || defense.make()));
        Outcome {
            cycles: self.reference.get(unit).map_or(0, |r| r.cycles),
            ..outcome(&reports, 0)
        }
    }

    fn run_traced(&mut self, unit: usize, spans: &mut Spans) -> Outcome {
        let defense = self.units[unit].column.defense();
        let mut cycles = 0;
        let reports = self.configs[unit]
            .each_ref()
            .map(|cfg| fuzz_traced(cfg, defense, spans, &mut cycles));
        for r in &reports {
            spans.add("amulet.compare.tests", r.tests as f64);
            spans.add(
                "amulet.compare.candidates",
                (r.violations + r.false_positives) as f64,
            );
            spans.add("amulet.compare.false_positives", r.false_positives as f64);
            spans.add("amulet.compare.pairs_rejected", r.pairs_rejected as f64);
            spans.add("amulet.compare.hw_truncated", r.hw_truncated as f64);
        }
        outcome(&reports, cycles)
    }

    fn reference(&self, unit: usize) -> Option<Outcome> {
        self.reference.get(unit).copied()
    }
}

/// A cell's outcome from its two campaign reports.
fn outcome(reports: &[Report; 2], cycles: u64) -> Outcome {
    let mut d = Digest::default();
    for r in reports {
        report_digest(&mut d, r);
    }
    Outcome {
        digest: d.finish(),
        stats_digest: None,
        hw_runs: reports.iter().map(|r| r.tests).sum(),
        committed: reports.iter().map(|r| r.committed_uops).sum(),
        cycles,
        violations: reports.iter().map(|r| r.violations).sum(),
        halted: true,
    }
}

/// Digest of every `Report` counter and every example violation,
/// rendered traces included.
pub fn report_digest(d: &mut Digest, r: &Report) {
    for w in [
        r.tests,
        r.pairs_rejected,
        r.violations,
        r.false_positives,
        r.committed_uops,
        r.hw_truncated,
        r.no_partner,
        r.examples.len() as u64,
    ] {
        d.word(w);
    }
    for v in &r.examples {
        d.word(v.program_seed)
            .word(v.input_index as u64)
            .word(u64::from(v.false_positive));
        match &v.trace {
            Some(t) => d.word(1).bytes(t.as_bytes()),
            None => d.word(0),
        };
    }
}

/// One campaign, re-assembled from the public layer calls: the same
/// per-program seeds, inputs, SEQ traces, hardware runs, comparisons
/// and traced replays as `fuzz` with one worker and no early stop.
/// Adds the simulated cycles of every hardware run to `cycles`.
fn fuzz_traced(cfg: &FuzzConfig, defense: Defense, spans: &mut Spans, cycles: &mut u64) -> Report {
    let mut report = Report::default();
    for p in 0..cfg.programs {
        let local = program_traced(cfg, p, defense, spans, cycles);
        report.tests += local.tests;
        report.pairs_rejected += local.pairs_rejected;
        report.violations += local.violations;
        report.false_positives += local.false_positives;
        report.committed_uops += local.committed_uops;
        report.hw_truncated += local.hw_truncated;
        report.no_partner += local.no_partner;
        let room = Report::MAX_EXAMPLES.saturating_sub(report.examples.len());
        report
            .examples
            .extend(local.examples.into_iter().take(room));
    }
    report
}

/// The `p`-th program's seed: the base seed scrambled through
/// SplitMix64, then the program index mixed in.
fn program_seed(base: u64, p: usize) -> u64 {
    let stream = SplitMix64::new(base).next_u64();
    SplitMix64::new(stream ^ p as u64).next_u64()
}

fn program_traced(
    cfg: &FuzzConfig,
    p: usize,
    defense: Defense,
    spans: &mut Spans,
    cycles: &mut u64,
) -> Report {
    let mut report = Report::default();
    let seed = program_seed(cfg.gen.seed, p);
    let gen_cfg = GenConfig {
        seed,
        ..cfg.gen.clone()
    };
    let raw = spans.span("amulet.generator", |_| generate(&gen_cfg));
    spans.add("amulet.generator.insts", raw.len() as f64);
    let compiled = spans.span("cc", |_| compile_with(&raw, cfg.pass));
    spans.add("cc.prot_prefixes", compiled.stats.prot_prefixes as f64);
    spans.add("cc.identity_moves", compiled.stats.identity_moves as f64);
    let program = compiled.program;
    let observer = spans.span("arch.observer", |_| cfg.contract.observer(&program));
    let mut rng = Rng::seed_from_u64(seed ^ 0x5eed);
    let threaded = spans.span("arch.threaded", |_| ThreadedProgram::new(&program));
    let mut records: Vec<ExecRecord> = Vec::new();
    let oracle = Oracle {
        program: &program,
        threaded: &threaded,
        observer: &observer,
        max_steps: cfg.max_steps,
    };
    let (max_insts, max_cycles) = (cfg.max_steps, cfg.max_steps * 60);

    let base = make_input(&mut rng);
    let Some(base_trace) = oracle.trace(&base, &mut records, spans) else {
        return report;
    };
    let mut core = spans.span("sim.setup.new", |_| {
        Core::new(&program, cfg.core.clone(), defense.make(), &base)
    });
    core.record_traces(true);
    let base_hw = spans.span("sim.pipeline", |_| core.run_mut(max_insts, max_cycles));
    hw_run(spans, &base_hw, cycles);
    report.committed_uops += base_hw.stats.committed;
    if base_hw.exit != SimExit::Halted {
        report.hw_truncated += 1;
        report.no_partner += cfg.inputs_per_program as u64;
        return report;
    }

    for i in 0..cfg.inputs_per_program {
        let mut mutant = base.clone();
        randomize_secrets(&mut mutant, &mut rng);
        let Some(mutant_trace) = oracle.trace(&mutant, &mut records, spans) else {
            continue;
        };
        if spans.span("amulet.compare", |_| mutant_trace != base_trace) {
            report.pairs_rejected += 1;
            continue;
        }
        spans.span("sim.setup.reset", |_| {
            core.reset(&program, defense.make(), &mutant);
        });
        core.record_traces(true);
        let mutant_hw = spans.span("sim.pipeline", |_| core.run_mut(max_insts, max_cycles));
        hw_run(spans, &mutant_hw, cycles);
        report.committed_uops += mutant_hw.stats.committed;
        if mutant_hw.exit != SimExit::Halted {
            report.hw_truncated += 1;
            continue;
        }
        report.tests += 2;
        let verdict = spans.span("amulet.compare", |_| {
            observations_differ(cfg.adversary, &base_hw, &mutant_hw)
                .then(|| base_hw.committed_idxs != mutant_hw.committed_idxs)
        });
        if let Some(false_positive) = verdict {
            if false_positive {
                report.false_positives += 1;
            } else {
                report.violations += 1;
            }
            if report.examples.len() < Report::MAX_EXAMPLES {
                let trace = spans.span("sim.trace", |_| {
                    traced_pair(&program, &base, &mutant, cfg, defense)
                });
                report.examples.push(Violation {
                    program_seed: seed,
                    input_index: i,
                    false_positive,
                    trace,
                });
            }
        }
    }
    report
}

/// Books one hardware run.
fn hw_run(spans: &mut Spans, r: &SimResult, cycles: &mut u64) {
    *cycles += r.stats.cycles;
    spans.add("amulet.compare.hw_runs", 1.0);
    record_stats(spans, &r.stats, true);
}

/// The SEQ oracle of one program: threaded lowering plus observer.
struct Oracle<'a> {
    program: &'a Program,
    threaded: &'a ThreadedProgram,
    observer: &'a ObserverMode,
    max_steps: u64,
}

impl Oracle<'_> {
    /// The contract trace of `input`, or `None` when the program does
    /// not halt within the step budget.
    fn trace(
        &self,
        input: &ArchState,
        records: &mut Vec<ExecRecord>,
        spans: &mut Spans,
    ) -> Option<Vec<Obs>> {
        let (status, steps) = spans.span("arch.emulator", |_| {
            let mut emu = Emulator::with_threaded(self.program, self.threaded, input.clone());
            let status = emu.run_into(self.max_steps, records);
            (status, emu.steps())
        });
        spans.add("arch.emulator.steps", steps as f64);
        if status != ExitStatus::Halted {
            return None;
        }
        let obs = spans.span("arch.observer", |_| self.observer.trace(records));
        spans.add("arch.observer.obs", obs.len() as f64);
        Some(obs)
    }
}

fn observations_differ(adversary: Adversary, a: &SimResult, b: &SimResult) -> bool {
    match adversary {
        Adversary::CacheTlb => a.cache_obs != b.cache_obs,
        Adversary::Timing => a.timing != b.timing,
    }
}

/// A base input: cold chain, small public values, secrets, registers.
fn make_input(rng: &mut Rng) -> ArchState {
    let mut state = ArchState::new();
    init_cold_chain(&mut state.mem);
    for i in 0..PUBLIC_SIZE / 8 {
        state
            .mem
            .write(PUBLIC_BASE + i * 8, 8, rng.gen_range(0..64));
    }
    randomize_secrets(&mut state, rng);
    for i in 0..6 {
        state.set_reg(Reg::gpr(i), rng.gen_range(0..1024));
    }
    state
}

fn randomize_secrets(state: &mut ArchState, rng: &mut Rng) {
    for i in 0..SECRET_SIZE / 8 {
        state.mem.write(SECRET_BASE + i * 8, 8, rng.gen::<u64>());
    }
}

/// Replays the violating pair with pipeline tracing on and renders both
/// traces side by side.
fn traced_pair(
    program: &Program,
    base: &ArchState,
    mutant: &ArchState,
    cfg: &FuzzConfig,
    defense: Defense,
) -> Option<String> {
    let replay = |input: &ArchState| -> Option<Trace> {
        let mut core_cfg = cfg.core.clone();
        core_cfg.trace = true;
        let core = Core::new(program, core_cfg, defense.make(), input);
        core.run(cfg.max_steps, cfg.max_steps * 60).trace
    };
    let render = |t: &Trace| format!("{}\n{}", t.render_pipeline(48, 120), t.render_audit(16));
    let base_trace = replay(base)?;
    let mutant_trace = replay(mutant)?;
    Some(format!(
        "=== base run ===\n{}\n=== mutant run ===\n{}",
        render(&base_trace),
        render(&mutant_trace)
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_campaign_reproduces_fuzz() {
        let cases = [
            (
                Defense::Unsafe,
                Pass::Arch,
                ContractKind::ArchSeq,
                Adversary::CacheTlb,
            ),
            (
                Defense::ProtTrack,
                Pass::Rand { prob: 0.5, seed: 7 },
                ContractKind::UnprotSeq,
                Adversary::Timing,
            ),
        ];
        for (defense, pass, contract, adversary) in cases {
            let mut cfg = FuzzConfig::quick(pass, contract, adversary);
            cfg.programs = 3;
            cfg.gen.seed = 5;
            cfg.workers = Some(1);
            cfg.oracle = OracleMode::Threaded;
            let untraced = fuzz(&cfg, &move || defense.make());
            let mut spans = Spans::default();
            let mut cycles = 0;
            let traced = fuzz_traced(&cfg, defense, &mut spans, &mut cycles);
            let digest = |r: &Report| {
                let mut d = Digest::default();
                report_digest(&mut d, r);
                d.finish()
            };
            assert_eq!(digest(&untraced), digest(&traced), "{defense:?}");
            assert!(untraced.tests > 0 && cycles > 0);
            assert_eq!(
                spans.counts()["sim.pipeline.committed"],
                untraced.committed_uops as f64
            );
        }
    }
}
