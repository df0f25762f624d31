//! `paper_cells` and `sim_long`: cycle-level runs of the paper's
//! workload suites.
//!
//! * `paper_cells` — Tab. IV/V cells: every suite on the presets its
//!   table uses (SPEC2017 on the P- and E-core, PARSEC on the E-core-MT
//!   multicore, the Table V suites and nginx on the P-core), under
//!   Unsafe, the class's baseline, ProtDelay and ProtTrack. Each cell
//!   goes through `protean_bench::run_workload`, a fresh `Core::new` per
//!   cell, exactly as the table binaries run it. The rosters are the
//!   tables' `--quick` rosters.
//! * `sim_long` — the longest kernels at a larger scale on the E-core.
//!   Binaries are prepared during set-up and one arena `Core` is reset
//!   per run, so set-up is amortised and the pipeline runs in steady
//!   state.
//!
//! Modelled caches start empty on every `Core::new` and `Core::reset`,
//! as in the paper's tables.

use crate::spans::Spans;
use crate::stats::{stats_digest, Digest};
use crate::unit::{fold_stats, mispred_rate, record_stats, Column, Outcome, UnitInfo, Workload};
use protean_arch::ArchState;
use protean_bench::{pass_for, run_workload, Binary, Defense, RunResult};
use protean_cc::{compile, compile_with, Pass};
use protean_isa::Program;
use protean_sim::{Core, CoreConfig, Multicore, SimExit, SimResult, Thread};
use protean_workloads::{
    arch_wasm, ct_crypto, cts_crypto, nginx, parsec, spec2017, unr_crypto, Scale, Workload as Suite,
};

/// One table cell: a workload on a core under one column's defense.
struct Cell {
    workload: usize,
    core: usize,
    column: Column,
    binary: Binary,
}

pub struct PaperCells {
    units: Vec<UnitInfo>,
    workloads: Vec<Suite>,
    cores: Vec<CoreConfig>,
    cells: Vec<Cell>,
}

/// The columns of a row whose class baseline is `baseline`.
fn columns(baseline: Defense) -> [Column; 4] {
    [
        Column::Unsafe,
        Column::Baseline(baseline),
        Column::ProtDelay,
        Column::ProtTrack,
    ]
}

/// Builds every suite (the `workloads` layer, including each suite's
/// emulator budget pass) and lays out the cells.
pub fn setup_paper_cells(spans: &mut Spans) -> PaperCells {
    let scale = Scale(1);
    let quick = |mut suite: Vec<Suite>, n: usize| {
        suite.truncate(n);
        suite
    };
    let (spec, par, wasm, cts, ct, unr, web) = spans.span("workloads", |_| {
        (
            quick(spec2017(scale), 3),
            quick(parsec(scale), 2),
            quick(arch_wasm(scale), 2),
            quick(cts_crypto(scale), 2),
            quick(ct_crypto(scale), 2),
            quick(unr_crypto(scale), 2),
            nginx(1, 1, scale),
        )
    });
    let mut bench = PaperCells {
        units: Vec::new(),
        workloads: Vec::new(),
        cores: vec![
            CoreConfig::p_core(),
            CoreConfig::e_core(),
            CoreConfig::e_core_mt(),
        ],
        cells: Vec::new(),
    };
    let (p, e, mt) = (0, 1, 2);
    for (suite, on, baseline) in [
        (spec, &[p, e][..], Defense::Stt),
        (par, &[mt], Defense::Stt),
        (wasm, &[p], Defense::Stt),
        (cts, &[p], Defense::Spt),
        (ct, &[p], Defense::Spt),
        (unr, &[p], Defense::SptSb),
    ] {
        for w in suite {
            let binary = Binary::SingleClass(pass_for(w.class));
            bench.add_row(w, on, baseline, binary);
        }
    }
    // nginx is compiled multi-class from its per-function labels.
    bench.add_row(web, &[p], Defense::SptSb, Binary::MultiClass);
    bench
}

impl PaperCells {
    /// Adds one workload's cells: every column, on each of the `on`
    /// cores. Protean columns run `protean_binary`.
    fn add_row(&mut self, w: Suite, on: &[usize], baseline: Defense, protean_binary: Binary) {
        let workload = self.workloads.len();
        for &core in on {
            let group = workload * self.cores.len() + core;
            for column in columns(baseline) {
                let defense = column.defense();
                self.units.push(UnitInfo {
                    name: format!("{}/{}/{defense:?}", self.cores[core].name, w.name),
                    group,
                    column,
                });
                self.cells.push(Cell {
                    workload,
                    core,
                    column,
                    binary: if column.is_protean() {
                        protean_binary
                    } else {
                        Binary::Base
                    },
                });
            }
        }
        self.workloads.push(w);
    }
}

impl Workload for PaperCells {
    fn units(&self) -> &[UnitInfo] {
        &self.units
    }

    fn run(&mut self, unit: usize) -> Outcome {
        let cell = &self.cells[unit];
        let w = &self.workloads[cell.workload];
        let r = run_workload(
            w,
            &self.cores[cell.core],
            cell.column.defense(),
            cell.binary,
        );
        run_outcome(&r, w.threads.len() as u64, None)
    }

    /// `run_workload`, re-assembled from `compile_with`/`compile`,
    /// `Core::new`, `Core::run` and `Multicore::run`.
    fn run_traced(&mut self, unit: usize, spans: &mut Spans) -> Outcome {
        let cell = &self.cells[unit];
        let w = &self.workloads[cell.workload];
        let core = &self.cores[cell.core];
        let defense = cell.column.defense();
        let max_cycles = w.max_insts * 600;
        let programs: Vec<Program> = w
            .threads
            .iter()
            .map(|(p, _)| prepare_traced(p, cell.binary, spans))
            .collect();
        let mut stats = None;
        let (results, cycles) = if w.is_multithreaded() {
            let threads: Vec<Thread<'_>> = programs
                .iter()
                .zip(&w.threads)
                .map(|(p, (_, init))| Thread {
                    program: p,
                    initial: init.clone(),
                    policy: defense.make(),
                })
                .collect();
            let m = spans.span("sim.multicore", |_| {
                Multicore::new(core.clone()).run(threads, w.max_insts, max_cycles)
            });
            spans.add("sim.multicore.makespan", m.makespan as f64);
            spans.add("sim.multicore.l3_hits", m.l3_hits as f64);
            spans.add("sim.multicore.l3_misses", m.l3_misses as f64);
            for t in &m.threads {
                record_stats(spans, &t.stats, false);
            }
            let mut d = Digest::default();
            d.word(m.makespan).word(m.l3_hits).word(m.l3_misses);
            stats = Some(d);
            (m.threads, m.makespan)
        } else {
            let c = spans.span("sim.setup.new", |_| {
                Core::new(&programs[0], core.clone(), defense.make(), &w.threads[0].1)
            });
            let r = spans.span("sim.pipeline", |_| c.run(w.max_insts, max_cycles));
            record_stats(spans, &r.stats, true);
            let cycles = r.stats.cycles;
            (vec![r], cycles)
        };
        for r in &results {
            fold_stats(&mut stats, &r.stats);
        }
        let sum = |f: fn(&protean_sim::Stats) -> u64| results.iter().map(|r| f(&r.stats)).sum();
        let max = |f: fn(&protean_sim::Stats) -> u64| {
            results.iter().map(|r| f(&r.stats)).max().unwrap_or(0)
        };
        let r = RunResult {
            cycles,
            committed: sum(|s| s.committed),
            mispred_rate: mispred_rate(&results[0].stats),
            exec_blocked_cycles: sum(|s| s.exec_blocked_cycles),
            wakeup_blocked_cycles: sum(|s| s.wakeup_blocked_cycles),
            resolve_blocked_cycles: sum(|s| s.resolve_blocked_cycles),
            iq_hwm: max(|s| s.iq_hwm),
            wheel_hwm: max(|s| s.wheel_hwm),
        };
        let halted = results.iter().all(|r| r.exit == SimExit::Halted);
        Outcome {
            halted,
            ..run_outcome(&r, results.len() as u64, stats.map(|d| d.finish()))
        }
    }
}

/// `protean_bench::prepare` through the ProtCC entry points, booking the
/// pass statistics it hides.
fn prepare_traced(program: &Program, binary: Binary, spans: &mut Spans) -> Program {
    let compiled = match binary {
        Binary::Base => return program.clone(),
        Binary::SingleClass(pass) => spans.span("cc", |_| compile_with(program, pass)),
        Binary::MultiClass => spans.span("cc", |_| compile(program, Pass::Arch)),
    };
    spans.add("cc.prot_prefixes", compiled.stats.prot_prefixes as f64);
    spans.add("cc.identity_moves", compiled.stats.identity_moves as f64);
    compiled.program
}

/// A cell's outcome: the digest covers every `RunResult` field.
fn run_outcome(r: &RunResult, runs: u64, stats_digest: Option<u64>) -> Outcome {
    let mut d = Digest::default();
    d.word(r.cycles).word(r.committed);
    match r.mispred_rate {
        Some(rate) => d.word(1).word(rate.to_bits()),
        None => d.word(0),
    };
    d.word(r.exec_blocked_cycles)
        .word(r.wakeup_blocked_cycles)
        .word(r.resolve_blocked_cycles)
        .word(r.iq_hwm)
        .word(r.wheel_hwm);
    Outcome {
        digest: d.finish(),
        stats_digest,
        hw_runs: runs,
        committed: r.committed,
        cycles: r.cycles,
        violations: 0,
        halted: true,
    }
}

/// A workload suite's builder.
type SuiteBuilder = fn(Scale) -> Vec<Suite>;

/// The longest single-thread kernels: name and the suite builder that
/// makes it.
const LONG_KERNELS: [(&str, SuiteBuilder); 3] = [
    ("exchange2.s", spec2017),
    ("bzip2", arch_wasm),
    ("ossl.bnexp", unr_crypto),
];
/// How much longer than the tables' default the kernels run.
const LONG_SCALE: Scale = Scale(2);

/// A prepared binary with the run it belongs to.
struct LongRun {
    program: &'static Program,
    initial: &'static ArchState,
    max_insts: u64,
}

pub struct SimLong {
    units: Vec<UnitInfo>,
    runs: Vec<LongRun>,
    core: Core<'static>,
}

/// Builds the kernels, prepares every binary and constructs the arena
/// core. The binaries live for the rest of the process (the arena core
/// borrows them), so repeated set-ups each keep their own copy.
pub fn setup_sim_long(spans: &mut Spans) -> SimLong {
    let core_cfg = CoreConfig::e_core();
    let mut units = Vec::new();
    let mut runs = Vec::new();
    for (group, (name, suite)) in LONG_KERNELS.into_iter().enumerate() {
        let w = spans
            .span("workloads", |_| suite(LONG_SCALE))
            .into_iter()
            .find(|w| w.name == name)
            .expect("long kernel is in its suite");
        let (program, initial) = w.threads.into_iter().next().expect("one thread");
        let initial: &'static ArchState = Box::leak(Box::new(initial));
        let base: &'static Program = Box::leak(Box::new(program));
        let protcc: &'static Program = Box::leak(Box::new(prepare_traced(
            base,
            Binary::SingleClass(pass_for(w.class)),
            spans,
        )));
        for column in columns(Defense::SptSb) {
            units.push(UnitInfo {
                name: format!("{}/{name}/{:?}", core_cfg.name, column.defense()),
                group,
                column,
            });
            runs.push(LongRun {
                program: if column.is_protean() { protcc } else { base },
                initial,
                max_insts: w.max_insts,
            });
        }
    }
    let first = &runs[0];
    let core = spans.span("sim.setup.new", |_| {
        Core::new(
            first.program,
            core_cfg,
            Defense::Unsafe.make(),
            first.initial,
        )
    });
    SimLong { units, runs, core }
}

impl SimLong {
    fn run_with(&mut self, unit: usize, spans: &mut Spans) -> Outcome {
        let run = &self.runs[unit];
        let defense = self.units[unit].column.defense();
        let core = &mut self.core;
        spans.span("sim.setup.reset", |_| {
            core.reset(run.program, defense.make(), run.initial)
        });
        let r = spans.span("sim.pipeline", |_| {
            core.run_mut(run.max_insts, run.max_insts * 600)
        });
        record_stats(spans, &r.stats, true);
        long_outcome(&r)
    }
}

impl Workload for SimLong {
    fn units(&self) -> &[UnitInfo] {
        &self.units
    }

    fn run(&mut self, unit: usize) -> Outcome {
        self.run_with(unit, &mut Spans::off())
    }

    fn run_traced(&mut self, unit: usize, spans: &mut Spans) -> Outcome {
        self.run_with(unit, spans)
    }
}

/// A long run's outcome: the digest covers the exit, every `Stats` field
/// and the final registers.
fn long_outcome(r: &SimResult) -> Outcome {
    let mut d = Digest::default();
    d.bytes(format!("{:?}", r.exit).as_bytes());
    stats_digest(&mut d, &r.stats);
    for &reg in &r.final_regs {
        d.word(reg);
    }
    Outcome {
        digest: d.finish(),
        stats_digest: None,
        hw_runs: 1,
        committed: r.stats.committed,
        cycles: r.stats.cycles,
        violations: 0,
        halted: r.exit == SimExit::Halted,
    }
}

/// A one-row `paper_cells` on the tiny core, for tests.
#[cfg(test)]
pub fn tiny_paper_cells() -> PaperCells {
    let mut bench = PaperCells {
        units: Vec::new(),
        workloads: Vec::new(),
        cores: vec![CoreConfig::test_tiny()],
        cells: Vec::new(),
    };
    let w = cts_crypto(Scale(1)).swap_remove(1);
    let binary = Binary::SingleClass(pass_for(w.class));
    bench.add_row(w, &[0], Defense::Spt, binary);
    bench
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_cells_reproduce_run_workload() {
        let mut bench = tiny_paper_cells();
        for u in 0..bench.units().len() {
            let untraced = bench.run(u);
            let mut spans = Spans::default();
            let traced = bench.run_traced(u, &mut spans);
            assert_eq!(untraced.digest, traced.digest, "{}", bench.units[u].name);
            assert!(traced.stats_digest.is_some());
            assert!(spans.counts()["sim.pipeline.committed"] > 0.0);
        }
    }
}
