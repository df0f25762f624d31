//! # protean-bench
//!
//! The benchmark harness that regenerates every results table and figure
//! of *"Protean: A Programmable Spectre Defense"* (HPCA 2026). Each
//! binary corresponds to one table/figure (see `DESIGN.md` §5 and
//! `EXPERIMENTS.md`):
//!
//! | Binary | Reproduces |
//! |--------|------------|
//! | `table_i` | Tab. I — targeting matrix with headline overheads |
//! | `table_ii` | Tab. II — AMuLeT\* contract-violation campaigns |
//! | `table_iv` | Tab. IV — SPEC2017 (P/E-core) + PARSEC geomeans |
//! | `table_v` | Tab. V — single-class suites + multi-class nginx |
//! | `figure_5` | Fig. 5 — access-predictor sensitivity sweep |
//! | `figure_6` | Fig. 6 — per-benchmark normalized runtimes |
//! | `ablation_*` | §IX-A2…A7 studies |
//!
//! All binaries accept `--quick` (smaller rosters) and print normalized
//! runtimes (defense cycles / unsafe-baseline cycles on the same
//! workload and core).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod report;

use protean_baselines::{AccessDelayPolicy, SptPolicy, SptSbPolicy, SttPolicy};
use protean_cc::{compile, compile_with, Pass};
use protean_core::{ProtDelayPolicy, ProtTrackPolicy};
use protean_isa::{Program, SecurityClass};
use protean_sim::{Core, CoreConfig, DefensePolicy, Multicore, SimExit, Thread, UnsafePolicy};
use protean_workloads::Workload;

/// A defense configuration to benchmark.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Defense {
    /// The unmodified core.
    Unsafe,
    /// NDA (AccessDelay).
    Nda,
    /// STT, fully patched.
    Stt,
    /// SPT, fully patched.
    Spt,
    /// SPT without the 32-bit untaint performance fix (§IX-A7).
    SptNoPerfFix,
    /// SPT-SB, fully patched.
    SptSb,
    /// STT as originally released (§IX-A7).
    SttOriginal,
    /// SPT as originally released.
    SptOriginal,
    /// SPT-SB as originally released.
    SptSbOriginal,
    /// Protean with ProtDelay.
    ProtDelay,
    /// Protean with ProtTrack (1024-entry predictor).
    ProtTrack,
    /// ProtTrack with a custom predictor size (Fig. 5).
    ProtTrackEntries(usize),
    /// ProtTrack with an unbounded predictor (Fig. 5 asymptote).
    ProtTrackUnbounded,
    /// Raw AccessDelay under ProtISA (§IX-A4).
    RawAccessDelay,
    /// Raw AccessTrack under ProtISA (§IX-A4).
    RawAccessTrack,
}

impl Defense {
    /// Instantiates the policy.
    pub fn make(self) -> Box<dyn DefensePolicy> {
        match self {
            Defense::Unsafe => Box::new(UnsafePolicy),
            Defense::Nda => Box::new(AccessDelayPolicy::nda()),
            Defense::Stt => Box::new(SttPolicy::fixed()),
            Defense::Spt => Box::new(SptPolicy::fixed()),
            Defense::SptNoPerfFix => Box::new(SptPolicy::fixed_without_perf_fix()),
            Defense::SptSb => Box::new(SptSbPolicy::fixed()),
            Defense::SttOriginal => Box::new(SttPolicy::original()),
            Defense::SptOriginal => Box::new(SptPolicy::original()),
            Defense::SptSbOriginal => Box::new(SptSbPolicy::original()),
            Defense::ProtDelay => Box::new(ProtDelayPolicy::new()),
            Defense::ProtTrack => Box::new(ProtTrackPolicy::new()),
            Defense::ProtTrackEntries(n) => Box::new(ProtTrackPolicy::with_predictor_entries(n)),
            Defense::ProtTrackUnbounded => Box::new(ProtTrackPolicy::unbounded_predictor()),
            Defense::RawAccessDelay => Box::new(ProtDelayPolicy::raw_access_delay()),
            Defense::RawAccessTrack => Box::new(ProtTrackPolicy::raw_access_track()),
        }
    }

    /// Whether this defense runs the ProtCC-instrumented binary (Protean
    /// configurations) rather than the base binary.
    pub fn wants_protcc(self) -> bool {
        matches!(
            self,
            Defense::ProtDelay
                | Defense::ProtTrack
                | Defense::ProtTrackEntries(_)
                | Defense::ProtTrackUnbounded
                | Defense::RawAccessDelay
                | Defense::RawAccessTrack
        )
    }
}

/// How to prepare the binary for a run.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Binary {
    /// The base (uninstrumented) binary.
    Base,
    /// ProtCC with the given single-class pass.
    SingleClass(Pass),
    /// ProtCC multi-class compilation from the program's function labels.
    MultiClass,
}

/// Prepares the program for a run.
pub fn prepare(program: &Program, binary: Binary) -> Program {
    match binary {
        Binary::Base => program.clone(),
        Binary::SingleClass(pass) => compile_with(program, pass).program,
        Binary::MultiClass => compile(program, Pass::Arch).program,
    }
}

/// The single-class ProtCC pass for a workload's declared class.
pub fn pass_for(class: SecurityClass) -> Pass {
    Pass::for_class(class)
}

/// Result of one measured run.
#[derive(Clone, Copy, Debug)]
pub struct RunResult {
    /// Execution time: cycles for single-thread, makespan for
    /// multi-thread.
    pub cycles: u64,
    /// Committed µops (summed over threads).
    pub committed: u64,
    /// Access-predictor misprediction rate, when the policy reports one.
    pub mispred_rate: Option<f64>,
    /// Cycles µops spent blocked at the execute gate (summed over
    /// threads).
    pub exec_blocked_cycles: u64,
    /// Cycles µops spent blocked at the wakeup gate (summed over
    /// threads).
    pub wakeup_blocked_cycles: u64,
    /// Cycles squashes spent blocked at the resolve gate (summed over
    /// threads).
    pub resolve_blocked_cycles: u64,
    /// Issue-queue occupancy high-water mark (max over threads).
    pub iq_hwm: u64,
    /// Completion-wheel occupancy high-water mark (max over threads).
    pub wheel_hwm: u64,
}

/// Runs `workload` under `defense` on `core`, preparing the binary per
/// `binary`.
///
/// # Panics
///
/// Panics if the simulation deadlocks or exceeds its budget — workloads
/// are sized to halt on their own.
pub fn run_workload(
    workload: &Workload,
    core: &CoreConfig,
    defense: Defense,
    binary: Binary,
) -> RunResult {
    let max_cycles = workload.max_insts * 600;
    if workload.is_multithreaded() {
        let programs: Vec<Program> = workload
            .threads
            .iter()
            .map(|(p, _)| prepare(p, binary))
            .collect();
        let threads: Vec<Thread<'_>> = programs
            .iter()
            .zip(&workload.threads)
            .map(|(p, (_, init))| Thread {
                program: p,
                initial: init.clone(),
                policy: defense.make(),
            })
            .collect();
        let result = Multicore::new(core.clone()).run(threads, workload.max_insts, max_cycles);
        for (i, t) in result.threads.iter().enumerate() {
            assert_eq!(
                t.exit,
                SimExit::Halted,
                "{} thread {i} under {defense:?}: {:?}\n{}",
                workload.name,
                t.exit,
                t.deadlock_dump.as_deref().unwrap_or("")
            );
        }
        let sum = |f: fn(&protean_sim::Stats) -> u64| -> u64 {
            result.threads.iter().map(|t| f(&t.stats)).sum()
        };
        RunResult {
            cycles: result.makespan,
            committed: result.total_committed(),
            mispred_rate: mispred_of(&result.threads[0].stats.policy),
            exec_blocked_cycles: sum(|s| s.exec_blocked_cycles),
            wakeup_blocked_cycles: sum(|s| s.wakeup_blocked_cycles),
            resolve_blocked_cycles: sum(|s| s.resolve_blocked_cycles),
            // Occupancy peaks are per-core facts: max, not sum.
            iq_hwm: result
                .threads
                .iter()
                .map(|t| t.stats.iq_hwm)
                .max()
                .unwrap_or(0),
            wheel_hwm: result
                .threads
                .iter()
                .map(|t| t.stats.wheel_hwm)
                .max()
                .unwrap_or(0),
        }
    } else {
        let (program, init) = &workload.threads[0];
        let prepared = prepare(program, binary);
        let c = Core::new(&prepared, core.clone(), defense.make(), init);
        let result = c.run(workload.max_insts, max_cycles);
        assert_eq!(
            result.exit,
            SimExit::Halted,
            "{} under {defense:?}: {:?}\n{}",
            workload.name,
            result.exit,
            result.deadlock_dump.as_deref().unwrap_or("")
        );
        RunResult {
            cycles: result.stats.cycles,
            committed: result.stats.committed,
            mispred_rate: mispred_of(&result.stats.policy),
            exec_blocked_cycles: result.stats.exec_blocked_cycles,
            wakeup_blocked_cycles: result.stats.wakeup_blocked_cycles,
            resolve_blocked_cycles: result.stats.resolve_blocked_cycles,
            iq_hwm: result.stats.iq_hwm,
            wheel_hwm: result.stats.wheel_hwm,
        }
    }
}

fn mispred_of(policy_stats: &[(String, f64)]) -> Option<f64> {
    policy_stats
        .iter()
        .find(|(k, _)| k == "access_pred_mispred_rate")
        .map(|(_, v)| *v)
}

/// One measured table cell: the defense run, its unsafe baseline on the
/// same core, and the normalized runtime relating them.
#[derive(Clone, Copy, Debug)]
pub struct Measured {
    /// The defense run.
    pub run: RunResult,
    /// The unsafe-baseline run on the same workload and core.
    pub base: RunResult,
    /// `run.cycles / base.cycles`.
    pub norm: f64,
}

/// Runs `defense` and the unsafe baseline on `workload`, returning both
/// results plus the normalized runtime. The JSON-emitting bench binaries
/// use this instead of [`normalized`] so a single cell job yields every
/// reported counter.
pub fn measure(
    workload: &Workload,
    core: &CoreConfig,
    defense: Defense,
    binary: Binary,
) -> Measured {
    let base = run_workload(workload, core, Defense::Unsafe, Binary::Base);
    let run = run_workload(workload, core, defense, binary);
    Measured {
        run,
        base,
        norm: run.cycles as f64 / base.cycles as f64,
    }
}

/// Normalized runtime of `defense` on `workload`: defense cycles divided
/// by the unsafe baseline's cycles (both on `core`).
pub fn normalized(workload: &Workload, core: &CoreConfig, defense: Defense, binary: Binary) -> f64 {
    measure(workload, core, defense, binary).norm
}

/// The binary a defense should run for a single-class workload.
pub fn binary_for(defense: Defense, class: SecurityClass) -> Binary {
    if defense.wants_protcc() {
        Binary::SingleClass(pass_for(class))
    } else {
        Binary::Base
    }
}

/// Geometric mean.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Simple aligned table printer.
pub struct TablePrinter {
    widths: Vec<usize>,
}

impl TablePrinter {
    /// Creates a printer with the given column widths.
    pub fn new(widths: &[usize]) -> TablePrinter {
        TablePrinter {
            widths: widths.to_vec(),
        }
    }

    /// Prints one row.
    pub fn row(&self, cells: &[String]) {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate() {
            let w = self.widths.get(i).copied().unwrap_or(12);
            line.push_str(&format!("{cell:<w$} "));
        }
        println!("{}", line.trim_end());
    }

    /// Prints a separator.
    pub fn sep(&self) {
        let total: usize = self.widths.iter().sum::<usize>() + self.widths.len();
        println!("{}", "-".repeat(total));
    }
}

/// Formats a normalized runtime like the paper (`1.369`).
pub fn fmt_norm(v: f64) -> String {
    format!("{v:.3}")
}

/// Parses the common CLI flags: returns (quick, scale).
pub fn parse_flags() -> (bool, u64) {
    let mut quick = false;
    let mut scale = 1u64;
    let args: Vec<String> = std::env::args().collect();
    for (i, a) in args.iter().enumerate() {
        match a.as_str() {
            "--quick" => quick = true,
            "--scale" => {
                scale = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| {
                        eprintln!("--scale requires an integer");
                        std::process::exit(2);
                    });
            }
            _ => {}
        }
    }
    (quick, scale)
}

#[cfg(test)]
mod tests {
    use super::*;
    use protean_workloads::{cts_crypto, Scale};

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!(geomean(&[]).is_nan());
    }

    #[test]
    fn normalized_is_one_for_unsafe() {
        let w = &cts_crypto(Scale(1))[1]; // a small kernel
        let n = normalized(w, &CoreConfig::test_tiny(), Defense::Unsafe, Binary::Base);
        assert!((n - 1.0).abs() < 1e-9);
    }

    #[test]
    fn protean_runs_instrumented_binaries() {
        let w = &cts_crypto(Scale(1))[1];
        let n = normalized(
            w,
            &CoreConfig::test_tiny(),
            Defense::ProtTrack,
            binary_for(Defense::ProtTrack, w.class),
        );
        assert!(n >= 0.95, "normalized runtime {n} suspiciously low");
        assert!(n < 5.0, "normalized runtime {n} suspiciously high");
    }
}
