//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload <campaign|paper_cells|sim_long> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process, one thread, closed loop: each unit of work starts only
//! after the previous one finished. Set-up runs several times and its
//! median is reported; then whole passes over the workload's units
//! repeat until `--seconds` have elapsed. Host times are scaled by the
//! host speed index (`speed.rs`) sampled around each set-up and unit. With
//! `--trace 0` it prints the end-to-end metrics, computed from host
//! time with tracing off, next to deterministic simulated-time results.
//! With `--trace 1` the first half of the time is untraced and the
//! second half traced through the public layer calls, and it prints the
//! per-layer metrics. The last line of standard output is one JSON
//! object. See `README.md` beside this file.

mod campaign;
mod cells;
mod check;
mod host;
mod spans;
mod speed;
mod stats;
mod unit;

use check::{Checker, Pins};
use spans::Spans;
use speed::SpeedLog;
use stats::{geomean_ratio, iqr_share, median, percentile, tail_percentile, trimmed_mean};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;
use unit::{Column, Workload};

const USAGE: &str =
    "usage: perfbench --workload <campaign|paper_cells|sim_long> --seed <n> --seconds <s> --trace <0|1> [--print-pins]";

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// The seed whose `campaign` outcomes are pinned in `pins.txt`; other
/// seeds are held out and run the invariant checks only.
const DEFAULT_SEED: u64 = 1;

/// End-to-end metrics: name and unit. `failed_share` is also printed
/// but is not a JSON metric (it is zero on a correct tree; the JSON's
/// `attempted`/`failed` carry it).
const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("kuops_per_s", "kuops/s"),
    ("runs_per_s", "runs/s"),
    ("cells_per_s", "cells/s"),
    ("cell_ms_p50", "ms"),
    ("cell_ms_p90", "ms"),
    ("sim_mcycles_per_s", "Mcycles/s"),
    ("prottrack_norm", "ratio"),
    ("protdelay_norm", "ratio"),
];

/// Per-layer metrics: name and unit, in report order.
const PER_LAYER: [(&str, &str); 63] = [
    ("amulet.generator.calls", "count"),
    ("amulet.generator.ms", "ms"),
    ("amulet.generator.insts", "count"),
    ("cc.calls", "count"),
    ("cc.ms", "ms"),
    ("cc.prot_prefixes", "count"),
    ("cc.identity_moves", "count"),
    ("arch.threaded.calls", "count"),
    ("arch.threaded.ms", "ms"),
    ("arch.emulator.calls", "count"),
    ("arch.emulator.ms", "ms"),
    ("arch.emulator.steps", "count"),
    ("arch.emulator.ns_per_step", "ns"),
    ("arch.observer.ms", "ms"),
    ("arch.observer.obs", "count"),
    ("sim.setup.new_calls", "count"),
    ("sim.setup.new_ms", "ms"),
    ("sim.setup.reset_calls", "count"),
    ("sim.setup.reset_ms", "ms"),
    ("sim.pipeline.calls", "count"),
    ("sim.pipeline.ms", "ms"),
    ("sim.pipeline.cycles", "count"),
    ("sim.pipeline.committed", "count"),
    ("sim.pipeline.fetched", "count"),
    ("sim.pipeline.squashed", "count"),
    ("sim.pipeline.useful_ratio", "ratio"),
    ("sim.pipeline.ns_per_uop", "ns"),
    ("sim.pipeline.ns_per_cycle", "ns"),
    ("sim.cache.l1i_hits", "count"),
    ("sim.cache.l1i_misses", "count"),
    ("sim.cache.l1d_hits", "count"),
    ("sim.cache.l1d_misses", "count"),
    ("sim.cache.l2_hits", "count"),
    ("sim.cache.l2_misses", "count"),
    ("sim.cache.l3_hits", "count"),
    ("sim.cache.l3_misses", "count"),
    ("sim.cache.l1d_hit_ratio", "ratio"),
    ("sim.bpred.branches", "count"),
    ("sim.bpred.mispredicts", "count"),
    ("sim.bpred.branch_squashes", "count"),
    ("sim.bpred.memorder_squashes", "count"),
    ("sim.bpred.divfault_squashes", "count"),
    ("defense.exec_blocked_cycles", "count"),
    ("defense.wakeup_blocked_cycles", "count"),
    ("defense.resolve_blocked_cycles", "count"),
    ("defense.access_pred_mispred_rate", "ratio"),
    ("sim.multicore.calls", "count"),
    ("sim.multicore.ms", "ms"),
    ("sim.multicore.makespan", "count"),
    ("sim.multicore.l3_hits", "count"),
    ("sim.multicore.l3_misses", "count"),
    ("sim.trace.calls", "count"),
    ("sim.trace.ms", "ms"),
    ("amulet.compare.ms", "ms"),
    ("amulet.compare.tests", "count"),
    ("amulet.compare.candidates", "count"),
    ("amulet.compare.false_positives", "count"),
    ("amulet.compare.pairs_rejected", "count"),
    ("amulet.compare.hw_truncated", "count"),
    ("amulet.compare.useful_ratio", "ratio"),
    ("workloads.ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.coverage_pct", "%"),
];

/// Host-time metrics of layers some workload never calls: they read 0
/// there on every run, so the JSON leaves them out and only the text
/// report prints them.
const TEXT_ONLY: [&str; 11] = [
    "amulet.generator.ms",
    "arch.threaded.ms",
    "arch.emulator.ms",
    "arch.emulator.ns_per_step",
    "arch.observer.ms",
    "sim.setup.reset_ms",
    "sim.multicore.ms",
    "sim.trace.ms",
    "amulet.compare.ms",
    "workloads.ms",
    "failed_share",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    print_pins: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut print_pins = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--print-pins" {
            print_pins = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad(&"must be in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["campaign", "paper_cells", "sim_long"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        print_pins,
    })
}

/// The first `PROTEAN_*` variable set in the environment, if any. Such
/// variables change what the simulator does or how fast (worker count,
/// oracle backend, profiling, tracing, debug dumps), so a run under any
/// of them would not measure the benchmark.
fn protean_var(names: impl IntoIterator<Item = String>) -> Option<String> {
    names.into_iter().find(|k| k.starts_with("PROTEAN_"))
}

fn setup(workload: &str, seed: u64, spans: &mut Spans) -> Box<dyn Workload> {
    match workload {
        "campaign" => Box::new(campaign::setup(seed)),
        "paper_cells" => Box::new(cells::setup_paper_cells(spans)),
        _ => Box::new(cells::setup_sim_long(spans)),
    }
}

/// One attempt at a unit.
struct Attempt {
    unit: usize,
    /// Host time.
    secs: f64,
    /// The speed-log sample taken right after it.
    end: usize,
    outcome: Option<unit::Outcome>,
}

/// One pass over every unit, in roster order.
struct Pass {
    /// Host time of the units, probe samples excluded.
    secs: f64,
    attempts: Vec<Attempt>,
    /// Layer figures of a traced pass.
    layers: BTreeMap<String, f64>,
}

/// Runs every unit once, sampling the speed log after each. The log's
/// last sample must be the one just before the pass.
fn run_pass(bench: &mut dyn Workload, log: &mut SpeedLog, mut spans: Option<&mut Spans>) -> Pass {
    let n = bench.units().len();
    let mut attempts = Vec::with_capacity(n);
    let mut total = 0.0;
    for u in 0..n {
        let t = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| match spans.as_deref_mut() {
            Some(s) => s.span("unit", |s| bench.run_traced(u, s)),
            None => bench.run(u),
        }))
        .ok();
        if outcome.is_none() {
            if let Some(s) = spans.as_deref_mut() {
                s.recover();
            }
        }
        let secs = t.elapsed().as_secs_f64();
        total += secs;
        attempts.push(Attempt {
            unit: u,
            secs,
            end: log.mark(),
            outcome,
        });
    }
    Pass {
        secs: total,
        attempts,
        layers: BTreeMap::new(),
    }
}

/// Raw layer figures of a recorder: calls and self time per span layer,
/// plus every counter.
fn raw_layers(spans: &Spans) -> BTreeMap<String, f64> {
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    for (layer, t) in spans.layer_times() {
        let (calls, ms) = match layer {
            "sim.setup.new" => ("sim.setup.new_calls".into(), "sim.setup.new_ms".into()),
            "sim.setup.reset" => ("sim.setup.reset_calls".into(), "sim.setup.reset_ms".into()),
            _ => (format!("{layer}.calls"), format!("{layer}.ms")),
        };
        *out.entry(calls).or_default() += t.calls as f64;
        *out.entry(ms).or_default() += t.self_ns as f64 / 1e6;
    }
    for (&name, &v) in spans.counts() {
        *out.entry(name.to_string()).or_default() += v;
    }
    out
}

/// Share of the traced units' wall time covered by layer spans: the
/// units' own self time is the uncovered rest.
fn coverage_pct(raw: &BTreeMap<String, f64>) -> f64 {
    let total: f64 = raw
        .iter()
        .filter(|(k, _)| k.ends_with(".ms") || k.ends_with("_ms"))
        .map(|(_, v)| v)
        .sum();
    let uncovered = raw.get("unit.ms").copied().unwrap_or(0.0);
    if total == 0.0 {
        0.0
    } else {
        100.0 * (total - uncovered) / total
    }
}

/// Adds the derived ratios to a traced pass's raw figures.
fn derive_layers(raw: &mut BTreeMap<String, f64>) {
    let get = |raw: &BTreeMap<String, f64>, k: &str| raw.get(k).copied().unwrap_or(0.0);
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    let r = &*raw;
    let l1d = get(r, "sim.cache.l1d_hits") + get(r, "sim.cache.l1d_misses");
    let derived = [
        (
            "arch.emulator.ns_per_step",
            ratio(
                get(r, "arch.emulator.ms") * 1e6,
                get(r, "arch.emulator.steps"),
            ),
        ),
        (
            "sim.pipeline.useful_ratio",
            ratio(
                get(r, "sim.pipeline.committed"),
                get(r, "sim.pipeline.fetched"),
            ),
        ),
        (
            "sim.pipeline.ns_per_uop",
            ratio(
                get(r, "sim.pipeline.ms") * 1e6,
                get(r, "sim.pipeline.committed"),
            ),
        ),
        (
            "sim.pipeline.ns_per_cycle",
            ratio(
                get(r, "sim.pipeline.ms") * 1e6,
                get(r, "sim.pipeline.cycles"),
            ),
        ),
        (
            "sim.cache.l1d_hit_ratio",
            ratio(get(r, "sim.cache.l1d_hits"), l1d),
        ),
        (
            "defense.access_pred_mispred_rate",
            ratio(
                get(r, "defense.mispred_rate_sum"),
                get(r, "defense.mispred_rate_runs"),
            ),
        ),
        (
            "amulet.compare.useful_ratio",
            ratio(
                get(r, "amulet.compare.tests"),
                get(r, "amulet.compare.hw_runs"),
            ),
        ),
    ];
    for (k, v) in derived {
        raw.insert(k.to_string(), v);
    }
}

/// Everything a run measured.
struct RunReport {
    metrics: Vec<(&'static str, f64, &'static str)>,
    text: Vec<String>,
    checker_attempted: u64,
    checker_failed: u64,
    pins: Vec<String>,
}

fn run(args: &Args, pins: &Pins) -> RunReport {
    let load_before = host::load_average();
    let mut log = SpeedLog::default();
    // Set-up, several times: the median is `setup_s`, the last one runs.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut bench = None;
    log.mark();
    for _ in 0..SETUP_REPS {
        drop(bench.take()); // free the previous set-up before timing the next
        let t = Instant::now();
        bench = Some(setup(&args.workload, args.seed, &mut Spans::off()));
        let secs = t.elapsed().as_secs_f64();
        setups.push((secs, log.mark()));
    }
    let mut bench = bench.expect("at least one set-up");
    let units = bench.units().to_vec();

    let campaign = args.workload == "campaign";
    let references = (0..units.len()).map(|u| bench.reference(u)).collect();
    let mut checker = Checker::new(
        pins,
        &args.workload,
        campaign.then_some(args.seed),
        campaign,
        references,
    );
    let pinned = !campaign || args.seed == DEFAULT_SEED;

    // Untraced passes: the end-to-end metrics.
    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut untraced: Vec<Pass> = Vec::new();
    let start = Instant::now();
    while untraced.is_empty() || start.elapsed().as_secs_f64() < budget {
        let pass = run_pass(&mut *bench, &mut log, None);
        checker.pass(&units, &attempts_of(&pass));
        untraced.push(pass);
    }

    // Traced set-up and passes: the per-layer metrics.
    let mut traced: Vec<Pass> = Vec::new();
    if args.trace {
        let mut setup_spans = Spans::default();
        drop(setup(&args.workload, args.seed, &mut setup_spans));
        log.mark();
        let setup_raw = raw_layers(&setup_spans);
        let start = Instant::now();
        while traced.is_empty() || start.elapsed().as_secs_f64() < budget {
            let mut spans = Spans::default();
            let mut pass = run_pass(&mut *bench, &mut log, Some(&mut spans));
            checker.pass(&units, &attempts_of(&pass));
            let mut raw = raw_layers(&spans);
            raw.insert("trace.coverage_pct".into(), coverage_pct(&raw));
            for (k, v) in &setup_raw {
                *raw.entry(k.clone()).or_default() += v;
            }
            derive_layers(&mut raw);
            pass.layers = raw;
            traced.push(pass);
        }
    }
    let load_after = host::load_average();

    let mut text = Vec::new();
    let mut metrics = Vec::new();
    let outcomes = checker.outcomes().to_vec();
    let norm = |column: Column| {
        let mut base: BTreeMap<usize, u64> = BTreeMap::new();
        let mut defended: BTreeMap<usize, u64> = BTreeMap::new();
        for (info, o) in units.iter().zip(&outcomes) {
            let Some(o) = o else { continue };
            if info.column == Column::Unsafe {
                base.insert(info.group, o.cycles);
            } else if info.column == column {
                defended.insert(info.group, o.cycles);
            }
        }
        let pairs: Vec<(u64, u64)> = defended
            .iter()
            .filter_map(|(g, &d)| base.get(g).map(|&b| (d, b)))
            .collect();
        geomean_ratio(&pairs).unwrap_or(f64::NAN)
    };

    // Host time per unit: the trimmed mean of its scaled attempts in the
    // run. A typical pass is every unit at that time.
    let typical = |passes: &[Pass]| {
        (0..units.len())
            .map(|u| {
                let scaled: Vec<f64> = passes
                    .iter()
                    .flat_map(|p| p.attempts.iter().filter(|a| a.unit == u))
                    .map(|a| log.scaled(a.secs, a.end))
                    .collect();
                trimmed_mean(&scaled).unwrap_or(f64::NAN)
            })
            .collect::<Vec<f64>>()
    };
    let unit_secs = typical(&untraced);
    let setup_secs: Vec<f64> = setups.iter().map(|&(s, end)| log.scaled(s, end)).collect();
    let typical_pass: f64 = unit_secs.iter().sum();
    if args.trace {
        let traced_pass: f64 = typical(&traced).iter().sum();
        for (name, unit) in PER_LAYER {
            let value = if name == "trace.overhead_pct" {
                100.0 * (traced_pass / typical_pass - 1.0)
            } else {
                let values: Vec<f64> = traced
                    .iter()
                    .map(|p| p.layers.get(name).copied().unwrap_or(0.0))
                    .collect();
                median(&values).unwrap_or(0.0)
            };
            metrics.push((name, value, unit));
        }
        text.push(format!(
            "traced: {} passes, typical scaled pass {:.1} ms (untraced {:.1} ms)",
            traced.len(),
            1e3 * traced_pass,
            1e3 * typical_pass,
        ));
    } else {
        let work = |f: fn(&unit::Outcome) -> u64| -> f64 {
            outcomes.iter().flatten().map(f).sum::<u64>() as f64 / typical_pass
        };
        let cell_ms: Vec<f64> = unit_secs.iter().map(|s| s * 1e3).collect();
        let values = [
            median(&setup_secs).unwrap_or(f64::NAN),
            host::peak_rss_mib().unwrap_or(f64::NAN),
            work(|o| o.committed) / 1e3,
            work(|o| o.hw_runs),
            units.len() as f64 / typical_pass,
            percentile(&cell_ms, 50.0).unwrap_or(f64::NAN),
            percentile(&cell_ms, 90.0).unwrap_or(f64::NAN),
            work(|o| o.cycles) / 1e6,
            norm(Column::ProtTrack),
            norm(Column::ProtDelay),
        ];
        for ((name, unit), value) in END_TO_END.into_iter().zip(values) {
            metrics.push((name, value, unit));
        }
        text.push(format!(
            "cells: {} (each the trimmed mean of {} scaled attempts), typical scaled pass {:.1} ms; highest percentile with >= 10 cells beyond it: {}",
            cell_ms.len(),
            untraced.len(),
            1e3 * typical_pass,
            tail_percentile(cell_ms.len()).map_or("none".into(), |p| format!(
                "p{p} = {:.3} ms",
                percentile(&cell_ms, p).unwrap_or(0.0)
            )),
        ));
    }
    metrics.push(("failed_share", checker.failed_share(), "ratio"));

    // Host context: a run on a busy host shows here, not only as noise.
    let pass_spread = iqr_share(&untraced.iter().map(|p| p.secs).collect::<Vec<_>>());
    let unit_spreads: Vec<f64> = (0..units.len())
        .filter_map(|u| {
            let secs: Vec<f64> = untraced
                .iter()
                .flat_map(|p| p.attempts.iter().filter(|a| a.unit == u).map(|a| a.secs))
                .collect();
            iqr_share(&secs)
        })
        .collect();
    let probe_ms: Vec<f64> = log.samples().iter().map(|s| s * 1e3).collect();
    text.push(format!(
        "host speed: probe median {:.3} ms (nominal {:.3} ms), min {:.3} ms, max {:.3} ms, spread {:.2} %",
        median(&probe_ms).unwrap_or(f64::NAN),
        1e3 * speed::NOMINAL_SECS,
        probe_ms.iter().copied().fold(f64::INFINITY, f64::min),
        probe_ms.iter().copied().fold(0.0, f64::max),
        100.0 * iqr_share(&probe_ms).unwrap_or(0.0),
    ));
    let fmt_load = |l: Option<f64>| l.map_or("n/a".into(), |l| format!("{l:.2}"));
    text.push(format!(
        "host: nproc {}, load {} -> {}, {} untraced passes, pass spread {:.2} %, median unit spread {:.2} %",
        host::nproc(),
        fmt_load(load_before),
        fmt_load(load_after),
        untraced.len(),
        100.0 * pass_spread.unwrap_or(0.0),
        100.0 * median(&unit_spreads).unwrap_or(0.0),
    ));
    text.push(format!(
        "set-up: {:?} s; checks: {} attempted, {} failed{}",
        setup_secs,
        checker.attempted,
        checker.failed,
        if pinned {
            ""
        } else {
            " (held-out seed: invariants only)"
        },
    ));
    for why in &checker.reasons {
        text.push(format!("FAILED {why}"));
    }

    let mut pin_lines = Vec::new();
    if args.print_pins {
        let seed_field = if campaign {
            args.seed.to_string()
        } else {
            "*".into()
        };
        for (info, o) in units.iter().zip(checker.outcomes()) {
            let Some(o) = o else { continue };
            pin_lines.push(format!(
                "{} {seed_field} {} out {:016x}",
                args.workload, info.name, o.digest
            ));
            if let Some(s) = o.stats_digest {
                pin_lines.push(format!(
                    "{} {seed_field} {} stats {s:016x}",
                    args.workload, info.name
                ));
            }
        }
    }
    RunReport {
        metrics,
        text,
        checker_attempted: checker.attempted,
        checker_failed: checker.failed,
        pins: pin_lines,
    }
}

fn attempts_of(pass: &Pass) -> Vec<check::Attempt> {
    pass.attempts.iter().map(|a| (a.unit, a.outcome)).collect()
}

/// The final JSON line: every metric the JSON carries, with its unit.
fn json_line(report: &RunReport) -> String {
    let mut correct = report.checker_failed == 0 && report.checker_attempted > 0;
    let mut fields = Vec::new();
    for &(name, value, unit) in &report.metrics {
        if TEXT_ONLY.contains(&name) {
            continue;
        }
        let value = if value.is_finite() {
            value
        } else {
            correct = false;
            0.0
        };
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.checker_attempted,
        report.checker_failed,
        fields.join(", ")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let env_names = std::env::vars_os().filter_map(|(k, _)| k.into_string().ok());
    if let Some(var) = protean_var(env_names) {
        eprintln!("perfbench: refusing to run with {var} set: PROTEAN_* variables change what the simulator does or how fast");
        return ExitCode::from(2);
    }
    let pins = match Pins::parse(include_str!("../pins.txt")) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = run(&args, &pins);
    println!(
        "perfbench {} seed {} ({} s, trace {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for line in &report.text {
        println!("  {line}");
    }
    for &(name, value, unit) in &report.metrics {
        println!("  {name:<34} {value:>16.4} {unit}");
    }
    for line in &report.pins {
        println!("pin {line}");
    }
    println!("{}", json_line(&report));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_exactly_the_json_metrics() {
        let spec = include_str!("../../BENCHMARK.json");
        let json_metrics: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .filter(|n| !TEXT_ONLY.contains(n))
            .collect();
        for name in &json_metrics {
            assert!(
                spec.contains(&format!("\"name\": \"{name}\"")),
                "{name} missing from BENCHMARK.json"
            );
        }
        // Three workloads plus every JSON metric, each named once.
        assert_eq!(spec.matches("\"name\":").count(), 3 + json_metrics.len());
    }

    #[test]
    fn protean_variables_are_refused() {
        let names = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(protean_var(names(&["HOME", "PATH"])), None);
        assert_eq!(
            protean_var(names(&["HOME", "PROTEAN_JOBS"])),
            Some("PROTEAN_JOBS".into())
        );
    }

    #[test]
    fn arguments_are_checked() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let ok = parse_args(&argv("--workload sim_long --seed 3 --seconds 10 --trace 1"))
            .expect("valid");
        assert_eq!((ok.seed, ok.seconds, ok.trace), (3, 10.0, true));
        for bad in [
            "--workload nope --seed 3 --seconds 10 --trace 0",
            "--workload sim_long --seed -1 --seconds 10 --trace 0",
            "--workload sim_long --seed 3 --seconds 0 --trace 0",
            "--workload sim_long --seed 3 --seconds 10 --trace 2",
            "--workload sim_long --seed 3 --seconds 10",
            "--workload sim_long --seed 3 --seconds 10 --trace 0 --extra 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
