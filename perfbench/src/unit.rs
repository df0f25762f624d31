//! What every workload shares: units of work, their deterministic
//! outcomes, and the simulated-statistics counters of the traced run.

use crate::spans::Spans;
use crate::stats::{stats_digest, Digest};
use protean_bench::Defense;
use protean_sim::Stats;

/// The table column a unit fills.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Column {
    Unsafe,
    /// The class's best prior defense (STT, SPT or SPT-SB).
    Baseline(Defense),
    ProtDelay,
    ProtTrack,
}

impl Column {
    /// The defense configuration the column runs.
    pub fn defense(self) -> Defense {
        match self {
            Column::Unsafe => Defense::Unsafe,
            Column::Baseline(d) => d,
            Column::ProtDelay => Defense::ProtDelay,
            Column::ProtTrack => Defense::ProtTrack,
        }
    }

    /// Whether the column is a Protean configuration.
    pub fn is_protean(self) -> bool {
        matches!(self, Column::ProtDelay | Column::ProtTrack)
    }
}

/// One unit of the closed loop: a table cell or a single run.
#[derive(Clone, Debug)]
pub struct UnitInfo {
    /// Stable name, used as the pin key.
    pub name: String,
    /// Units with equal `group` share inputs (a table row), so their
    /// simulated cycles normalise against the group's Unsafe unit.
    pub group: usize,
    pub column: Column,
}

/// The deterministic outcome of one unit.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Outcome {
    /// Digest of everything the untraced entry point returns.
    pub digest: u64,
    /// Digest of every `Stats` field of every simulation in the unit,
    /// where the entry point exposes them.
    pub stats_digest: Option<u64>,
    /// Hardware runs completed (compared runs on `campaign`).
    pub hw_runs: u64,
    /// Committed µops.
    pub committed: u64,
    /// Simulated cycles (the makespan of a multi-core cell).
    pub cycles: u64,
    /// True-positive contract violations (`campaign` only).
    pub violations: u64,
    /// Every simulation halted on its own.
    pub halted: bool,
}

/// A workload after set-up: its units, run untraced through the
/// library's entry points or traced through the public layer calls.
pub trait Workload {
    fn units(&self) -> &[UnitInfo];
    fn run(&mut self, unit: usize) -> Outcome;
    fn run_traced(&mut self, unit: usize, spans: &mut Spans) -> Outcome;
    /// The outcome every attempt of `unit` must reproduce, when set-up
    /// computed one.
    fn reference(&self, _unit: usize) -> Option<Outcome> {
        None
    }
}

/// Records a simulation's modelled-component counters: caches, branch
/// prediction and defense blocking. `pipeline` also books the run under
/// `sim.pipeline` (single-core runs; multi-core threads are booked under
/// `sim.multicore`).
pub fn record_stats(spans: &mut Spans, s: &Stats, pipeline: bool) {
    if pipeline {
        spans.add("sim.pipeline.cycles", s.cycles as f64);
        spans.add("sim.pipeline.committed", s.committed as f64);
        spans.add("sim.pipeline.fetched", s.fetched as f64);
        spans.add("sim.pipeline.squashed", s.squashed as f64);
    }
    for (name, v) in [
        ("sim.cache.l1i_hits", s.l1i_hits),
        ("sim.cache.l1i_misses", s.l1i_misses),
        ("sim.cache.l1d_hits", s.l1d_hits),
        ("sim.cache.l1d_misses", s.l1d_misses),
        ("sim.cache.l2_hits", s.l2_hits),
        ("sim.cache.l2_misses", s.l2_misses),
        ("sim.cache.l3_hits", s.l3_hits),
        ("sim.cache.l3_misses", s.l3_misses),
        ("sim.bpred.branches", s.branches),
        ("sim.bpred.mispredicts", s.mispredicts),
        ("sim.bpred.branch_squashes", s.branch_squashes),
        ("sim.bpred.memorder_squashes", s.memorder_squashes),
        ("sim.bpred.divfault_squashes", s.divfault_squashes),
        ("defense.exec_blocked_cycles", s.exec_blocked_cycles),
        ("defense.wakeup_blocked_cycles", s.wakeup_blocked_cycles),
        ("defense.resolve_blocked_cycles", s.resolve_blocked_cycles),
    ] {
        spans.add(name, v as f64);
    }
    if let Some(rate) = mispred_rate(s) {
        spans.add("defense.mispred_rate_sum", rate);
        spans.add("defense.mispred_rate_runs", 1.0);
    }
}

/// The access predictor's misprediction rate, when the policy has one.
pub fn mispred_rate(s: &Stats) -> Option<f64> {
    s.policy
        .iter()
        .find(|(k, _)| k == "access_pred_mispred_rate")
        .map(|&(_, v)| v)
}

/// Folds one simulation's statistics into a unit's stats digest.
pub fn fold_stats(digest: &mut Option<Digest>, s: &Stats) {
    stats_digest(digest.get_or_insert_with(Digest::default), s);
}
