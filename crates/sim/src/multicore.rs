//! Multi-core simulation for the PARSEC-style multi-threaded workloads.
//!
//! Threads of a data-parallel workload run on their own cores with
//! private L1/L2 caches and a **shared L3**: the L3 state is threaded
//! through the per-core simulations, so capacity sharing and cross-thread
//! reuse are modelled. The workload's makespan is the slowest thread
//! (cores run the same defense configuration, as in the paper's
//! full-Alder-Lake PARSEC runs).
//!
//! Simplifications versus gem5's Ruby MESI (documented in `DESIGN.md`):
//! cores are simulated one after another rather than in lockstep, and the
//! workloads write disjoint regions (no cross-core store visibility is
//! required), so the directory protocol reduces to L3 sharing. This
//! preserves what the paper's PARSEC numbers measure — per-defense
//! slowdowns of parallel compute phases (e.g. SPT-SB's stack-access
//! stalls in `blackscholes`, §IX-A1).

use crate::defense::DefensePolicy;
use crate::pipeline::{Core, SimResult};
use crate::{Cache, CoreConfig};
use protean_arch::ArchState;
use protean_isa::Program;

/// One software thread to place on a core.
pub struct Thread<'a> {
    /// The thread's program.
    pub program: &'a Program,
    /// Its initial architectural state.
    pub initial: ArchState,
    /// The defense policy its core runs.
    pub policy: Box<dyn DefensePolicy>,
}

/// Result of a multi-core run.
#[derive(Clone, Debug)]
pub struct MulticoreResult {
    /// Per-thread results, in thread order. Each thread's `l3_hits` /
    /// `l3_misses` are the **deltas** of the shared L3's counters over
    /// that thread's run — its own traffic, not the cumulative totals
    /// of every thread that ran before it.
    pub threads: Vec<SimResult>,
    /// Makespan: the slowest thread's cycle count (the workload's
    /// execution time on the parallel machine).
    pub makespan: u64,
    /// Shared-L3 hits over the whole run (equals the sum of the
    /// per-thread deltas).
    pub l3_hits: u64,
    /// Shared-L3 misses over the whole run.
    pub l3_misses: u64,
}

impl MulticoreResult {
    /// Total committed µops across threads.
    pub fn total_committed(&self) -> u64 {
        self.threads.iter().map(|t| t.stats.committed).sum()
    }
}

/// A multi-core machine: identical cores sharing an L3.
///
/// # Examples
///
/// ```
/// use protean_arch::ArchState;
/// use protean_isa::assemble;
/// use protean_sim::{CoreConfig, Multicore, Thread, UnsafePolicy};
///
/// let prog = assemble("mov r0, 1\nhalt\n").unwrap();
/// let threads = vec![
///     Thread { program: &prog, initial: ArchState::new(), policy: Box::new(UnsafePolicy) },
///     Thread { program: &prog, initial: ArchState::new(), policy: Box::new(UnsafePolicy) },
/// ];
/// let result = Multicore::new(CoreConfig::test_tiny()).run(threads, 1_000, 100_000);
/// assert_eq!(result.threads.len(), 2);
/// assert!(result.makespan > 0);
/// ```
#[derive(Clone, Debug)]
pub struct Multicore {
    cfg: CoreConfig,
}

impl Multicore {
    /// Creates a multi-core machine with identical cores.
    pub fn new(cfg: CoreConfig) -> Multicore {
        Multicore { cfg }
    }

    /// Runs one thread per core; returns per-thread results and the
    /// makespan.
    pub fn run(
        &self,
        threads: Vec<Thread<'_>>,
        max_insts: u64,
        max_cycles: u64,
    ) -> MulticoreResult {
        let mut shared_l3 = Cache::new(self.cfg.l3, true);
        let mut results = Vec::with_capacity(threads.len());
        for t in threads {
            // The shared L3's counters are cumulative across cores:
            // snapshot them so this thread is attributed only its own
            // delta, not the traffic of every thread that ran before it.
            let (hits_before, misses_before) = (shared_l3.hits, shared_l3.misses);
            let mut core = Core::new(t.program, self.cfg.clone(), t.policy, &t.initial);
            let mut result = core.run_on_l3(&mut shared_l3, max_insts, max_cycles);
            result.stats.l3_hits = shared_l3.hits - hits_before;
            result.stats.l3_misses = shared_l3.misses - misses_before;
            results.push(result);
        }
        let makespan = results.iter().map(|r| r.stats.cycles).max().unwrap_or(0);
        MulticoreResult {
            threads: results,
            makespan,
            l3_hits: shared_l3.hits,
            l3_misses: shared_l3.misses,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UnsafePolicy;
    use protean_isa::assemble;

    #[test]
    fn shared_l3_carries_warmth_across_threads() {
        // Thread 1 touches a data region; thread 2 touches the same
        // region and should see L3 hits where a cold L3 would miss.
        let src = r#"
          mov r0, 0x90000
          mov r1, 0
        loop:
          load r2, [r0 + r1*8]
          add r3, r3, r2
          add r1, r1, 1
          cmp r1, 256
          jlt loop
          halt
        "#;
        let prog = assemble(src).unwrap();
        let mk = || Thread {
            program: &prog,
            initial: ArchState::new(),
            policy: Box::new(UnsafePolicy) as Box<dyn DefensePolicy>,
        };
        let r = Multicore::new(CoreConfig::test_tiny()).run(vec![mk(), mk()], 100_000, 1_000_000);
        let t1 = &r.threads[0].stats;
        let t2 = &r.threads[1].stats;
        // Delta attribution: per-thread counters must partition the
        // shared cache's totals (no thread is charged another's traffic).
        assert_eq!(
            t1.l3_hits + t2.l3_hits,
            r.l3_hits,
            "per-thread hit deltas must sum to the shared L3's hits"
        );
        assert_eq!(
            t1.l3_misses + t2.l3_misses,
            r.l3_misses,
            "per-thread miss deltas must sum to the shared L3's misses"
        );
        // The warmth claim, on deltas: thread 1 fills the L3 (mostly
        // misses), thread 2 reuses it, so thread 2's *own* hit rate must
        // beat thread 1's.
        let rate = |hits: u64, misses: u64| hits as f64 / (hits + misses).max(1) as f64;
        let r1 = rate(t1.l3_hits, t1.l3_misses);
        let r2 = rate(t2.l3_hits, t2.l3_misses);
        assert!(
            r2 > r1,
            "second thread's delta hit rate should beat the first's ({r2:.3} vs {r1:.3})"
        );
        assert!(
            t2.l3_misses < t1.l3_misses,
            "warm L3 should spare thread 2 most misses ({} vs {})",
            t2.l3_misses,
            t1.l3_misses
        );
        assert!(t2.cycles < t1.cycles, "warm L3 should make thread 2 faster");
        assert_eq!(r.makespan, t1.cycles.max(t2.cycles));
    }
}
