//! Simulation statistics.

use crate::defense::BlockPoint;

/// Counters collected during a simulation run.
#[derive(Clone, Debug, Default)]
pub struct Stats {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Committed µops.
    pub committed: u64,
    /// Fetched µops (including wrong-path).
    pub fetched: u64,
    /// Squashed µops.
    pub squashed: u64,
    /// Branch-misprediction squashes.
    pub branch_squashes: u64,
    /// Memory-order-violation squashes.
    pub memorder_squashes: u64,
    /// Division-fault machine clears.
    pub divfault_squashes: u64,
    /// Committed conditional/indirect branches.
    pub branches: u64,
    /// Committed branches that had been mispredicted.
    pub mispredicts: u64,
    /// Committed loads.
    pub loads: u64,
    /// Committed stores.
    pub stores: u64,
    /// Loads that forwarded from the store queue.
    pub forwards: u64,
    /// µop-cycles in which a ready µop was blocked from executing by the
    /// defense (transmitter delay).
    pub exec_blocked_cycles: u64,
    /// µop-cycles in which a completed µop was blocked from waking its
    /// dependents by the defense (wakeup delay).
    pub wakeup_blocked_cycles: u64,
    /// Cycles a mispredicted branch's squash was delayed by the defense.
    pub resolve_blocked_cycles: u64,
    /// L1I hits. Exactly one L1I access is booked per fetched µop, so
    /// `l1i_hits + l1i_misses == fetched` (asserted by the front-end
    /// regression tests).
    pub l1i_hits: u64,
    /// L1I misses (each stalls the front end for the L2 hit latency).
    pub l1i_misses: u64,
    /// L1D hits / misses.
    pub l1d_hits: u64,
    /// L1D misses.
    pub l1d_misses: u64,
    /// L2 hits.
    pub l2_hits: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// L3 hits.
    pub l3_hits: u64,
    /// L3 misses (DRAM accesses).
    pub l3_misses: u64,
    /// High-water mark of issue-queue occupancy (waiting µops) — data
    /// for tuning `iq_size`.
    pub iq_hwm: u64,
    /// High-water mark of outstanding completion-wheel events (live and
    /// stale) — data for sizing the calendar-queue bucket ring.
    pub wheel_hwm: u64,
    /// Policy-specific statistics.
    pub policy: Vec<(String, f64)>,
}

impl Stats {
    /// The blocked-cycle counter of `gate`.
    pub(crate) fn blocked_cycles_mut(&mut self, gate: BlockPoint) -> &mut u64 {
        match gate {
            BlockPoint::Execute => &mut self.exec_blocked_cycles,
            BlockPoint::Wakeup => &mut self.wakeup_blocked_cycles,
            BlockPoint::Resolve => &mut self.resolve_blocked_cycles,
        }
    }

    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }

    /// Branch misprediction rate over committed branches.
    pub fn mispredict_rate(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.mispredicts as f64 / self.branches as f64
        }
    }

    /// L1D hit rate.
    pub fn l1d_hit_rate(&self) -> f64 {
        let total = self.l1d_hits + self.l1d_misses;
        if total == 0 {
            1.0
        } else {
            self.l1d_hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_rates() {
        let s = Stats {
            cycles: 100,
            committed: 250,
            branches: 10,
            mispredicts: 2,
            l1d_hits: 90,
            l1d_misses: 10,
            ..Stats::default()
        };
        assert!((s.ipc() - 2.5).abs() < 1e-9);
        assert!((s.mispredict_rate() - 0.2).abs() < 1e-9);
        assert!((s.l1d_hit_rate() - 0.9).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_safe() {
        let s = Stats::default();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.mispredict_rate(), 0.0);
        assert_eq!(s.l1d_hit_rate(), 1.0);
    }
}
