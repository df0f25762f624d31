//! ProtTrack's secure access predictor (paper §VI-B2a).
//!
//! A 1-bit, untagged, PC-indexed table predicting whether a load will
//! read *protected* memory (i.e. be an access instruction). The paper
//! chooses 1024 entries (128 bytes total) from the Fig. 5 sensitivity
//! study, which the `figure_5` report of `protean-bench --bin reproduce`
//! regenerates.

/// The access predictor.
///
/// # Examples
///
/// ```
/// use protean_core::AccessPredictor;
///
/// let mut p = AccessPredictor::new(1024);
/// let pc = 0x400840;
/// assert!(p.predict_access(pc)); // cold: assume access (safe)
/// p.update(pc, false);
/// assert!(!p.predict_access(pc)); // learned no-access
/// assert_eq!(p.size_bytes(), 128);
/// ```
#[derive(Clone, Debug)]
pub struct AccessPredictor {
    /// One bit per entry: `true` = the load read protected memory last
    /// time (predict *access*).
    table: Vec<bool>,
    entries: usize,
    // Statistics for the Fig. 5 misprediction-rate metric.
    lookups: u64,
    false_negatives: u64,
    false_positives: u64,
    /// Retired unprefixed loads with unprotected outputs (the Fig. 5
    /// denominator).
    eligible_retired: u64,
    eligible_mispredicted: u64,
}

impl AccessPredictor {
    /// Creates a predictor with `entries` 1-bit entries (rounded up to a
    /// power of two). All entries start at *access* — cold predictions
    /// are conservative, never a security risk.
    pub fn new(entries: usize) -> AccessPredictor {
        let n = entries.next_power_of_two().max(1);
        AccessPredictor {
            table: vec![true; n],
            entries: n,
            lookups: 0,
            false_negatives: 0,
            false_positives: 0,
            eligible_retired: 0,
            eligible_mispredicted: 0,
        }
    }

    /// An effectively infinite predictor (for the Fig. 5 asymptote).
    pub fn unbounded() -> AccessPredictor {
        AccessPredictor::new(1 << 22)
    }

    /// Number of entries.
    pub fn entries(&self) -> usize {
        self.entries
    }

    /// Total storage in bytes (1 bit per entry — 128 B at the paper's
    /// 1024 entries).
    pub fn size_bytes(&self) -> usize {
        self.entries / 8
    }

    fn index(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & (self.entries - 1)
    }

    /// Predicts at rename whether the load at `pc` will read protected
    /// memory.
    pub fn predict_access(&mut self, pc: u64) -> bool {
        self.lookups += 1;
        self.table[self.index(pc)]
    }

    /// Updates with the retired load's actual outcome and records
    /// misprediction statistics.
    pub fn update(&mut self, pc: u64, actually_accessed_protected: bool) {
        let idx = self.index(pc);
        let predicted = self.table[idx];
        if predicted && !actually_accessed_protected {
            self.false_positives += 1;
        }
        if !predicted && actually_accessed_protected {
            self.false_negatives += 1;
        }
        self.table[idx] = actually_accessed_protected;
    }

    /// Records a retired load that is eligible for the Fig. 5
    /// misprediction-rate metric (unprefixed, unprotected output), and
    /// whether its prediction was wrong.
    pub fn record_eligible(&mut self, mispredicted: bool) {
        self.eligible_retired += 1;
        if mispredicted {
            self.eligible_mispredicted += 1;
        }
    }

    /// The Fig. 5 access-misprediction rate.
    pub fn misprediction_rate(&self) -> f64 {
        if self.eligible_retired == 0 {
            0.0
        } else {
            self.eligible_mispredicted as f64 / self.eligible_retired as f64
        }
    }

    /// (lookups, false negatives, false positives).
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.lookups, self.false_negatives, self.false_positives)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_per_pc_behaviour() {
        let mut p = AccessPredictor::new(64);
        let hot = 0x1000; // index 0
        let cold = 0x1010; // index 4 (0x2000 would alias to 0 in 64 entries)
        p.update(hot, false);
        p.update(cold, true);
        assert!(!p.predict_access(hot));
        assert!(p.predict_access(cold));
    }

    #[test]
    fn aliasing_in_small_tables() {
        // Two PCs 4*64 apart alias in a 64-entry table.
        let mut p = AccessPredictor::new(64);
        let a = 0x1000;
        let b = 0x1000 + 4 * 64;
        p.update(a, false);
        assert!(!p.predict_access(b), "aliased entry shared");
        // A big table separates them.
        let mut big = AccessPredictor::new(4096);
        big.update(a, false);
        assert!(big.predict_access(b), "no aliasing in large table");
    }

    #[test]
    fn misprediction_stats() {
        let mut p = AccessPredictor::new(16);
        p.record_eligible(false);
        p.record_eligible(true);
        p.record_eligible(false);
        p.record_eligible(false);
        assert!((p.misprediction_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn counters_track_outcomes() {
        let mut p = AccessPredictor::new(16);
        let pc = 0x40;
        p.update(pc, false); // predicted access (cold) but wasn't: FP
        p.update(pc, true); // predicted no-access but was: FN
        let (_, fneg, fpos) = p.counters();
        assert_eq!((fneg, fpos), (1, 1));
    }

    #[test]
    fn paper_sizing() {
        let p = AccessPredictor::new(1024);
        assert_eq!(p.entries(), 1024);
        assert_eq!(p.size_bytes(), 128);
    }
}
