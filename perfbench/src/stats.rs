//! The benchmark's own arithmetic: order statistics, the tail-percentile
//! rule, geomean normalisation and the output digest.

/// The `p`-th percentile (0–100) of `values`, interpolating linearly
/// between the two nearest ranks. `None` for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 100.0) / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

/// The median of `values`.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 50.0)
}

/// The mean of `values` without their lowest and highest one (when
/// there are three or more): one attempt preempted or stalled by the
/// host does not move it, and unlike the median it uses every other
/// attempt. `None` for an empty slice.
pub fn trimmed_mean(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let kept = if sorted.len() >= 3 {
        &sorted[1..sorted.len() - 1]
    } else {
        &sorted[..]
    };
    (!kept.is_empty()).then(|| kept.iter().sum::<f64>() / kept.len() as f64)
}

/// Distance between the first and third quartile as a share of the
/// median: the run-to-run spread the benchmark reports.
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    let med = median(values)?;
    let q1 = percentile(values, 25.0)?;
    let q3 = percentile(values, 75.0)?;
    (med != 0.0).then(|| (q3 - q1) / med)
}

/// Candidate tail percentiles, highest first.
const TAILS: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// The highest percentile that still has at least ten samples beyond
/// it among `n` samples, or `None` when even the median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAILS
        .into_iter()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// Geometric mean of `defense[i] / base[i]` over paired simulated
/// cycle counts: the paper's normalised runtime. `None` when there is
/// no pair or a baseline is zero.
pub fn geomean_ratio(pairs: &[(u64, u64)]) -> Option<f64> {
    if pairs.is_empty() || pairs.iter().any(|&(_, base)| base == 0) {
        return None;
    }
    let log_sum: f64 = pairs
        .iter()
        .map(|&(defense, base)| (defense as f64 / base as f64).ln())
        .sum();
    Some((log_sum / pairs.len() as f64).exp())
}

/// FNV-1a over a stream of 64-bit words: the digest pinned for every
/// unit's deterministic output.
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one word in.
    pub fn word(&mut self, w: u64) -> &mut Digest {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    /// Folds a byte string in, length first so concatenations differ.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Digest {
        self.word(bytes.len() as u64);
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    /// The digest value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of every field of a simulation's [`protean_sim::Stats`],
/// policy statistics included (as their exact bit patterns).
pub fn stats_digest(d: &mut Digest, s: &protean_sim::Stats) {
    for w in [
        s.cycles,
        s.committed,
        s.fetched,
        s.squashed,
        s.branch_squashes,
        s.memorder_squashes,
        s.divfault_squashes,
        s.branches,
        s.mispredicts,
        s.loads,
        s.stores,
        s.forwards,
        s.exec_blocked_cycles,
        s.wakeup_blocked_cycles,
        s.resolve_blocked_cycles,
        s.l1i_hits,
        s.l1i_misses,
        s.l1d_hits,
        s.l1d_misses,
        s.l2_hits,
        s.l2_misses,
        s.l3_hits,
        s.l3_misses,
        s.iq_hwm,
        s.wheel_hwm,
    ] {
        d.word(w);
    }
    d.word(s.policy.len() as u64);
    for (name, value) in &s.policy {
        d.bytes(name.as_bytes()).word(value.to_bits());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&v), Some(3.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 100.0), Some(5.0));
        assert_eq!(percentile(&v, 90.0), Some(4.6));
        assert_eq!(percentile(&[7.0], 90.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(iqr_share(&[1.0, 2.0, 3.0, 4.0, 5.0]), Some(2.0 / 3.0));
    }

    #[test]
    fn trimmed_mean_drops_one_value_at_each_end() {
        assert_eq!(trimmed_mean(&[9.0, 1.0, 2.0, 4.0, 100.0]), Some(5.0));
        assert_eq!(trimmed_mean(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(trimmed_mean(&[1.0, 2.0]), Some(1.5));
        assert_eq!(trimmed_mean(&[]), None);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn geomean_normalises_each_pair() {
        // 2x and 8x slowdowns: geomean 4x, independent of pair scale.
        let g = geomean_ratio(&[(200, 100), (80_000, 10_000)]).expect("pairs");
        assert!((g - 4.0).abs() < 1e-12);
        let unit = geomean_ratio(&[(5, 5), (9, 9)]).expect("pairs");
        assert!((unit - 1.0).abs() < 1e-12);
        assert_eq!(geomean_ratio(&[]), None);
        assert_eq!(geomean_ratio(&[(1, 0)]), None);
    }

    #[test]
    fn digest_is_stable_and_field_sensitive() {
        // FNV-1a of the empty input is the offset basis.
        assert_eq!(Digest::default().finish(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(
            Digest::default().bytes(b"a").finish(),
            Digest::default().bytes(b"a").finish()
        );
        let stats = protean_sim::Stats {
            cycles: 10,
            committed: 7,
            policy: vec![("access_pred_mispred_rate".into(), 0.25)],
            ..Default::default()
        };
        let digest = |s: &protean_sim::Stats| {
            let mut d = Digest::default();
            stats_digest(&mut d, s);
            d.finish()
        };
        // Pinned: a change here means the digest scheme changed, which
        // invalidates every pin in `pins.txt`.
        assert_eq!(digest(&stats), 0x4fa9_894e_3c7d_c1f6);
        let mut moved = stats.clone();
        moved.l3_misses += 1;
        assert_ne!(digest(&stats), digest(&moved));
        let mut policy = stats.clone();
        policy.policy[0].1 = 0.5;
        assert_ne!(digest(&stats), digest(&policy));
    }
}
