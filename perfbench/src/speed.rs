//! The host speed index: a fixed reference loop timed between units.
//!
//! The benchmark's host shares its cores with other tenants. Their load
//! slows the simulator by up to half, for seconds to minutes at a time,
//! so a plain wall-clock figure moves by more between two runs of the
//! same code than most changes move it. The slowdowns are of the kind a
//! throughput-bound loop over an L2-sized table also feels (execution
//! port and L2 contention); a dependency-chained ALU loop or a
//! memory-latency chase does not feel them. The benchmark therefore
//! times such a loop before the first set-up and after every set-up and
//! unit, and scales each host time by the loop's nominal time over the
//! median of the samples nearest it. Host-time metrics then read as on
//! the reference host running at the loop's nominal speed.

use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;

/// The loop's time on the reference host (a 2.1 GHz Xeon, 2 vCPUs) when
/// nothing else loads it. It only sets the scale of the host-time
/// metrics; changing it would move every one of them by the same factor.
pub const NOMINAL_SECS: f64 = 1.5e-3;

/// Table words: 1 MiB, half the reference host's L2.
const WORDS: usize = 1 << 17;
/// Iterations of the timed loop; each advances four independent streams.
const ITERS: usize = 150_000;

/// The reference loop and its table.
pub struct Probe {
    table: Vec<u64>,
}

impl Default for Probe {
    fn default() -> Probe {
        Probe {
            table: vec![0; WORDS],
        }
    }
}

impl Probe {
    /// Times one run of the loop, in seconds. The table is refilled
    /// first, untimed, so every sample does identical work on a table
    /// already in cache, whatever the unit before it evicted.
    pub fn sample(&mut self) -> f64 {
        for (i, w) in self.table.iter_mut().enumerate() {
            *w = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        }
        let mask = WORDS - 1;
        let start = Instant::now();
        let mut xs = [1u64, 2, 3, 4].map(|k| k.wrapping_mul(0x2545_f491_4f6c_dd1d) | 1);
        let mut acc = [0u64; 4];
        for _ in 0..ITERS {
            for (x, a) in xs.iter_mut().zip(&mut acc) {
                *x ^= *x << 13;
                *x ^= *x >> 7;
                *x ^= *x << 17;
                let i = *x as usize & mask;
                let v = self.table[i];
                // Data-dependent, unpredictable branch.
                if (v ^ *x) & 1 == 1 {
                    *a = a.wrapping_add(v).rotate_left(5);
                } else {
                    *a ^= v >> 3;
                }
                self.table[i] = v ^ *a;
            }
        }
        black_box(&acc);
        start.elapsed().as_secs_f64()
    }
}

/// Samples on each side of an interval that set its speed: enough that
/// one sample inflated by a preemption does not, few enough to stay
/// within a slow phase of the host (seconds or more).
const HALF_WINDOW: usize = 3;

/// The probe samples of a run, in time order.
#[derive(Default)]
pub struct SpeedLog {
    probe: Probe,
    samples: Vec<f64>,
}

impl SpeedLog {
    /// Takes a sample and returns its index: the end of the interval
    /// since the previous sample.
    pub fn mark(&mut self) -> usize {
        self.samples.push(self.probe.sample());
        self.samples.len() - 1
    }

    /// Every sample so far, in seconds.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// `secs` of host time taken in the interval that ends at sample
    /// `end`, scaled to the nominal host speed.
    pub fn scaled(&self, secs: f64, end: usize) -> f64 {
        let lo = end.saturating_sub(HALF_WINDOW);
        let hi = (end + HALF_WINDOW).min(self.samples.len());
        let speed = median(&self.samples[lo..hi]).expect("the interval's end is a sample");
        secs * NOMINAL_SECS / speed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log(samples: &[f64]) -> SpeedLog {
        SpeedLog {
            probe: Probe::default(),
            samples: samples.iter().map(|s| s * NOMINAL_SECS).collect(),
        }
    }

    #[test]
    fn scaling_divides_by_the_median_nearby_probe() {
        let nominal = log(&[1.0, 1.0]);
        assert_eq!(nominal.scaled(2.0, 1), 2.0);
        // A host running the loop at half speed halves the unit's time.
        let slow = log(&[2.0; 8]);
        assert_eq!(slow.scaled(2.0, 4), 1.0);
        // The interval ending at 3 sees samples 0..=5; one preempted
        // sample among them does not move it, samples 6 and 7 are out.
        let spiky = log(&[2.0, 2.0, 9.0, 2.0, 2.0, 2.0, 5.0, 5.0]);
        assert_eq!(spiky.scaled(2.0, 3), 1.0);
        // At the edges the window is cut short.
        let edge = log(&[1.0, 3.0, 9.0, 9.0, 9.0]).scaled(2.0, 0);
        assert!((edge - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn probe_samples_are_positive_and_repeatable_work() {
        let mut p = Probe::default();
        let (a, b) = (p.sample(), p.sample());
        assert!(a > 0.0 && b > 0.0);
        let snapshot = p.table.clone();
        p.sample();
        assert_eq!(p.table, snapshot, "every sample does identical work");
    }
}
