//! A fixed-size log-linear latency sketch for streaming runs.
//!
//! [`ClusterSim::run_stream`] must report p50/p99/p999 tails over millions
//! of completions without keeping a latency vector around — that vector is
//! exactly the O(n) state the streaming loop exists to avoid. This sketch
//! is the classic HDR-histogram shape: one bucket per (power of two ×
//! 1/16th sub-step) of nanoseconds, so any `u64` latency lands in one of
//! ~1k fixed counters with ≤ 1/16 relative rounding error, values below
//! 16 ns recorded exactly. The count is exact; only the quantile's
//! positional value is rounded (to its bucket's upper bound, clamped to
//! the true maximum).
//!
//! [`ClusterSim::run_stream`]: crate::ClusterSim::run_stream

use sn_sim::SimTime;

/// Sub-bucket resolution: 16 linear steps per octave ⇒ ≤ 6.25% relative
/// rounding on quantile values.
const SUB_BITS: u32 = 4;
const SUB: usize = 1 << SUB_BITS; // 16
/// Octaves above the linear range: values < 16 use buckets 0..16 exactly;
/// each of the 60 following octaves (2^4 ..= 2^63) gets 16 sub-buckets.
const BUCKETS: usize = SUB + 60 * SUB;

/// Fixed-memory quantile sketch over `u64` nanosecond samples.
pub struct LatencySketch {
    counts: Box<[u64; BUCKETS]>,
    count: u64,
    max: u64,
}

impl Default for LatencySketch {
    fn default() -> Self {
        LatencySketch::new()
    }
}

impl LatencySketch {
    pub fn new() -> LatencySketch {
        LatencySketch {
            counts: Box::new([0u64; BUCKETS]),
            count: 0,
            max: 0,
        }
    }

    /// Bucket index for `v`: exact below [`SUB`], then (octave, 1/16th)
    /// log-linear above it.
    fn index(v: u64) -> usize {
        if v < SUB as u64 {
            v as usize
        } else {
            let h = 63 - v.leading_zeros(); // ≥ SUB_BITS
            let sub = ((v >> (h - SUB_BITS)) & (SUB as u64 - 1)) as usize;
            ((h - SUB_BITS + 1) as usize) * SUB + sub
        }
    }

    /// Largest value mapping into bucket `idx` (the quantile representative;
    /// an upper bound keeps tail estimates conservative).
    fn upper_bound(idx: usize) -> u64 {
        if idx < SUB {
            idx as u64
        } else {
            let h = (idx / SUB - 1) as u32 + SUB_BITS;
            let sub = (idx % SUB) as u64;
            // Lower bound is (16 + sub) << (h - 4); the bucket spans one
            // sub-step, so the upper bound is one step further, minus one.
            let step = 1u64 << (h - SUB_BITS);
            (SUB as u64 + sub + 1)
                .checked_mul(step)
                .map(|u| u - 1)
                .unwrap_or(u64::MAX)
        }
    }

    pub fn record(&mut self, v: u64) {
        self.counts[Self::index(v)] += 1;
        self.count += 1;
        self.max = self.max.max(v);
    }

    /// Nearest-rank quantile, `q ∈ (0, 1]`, same convention as
    /// [`crate::report`]'s exact percentile: the representative of the
    /// bucket holding the ⌈q·n⌉-th sample, clamped to the true maximum so
    /// `q = 1.0` never over-reports. Zero when empty.
    pub fn quantile(&self, q: f64) -> SimTime {
        assert!(q > 0.0 && q <= 1.0, "quantile q must be in (0, 1], got {q}");
        if self.count == 0 {
            return SimTime::ZERO;
        }
        let rank = (q * self.count as f64).ceil() as u64;
        let rank = rank.clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return SimTime(Self::upper_bound(idx).min(self.max));
            }
        }
        SimTime(self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut s = LatencySketch::new();
        for v in 0..16u64 {
            s.record(v);
        }
        assert_eq!(s.count, 16);
        assert_eq!(s.quantile(1.0 / 16.0), SimTime(0));
        assert_eq!(s.quantile(0.5), SimTime(7));
        assert_eq!(s.quantile(1.0), SimTime(15));
    }

    #[test]
    fn quantiles_are_within_one_sixteenth() {
        // A deterministic spread over six decades; the sketch quantile must
        // sit within 1/16 relative error of the exact nearest-rank value.
        let mut s = LatencySketch::new();
        let mut exact: Vec<u64> = Vec::new();
        let mut x = 17u64;
        for _ in 0..10_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1) % 1_000_000_000;
            s.record(x);
            exact.push(x);
        }
        exact.sort_unstable();
        for q in [0.5, 0.9, 0.99, 0.999, 1.0] {
            let rank = ((q * exact.len() as f64).ceil() as usize).clamp(1, exact.len());
            let truth = exact[rank - 1] as f64;
            let est = s.quantile(q).0 as f64;
            assert!(
                est >= truth && est <= truth * (1.0 + 1.0 / 16.0) + 1.0,
                "q={q}: est {est} vs exact {truth}"
            );
        }
    }

    #[test]
    fn max_clamps_the_top_quantile() {
        let mut s = LatencySketch::new();
        s.record(1_000_003);
        assert_eq!(s.quantile(1.0), SimTime(1_000_003));
        assert_eq!(s.quantile(0.5), SimTime(1_000_003));
    }

    #[test]
    fn extreme_values_do_not_overflow() {
        let mut s = LatencySketch::new();
        s.record(u64::MAX);
        s.record(0);
        assert_eq!(s.quantile(1.0), SimTime(u64::MAX));
        assert_eq!(s.quantile(0.25), SimTime(0));
    }

    #[test]
    #[should_panic(expected = "quantile q must be in (0, 1]")]
    fn rejects_q_zero() {
        LatencySketch::new().quantile(0.0);
    }
}
