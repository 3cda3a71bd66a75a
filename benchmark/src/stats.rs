//! Order statistics and the calibrated-cost estimator.

/// Sorted copy (NaN-free input assumed: every sample is a measured time or
/// count).
pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    s
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of an ascending slice, by linear
/// interpolation between closest ranks. 0 for an empty slice.
pub fn quantile_sorted(s: &[f64], q: f64) -> f64 {
    if s.is_empty() {
        return 0.0;
    }
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn quantile(v: &[f64], q: f64) -> f64 {
    quantile_sorted(&sorted(v), q)
}

pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Nearest-rank `q`-quantile of integer samples — the ⌈q·n⌉-th smallest, the
/// convention of the program's own reports — by selection, in place and in
/// O(n): it runs inside measured passes. 0 when empty.
pub fn nearest_rank(v: &mut [u64], q: f64) -> u64 {
    if v.is_empty() {
        return 0;
    }
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    *v.select_nth_unstable(rank - 1).1
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)` gives
/// them (the "exclusive" method) — the rule the benchmark's bounds are
/// checked with. Needs at least two samples.
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    let s = sorted(v);
    let n = s.len();
    assert!(n >= 2, "quartiles need two samples");
    let at = |k: usize| {
        // j = k(n+1)/4 split into whole and fractional part, clamped.
        let num = k * (n + 1);
        let j = (num / 4).clamp(1, n - 1);
        let delta = num as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Inter-quartile distance as a share of the median (0 when the median is 0).
pub fn spread(v: &[f64]) -> f64 {
    let (q1, q3) = quartiles(v);
    let m = median(v);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m
    }
}

/// Per-pass calibrated costs: pass `i` ran between reference runs `i` and
/// `i + 1`, so `refs.len() == walls.len() + 1`; its cost is its wall time in
/// units of the mean of the two runs that bracket it.
pub fn ref_costs(walls: &[f64], refs: &[f64]) -> Vec<f64> {
    assert_eq!(refs.len(), walls.len() + 1, "one reference run per gap");
    walls
        .iter()
        .enumerate()
        .map(|(i, w)| w / (0.5 * (refs[i] + refs[i + 1])))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_and_match_python_quartiles() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&v, 0.25), 2.0);
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&v), (1.5, 4.5));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let w: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&w), (2.75, 8.25));
        assert!((spread(&w) - 1.0).abs() < 1e-12);
        // Two samples: both quartiles clamp to the ends' extrapolation.
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }

    #[test]
    fn nearest_rank_picks_the_ceil_qn_th_smallest() {
        let mut v: Vec<u64> = (1..=200).rev().collect();
        assert_eq!(nearest_rank(&mut v, 0.99), 198);
        assert_eq!(nearest_rank(&mut v, 1.0), 200);
        assert_eq!(nearest_rank(&mut v, 0.001), 1);
        assert_eq!(nearest_rank(&mut [], 0.5), 0);
    }

    /// The reason `ref_cost` exists: on a host that alternates between two
    /// speeds, wall time per pass is bimodal while the calibrated cost is not.
    #[test]
    fn ref_cost_recovers_the_true_ratio_on_a_two_speed_series() {
        let true_ratio = 12.5;
        let ref_fast = 0.020;
        // Speed state per slot: runs of 7 fast, 5 slow (1.3× slower), with
        // ±1 % deterministic jitter on every timing.
        let slow = |i: usize| (i % 12) >= 7;
        let jitter = |i: usize| 1.0 + 0.01 * (((i * 2_654_435_761) % 200) as f64 / 100.0 - 1.0);
        let n = 120;
        let refs: Vec<f64> = (0..=n)
            .map(|i| ref_fast * if slow(i) { 1.3 } else { 1.0 } * jitter(i))
            .collect();
        let walls: Vec<f64> = (0..n)
            .map(|i| {
                // The pass runs in the state of the reference run before it.
                true_ratio * ref_fast * if slow(i) { 1.3 } else { 1.0 } * jitter(i + 1000)
            })
            .collect();
        let raw_spread = quantile(&walls, 0.9) / quantile(&walls, 0.1);
        assert!(raw_spread > 1.25, "raw wall time is bimodal: {raw_spread}");
        let est = median(&ref_costs(&walls, &refs));
        assert!(
            (est / true_ratio - 1.0).abs() < 0.02,
            "estimate {est} vs true {true_ratio}"
        );
    }
}
