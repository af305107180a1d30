//! Order statistics: medians, quartile spread, and the tail-percentile
//! picker that keeps at least ten samples beyond the reported tail.

/// Samples that must lie beyond the reported tail percentile; thinner
/// tails do not repeat between runs on a shared box.
const TAIL_SAMPLES_BEYOND: usize = 10;

/// The tail is never reported above this percentile, however many
/// samples there are: on a shared 2-core box p99 of a 10 s run is set by
/// a handful of scheduler preemptions and does not repeat.
const TAIL_CAP: f64 = 0.95;

/// Sorts ascending; every sample the harness takes is finite.
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
}

/// Nearest-rank percentile `q` in `(0, 1]` of an ascending slice
/// (0 for an empty one).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample (mean of the middle two for even
/// counts; 0 for an empty one).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sort(&mut sorted);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]),
    }
}

/// Distance between the first and third quartile as a share of the
/// median, with the inclusive-method quartiles (`statistics.quantiles`
/// in Python calls this `method="inclusive"`; close enough to its
/// default to judge steadiness by).
pub fn quartile_spread(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sort(&mut sorted);
    let mid = median(&sorted);
    if sorted.len() < 2 || mid == 0.0 {
        return 0.0;
    }
    let at = |q: f64| {
        let pos = q * (sorted.len() - 1) as f64;
        let (lo, frac) = (pos.floor() as usize, pos.fract());
        let hi = (lo + 1).min(sorted.len() - 1);
        sorted[lo] + frac * (sorted[hi] - sorted[lo])
    };
    (at(0.75) - at(0.25)) / mid.abs()
}

/// The highest whole percentile with at least ten of `samples` beyond
/// it, capped at p95 and floored at the median: p75 for 40 samples, p83
/// for 60, p95 from 200 up.
pub fn tail_percentile(samples: usize) -> f64 {
    if samples <= 2 * TAIL_SAMPLES_BEYOND {
        return 0.5;
    }
    let share = (samples - TAIL_SAMPLES_BEYOND) as f64 / samples as f64;
    ((share * 100.0).floor() / 100.0).clamp(0.5, TAIL_CAP)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(40), 0.75);
        assert_eq!(tail_percentile(60), 0.83);
        assert_eq!(tail_percentile(80), 0.87);
        assert_eq!(tail_percentile(96), 0.89);
        assert_eq!(tail_percentile(200), 0.95);
        assert_eq!(tail_percentile(1_000_000), 0.95);
        assert_eq!(tail_percentile(12), 0.5);
        assert_eq!(tail_percentile(0), 0.5);
        for n in [21usize, 28, 40, 100, 250, 999] {
            let q = tail_percentile(n);
            let rank = (q * n as f64).ceil() as usize;
            assert!(n - rank >= TAIL_SAMPLES_BEYOND, "n {n}: rank {rank}");
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.5), 5.0);
        assert_eq!(percentile(&sorted, 0.9), 9.0);
        assert_eq!(percentile(&sorted, 1.0), 10.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        // Quartiles of 1..=5 are 2 and 4; the median is 3.
        let spread = quartile_spread(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert!((spread - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[7.0]), 0.0);
    }
}
