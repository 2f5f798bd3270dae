//! Order statistics over latency samples, and the reporting rule for
//! tails: a percentile is reported only when at least ten samples lie
//! beyond it, and below forty samples the median alone is reported.

/// The percentiles a tail may be reported at, in tenths of a percent,
/// highest first.
const TAIL_LADDER: [usize; 6] = [999, 990, 950, 900, 750, 500];

/// Samples a reported tail percentile needs beyond it.
const BEYOND: usize = 10;

/// Below this many samples only the median is reported.
const MIN_TAIL_SAMPLES: usize = 40;

/// The highest percentile of the ladder with at least ten of `n`
/// samples beyond it; `None` below forty samples (median only).
pub fn tail_percentile(n: usize) -> Option<f64> {
    if n < MIN_TAIL_SAMPLES {
        return None;
    }
    // Samples beyond the nearest-rank percentile: n - ceil(n * p).
    TAIL_LADDER
        .iter()
        .copied()
        .find(|&p| n - (n * p).div_ceil(1000) >= BEYOND)
        .map(|p| p as f64 / 10.0)
}

/// Nearest-rank percentile `p` (0..=100) of ascending `sorted` samples.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_alone_under_forty_samples() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(39), None);
        // Forty samples: ten lie beyond p75, nine beyond p90.
        assert_eq!(tail_percentile(40), Some(75.0));
    }

    #[test]
    fn highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(1_000_000), Some(99.9));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<f64> = (1..=1_000).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50.0), 500.0);
        assert_eq!(percentile(&sorted, 99.0), 990.0);
        assert_eq!(percentile(&sorted, 100.0), 1_000.0);
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
