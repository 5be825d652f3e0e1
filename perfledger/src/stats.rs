//! Order statistics with the ledger's percentile rule: a timing is a
//! median plus the highest percentile that still has at least ten
//! samples beyond it, reported with its label and sample count.

/// Samples that must lie strictly beyond a percentile before it is
/// reported.
pub const MIN_BEYOND: usize = 10;

/// Percentiles tried for the tail, highest first.
const LADDER: [(f64, &str); 3] = [(0.99, "p99"), (0.9, "p90"), (0.5, "p50")];

/// A timing's median and supported tail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// The median (nearest rank).
    pub p50: f64,
    /// The highest supported percentile; the median when none is.
    pub tail: f64,
    /// Which percentile `tail` is.
    pub tail_label: &'static str,
}

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `q·n` samples at or below it.
fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank `q` percentile of `n`.
fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).min(n)
}

/// Summarizes `samples` (any order). An empty input summarizes to zeros
/// with `n = 0`.
pub fn summarize(samples: &[f64]) -> Summary {
    if samples.is_empty() {
        return Summary {
            n: 0,
            p50: 0.0,
            tail: 0.0,
            tail_label: "p50",
        };
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let p50 = nearest_rank(&sorted, 0.5);
    let (q, label) = LADDER
        .iter()
        .copied()
        .find(|&(q, _)| beyond(sorted.len(), q) >= MIN_BEYOND)
        .unwrap_or((0.5, "p50"));
    Summary {
        n: sorted.len(),
        p50,
        tail: nearest_rank(&sorted, q),
        tail_label: label,
    }
}

/// The median of `samples` (0 for none).
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).p50
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed, so summarize must sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let s = summarize(&ramp(1000));
        assert_eq!((s.tail_label, s.tail, s.n), ("p99", 990.0, 1000));
        assert_eq!(s.p50, 500.0);
        // One short of ten beyond p99: fall back to p90.
        let s = summarize(&ramp(999));
        assert_eq!((s.tail_label, s.tail), ("p90", 900.0));
    }

    #[test]
    fn small_samples_fall_back_to_the_highest_supported_percentile() {
        let s = summarize(&ramp(100));
        assert_eq!((s.tail_label, s.tail), ("p90", 90.0));
        let s = summarize(&ramp(99));
        assert_eq!((s.tail_label, s.tail), ("p50", 50.0));
        // Nothing is supported below 20 samples: the tail is the median,
        // labelled as such, with its n.
        let s = summarize(&ramp(5));
        assert_eq!((s.tail_label, s.tail, s.p50, s.n), ("p50", 3.0, 3.0, 5));
    }

    #[test]
    fn empty_and_single_samples() {
        assert_eq!(summarize(&[]).n, 0);
        let s = summarize(&[7.5]);
        assert_eq!((s.p50, s.tail, s.n), (7.5, 7.5, 1));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
