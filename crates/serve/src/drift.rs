//! Verdict-score drift detection: windowed histograms of the combined
//! legitimacy rank plus a deterministic shift statistic.
//!
//! The serving layer scores a stream whose population can move under it
//! — a retrained upstream corpus, a wave of new illegitimate sites, a
//! crawler regression. The monitor folds each completed verdict's `rank`
//! into a fixed-bucket histogram; every `window` verdicts it closes the
//! window, compares it against the **reference** window (the first one
//! completed), and reports drift when the statistic crosses the
//! threshold. The caller decides what to do with a [`DriftVerdict`] —
//! the replay harness retrains on the drifted population and hot-swaps
//! the model through the [`crate::ModelRegistry`].
//!
//! # Determinism
//!
//! The statistic is **total variation distance**: with normalized bucket
//! masses `p` (reference) and `q` (current),
//! `TV = ½ · Σᵢ |pᵢ − qᵢ| ∈ [0, 1]`. Bucket counts are integers and the
//! per-bucket terms are summed in fixed bucket order, so the statistic
//! is a pure function of the multiset of scores in each window — and the
//! monitor is fed on the replay thread in submission order, so windows
//! and statistics are byte-identical at any worker count. The monitor
//! takes no locks and records only deterministic metrics.

use pharmaverify_obs::Registry;

/// The verdict on one closed window.
#[derive(Debug, Clone, PartialEq)]
pub enum DriftVerdict {
    /// This window became the reference distribution.
    Reference,
    /// Shift statistic stayed under the threshold.
    Stable {
        /// Total-variation distance from the reference window.
        statistic: f64,
    },
    /// Shift statistic crossed the threshold: the score population has
    /// moved; the caller should consider retraining.
    Drifted {
        /// Total-variation distance from the reference window.
        statistic: f64,
    },
}

/// Windowed drift monitor over verdict ranks. Single-threaded by
/// design: feed it from one deterministic vantage point (the replay
/// thread), not from racing workers.
pub struct DriftMonitor {
    buckets: usize,
    window: usize,
    threshold: f64,
    reference: Option<Vec<u64>>,
    current: Vec<u64>,
    in_window: usize,
    windows_closed: u64,
}

impl DriftMonitor {
    /// Creates a monitor with no reference window yet. `buckets` splits
    /// the clamped rank range `[0, 2)` (rank is `text_score +
    /// trust_score`; text is in `[0, 1]` and spliced trust rarely
    /// exceeds it); each window closes after `window` verdicts (min 1);
    /// a window whose total-variation distance from the reference
    /// exceeds `threshold` (in `[0, 1]`) has drifted.
    pub fn new(buckets: usize, window: usize, threshold: f64) -> DriftMonitor {
        let buckets = buckets.max(1);
        DriftMonitor {
            current: vec![0; buckets],
            buckets,
            window: window.max(1),
            threshold,
            reference: None,
            in_window: 0,
            windows_closed: 0,
        }
    }

    /// Folds one completed verdict's rank in. Returns `Some` exactly
    /// when this observation closes a window.
    pub fn observe(&mut self, rank: f64, obs: &Registry) -> Option<DriftVerdict> {
        let bucket = self.bucket(rank);
        self.current[bucket] += 1;
        self.in_window += 1;
        if self.in_window < self.window {
            return None;
        }
        let closed = std::mem::replace(&mut self.current, vec![0; self.buckets]);
        self.in_window = 0;
        self.windows_closed += 1;
        obs.add("serve/drift/windows", 1);
        let verdict = match &self.reference {
            None => {
                self.reference = Some(closed);
                DriftVerdict::Reference
            }
            Some(reference) => {
                let statistic = total_variation(reference, &closed);
                // Deterministic integer projection of the statistic for
                // the trace: TV in [0, 1] → parts-per-thousand.
                obs.observe("serve/drift/shift_milli", (statistic * 1000.0) as u64);
                if statistic > self.threshold {
                    obs.add("serve/drift/triggers", 1);
                    DriftVerdict::Drifted { statistic }
                } else {
                    DriftVerdict::Stable { statistic }
                }
            }
        };
        Some(verdict)
    }

    /// Replaces the reference with the next window to close — call after
    /// acting on a [`DriftVerdict::Drifted`] (e.g. a retrain + swap), so
    /// the monitor measures future shift against the new regime instead
    /// of re-triggering on every window.
    pub fn rebase(&mut self) {
        self.reference = None;
    }

    /// Windows closed so far (reference window included).
    pub fn windows_closed(&self) -> u64 {
        self.windows_closed
    }

    fn bucket(&self, rank: f64) -> usize {
        let clamped = rank.clamp(0.0, 2.0);
        let i = (clamped / 2.0 * self.buckets as f64) as usize;
        i.min(self.buckets - 1)
    }
}

/// Total-variation distance between two equal-length integer histograms
/// with their masses normalized: `½ Σ |pᵢ − qᵢ|`, summed in bucket
/// order. 0.0 when either histogram is empty.
fn total_variation(a: &[u64], b: &[u64]) -> f64 {
    let (ta, tb) = (a.iter().sum::<u64>(), b.iter().sum::<u64>());
    if ta == 0 || tb == 0 {
        return 0.0;
    }
    let mut l1 = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        l1 += (x as f64 / ta as f64 - y as f64 / tb as f64).abs();
    }
    0.5 * l1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(monitor: &mut DriftMonitor, obs: &Registry, ranks: &[f64]) -> Vec<DriftVerdict> {
        ranks
            .iter()
            .filter_map(|&r| monitor.observe(r, obs))
            .collect()
    }

    #[test]
    fn first_window_becomes_reference() {
        let obs = Registry::new();
        let mut m = DriftMonitor::new(4, 3, 0.5);
        let verdicts = feed(&mut m, &obs, &[0.1, 0.2, 0.15]);
        assert_eq!(verdicts, vec![DriftVerdict::Reference]);
        assert_eq!(m.windows_closed(), 1);
        assert_eq!(obs.counter("serve/drift/windows"), 1);
    }

    #[test]
    fn identical_windows_are_stable_with_zero_statistic() {
        let obs = Registry::new();
        let mut m = DriftMonitor::new(8, 4, 0.1);
        let ranks = [0.1, 0.6, 1.1, 1.6];
        feed(&mut m, &obs, &ranks);
        let verdicts = feed(&mut m, &obs, &ranks);
        assert_eq!(verdicts, vec![DriftVerdict::Stable { statistic: 0.0 }]);
        assert_eq!(obs.counter("serve/drift/triggers"), 0);
    }

    #[test]
    fn disjoint_windows_trigger_with_full_shift() {
        let obs = Registry::new();
        let mut m = DriftMonitor::new(4, 3, 0.5);
        feed(&mut m, &obs, &[0.1, 0.1, 0.1]); // all in bucket 0
        let verdicts = feed(&mut m, &obs, &[1.9, 1.9, 1.9]); // all in bucket 3
        assert_eq!(verdicts, vec![DriftVerdict::Drifted { statistic: 1.0 }]);
        assert_eq!(obs.counter("serve/drift/triggers"), 1);
    }

    #[test]
    fn rebase_measures_against_the_new_regime() {
        let obs = Registry::new();
        let mut m = DriftMonitor::new(4, 2, 0.5);
        feed(&mut m, &obs, &[0.1, 0.1]);
        assert_eq!(
            feed(&mut m, &obs, &[1.9, 1.9]),
            vec![DriftVerdict::Drifted { statistic: 1.0 }]
        );
        m.rebase();
        // Next window becomes the new reference; the regime that just
        // triggered is now normal.
        assert_eq!(
            feed(&mut m, &obs, &[1.9, 1.9]),
            vec![DriftVerdict::Reference]
        );
        assert_eq!(
            feed(&mut m, &obs, &[1.9, 1.9]),
            vec![DriftVerdict::Stable { statistic: 0.0 }]
        );
    }

    #[test]
    fn statistic_is_order_independent_within_a_window() {
        let ranks = [0.1, 0.4, 0.9, 1.3, 0.2, 1.7, 0.6, 0.6];
        let mut permuted = ranks;
        permuted.reverse();
        let run = |scores: &[f64]| {
            let obs = Registry::new();
            let mut m = DriftMonitor::new(8, scores.len(), 0.5);
            feed(&mut m, &obs, &[0.1; 8]);
            match feed(&mut m, &obs, scores).pop() {
                Some(DriftVerdict::Stable { statistic })
                | Some(DriftVerdict::Drifted { statistic }) => statistic.to_bits(),
                other => panic!("no statistic: {other:?}"),
            }
        };
        assert_eq!(run(&ranks), run(&permuted));
    }

    #[test]
    fn out_of_range_ranks_clamp_into_edge_buckets() {
        let obs = Registry::new();
        let mut m = DriftMonitor::new(4, 2, 0.5);
        // Way outside [0, 2): must not panic, lands in the edge buckets.
        assert_eq!(
            feed(&mut m, &obs, &[-3.0, 99.0]),
            vec![DriftVerdict::Reference]
        );
    }
}
