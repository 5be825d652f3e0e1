//! Seeded stratified k-fold cross-validation: the split, the fold
//! helpers, and aggregation.
//!
//! The paper evaluates every classifier with 3-fold cross-validation
//! ("two folds were used for training and the third for testing", §6.3.1)
//! and reports per-fold stability via confidence intervals. Stratification
//! keeps the 12/88 class ratio in every fold, which matters with only 167
//! legitimate examples.
//!
//! No one routine runs a whole cross-validation: each evaluation
//! pipeline featurizes its own folds. A pipeline walks a [`FoldSplit`]
//! serially ([`FoldSplit::iter`]) or one scoped thread per fold
//! ([`FoldSplit::par_map`]), fits on the training side, and measures the
//! test side with [`FoldOutcome::score`] (or [`FoldOutcome::new`] when
//! the decisions do not come from one model); [`CvOutcome`] aggregates
//! the folds.

use crate::metrics::{ConfidenceInterval, EvalSummary};
use crate::Model;
use pharmaverify_text::SparseVector;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::borrow::Borrow;

/// Produces `k` stratified folds: each inner `Vec` holds the *test*
/// indices of one fold. Every index appears in exactly one fold, and each
/// fold approximates the global class ratio.
///
/// # Panics
/// Panics if `k < 2` or `k > labels.len()`.
pub fn stratified_folds(labels: &[bool], k: usize, seed: u64) -> Vec<Vec<usize>> {
    assert!(k >= 2, "need at least 2 folds");
    assert!(k <= labels.len(), "more folds than instances");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut pos: Vec<usize> = (0..labels.len()).filter(|&i| labels[i]).collect();
    let mut neg: Vec<usize> = (0..labels.len()).filter(|&i| !labels[i]).collect();
    pos.shuffle(&mut rng);
    neg.shuffle(&mut rng);
    let mut folds = vec![Vec::new(); k];
    for (pos_in_class, &i) in pos.iter().chain(neg.iter()).enumerate() {
        folds[pos_in_class % k].push(i);
    }
    for fold in &mut folds {
        fold.sort_unstable();
    }
    folds
}

/// A reusable stratified k-fold split: per-fold test indices *and* their
/// precomputed training complements.
///
/// [`stratified_folds`] returns only the test side; every consumer then
/// rebuilt the training side with an `O(n · k)` membership scan per fold.
/// `FoldSplit` does that complement computation once, so the split can be
/// shared as a cached artifact across every pipeline that uses the same
/// `(labels, k, seed)` — the fold assignment is the backbone of the whole
/// evaluation and must be bit-identical everywhere.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FoldSplit {
    test: Vec<Vec<usize>>,
    train: Vec<Vec<usize>>,
}

impl FoldSplit {
    /// Builds the stratified split (see [`stratified_folds`]) and its
    /// training complements. Both sides are in ascending index order.
    ///
    /// # Panics
    /// Panics if `k < 2` or `k > labels.len()` (via [`stratified_folds`]).
    pub fn stratified(labels: &[bool], k: usize, seed: u64) -> FoldSplit {
        let test = stratified_folds(labels, k, seed);
        let n = labels.len();
        let train = test
            .iter()
            .map(|fold| {
                let mut in_test = vec![false; n];
                for &i in fold {
                    in_test[i] = true;
                }
                (0..n).filter(|&i| !in_test[i]).collect()
            })
            .collect();
        FoldSplit { test, train }
    }

    /// Number of folds.
    pub fn k(&self) -> usize {
        self.test.len()
    }

    /// Test indices of fold `f`, ascending.
    pub fn test(&self, f: usize) -> &[usize] {
        &self.test[f]
    }

    /// Training indices of fold `f` (the complement of [`FoldSplit::test`]),
    /// ascending.
    pub fn train(&self, f: usize) -> &[usize] {
        &self.train[f]
    }

    /// All test folds, in fold order.
    pub fn test_folds(&self) -> &[Vec<usize>] {
        &self.test
    }

    /// Iterates `(fold, train indices, test indices)` in fold order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &[usize], &[usize])> {
        self.train
            .iter()
            .zip(&self.test)
            .enumerate()
            .map(|(f, (train, test))| (f, train.as_slice(), test.as_slice()))
    }

    /// Runs `f(fold, train indices, test indices)` for every fold, one
    /// scoped thread per fold, and returns the results in fold order. A
    /// panic in any fold resumes on the caller.
    pub fn par_map<T, F>(&self, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, &[usize], &[usize]) -> T + Sync,
    {
        let f = &f;
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .iter()
                .map(|(fold, train, test)| scope.spawn(move || f(fold, train, test)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        })
    }
}

/// The measurements of one cross-validation fold.
#[derive(Debug, Clone)]
pub struct FoldOutcome {
    /// All summary measures on this fold's test instances.
    pub summary: EvalSummary,
    /// Positive-class scores of the test instances, in test-index order.
    pub scores: Vec<f64>,
    /// True labels of the test instances, in test-index order.
    pub labels: Vec<bool>,
}

impl FoldOutcome {
    /// The outcome of one fold from its test labels, positive-class
    /// scores and hard decisions, all in test-index order.
    pub fn new(labels: Vec<bool>, scores: Vec<f64>, predictions: Vec<bool>) -> FoldOutcome {
        FoldOutcome {
            summary: EvalSummary::compute(&labels, &predictions, &scores),
            scores,
            labels,
        }
    }

    /// Measures `model` on a fold's test rows `(features, label)`, given
    /// in test-index order. Each row is featurized once: its score and
    /// its hard decision both come from that one vector.
    pub fn score<M, X>(model: &M, rows: impl IntoIterator<Item = (X, bool)>) -> FoldOutcome
    where
        M: Model + ?Sized,
        X: Borrow<SparseVector>,
    {
        let (mut labels, mut scores, mut predictions) = (Vec::new(), Vec::new(), Vec::new());
        for (x, label) in rows {
            labels.push(label);
            scores.push(model.score(x.borrow()));
            predictions.push(model.predict(x.borrow()));
        }
        FoldOutcome::new(labels, scores, predictions)
    }
}

/// Aggregated cross-validation results.
#[derive(Debug, Clone)]
pub struct CvOutcome {
    /// Per-fold measurements.
    pub folds: Vec<FoldOutcome>,
}

impl CvOutcome {
    /// The mean of every measure across folds — how the paper's tables
    /// report each configuration.
    pub fn aggregate(&self) -> EvalSummary {
        let n = self.folds.len().max(1) as f64;
        let mut agg = EvalSummary::default();
        for f in &self.folds {
            agg.accuracy += f.summary.accuracy / n;
            agg.auc += f.summary.auc / n;
            agg.legitimate.precision += f.summary.legitimate.precision / n;
            agg.legitimate.recall += f.summary.legitimate.recall / n;
            agg.legitimate.f1 += f.summary.legitimate.f1 / n;
            agg.illegitimate.precision += f.summary.illegitimate.precision / n;
            agg.illegitimate.recall += f.summary.illegitimate.recall / n;
            agg.illegitimate.f1 += f.summary.illegitimate.f1 / n;
        }
        agg
    }

    /// 95% confidence interval of fold accuracy (§6.3's stability check).
    pub fn accuracy_interval(&self) -> Option<ConfidenceInterval> {
        let samples: Vec<f64> = self.folds.iter().map(|f| f.summary.accuracy).collect();
        ConfidenceInterval::from_samples(&samples)
    }

    /// All test scores and labels pooled across folds (every instance of
    /// the dataset appears exactly once) — the input to ranking metrics.
    pub fn pooled(&self) -> (Vec<f64>, Vec<bool>) {
        let mut scores = Vec::new();
        let mut labels = Vec::new();
        for f in &self.folds {
            scores.extend_from_slice(&f.scores);
            labels.extend_from_slice(&f.labels);
        }
        (scores, labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use crate::nbm::MultinomialNaiveBayes;
    use crate::sampling::Sampling;
    use crate::Learner;

    fn v(pairs: &[(u32, f64)]) -> SparseVector {
        SparseVector::from_pairs(pairs.to_vec())
    }

    fn labels(n_pos: usize, n_neg: usize) -> Vec<bool> {
        (0..n_pos + n_neg).map(|i| i < n_pos).collect()
    }

    #[test]
    fn folds_partition_all_indices() {
        let y = labels(12, 88);
        let folds = stratified_folds(&y, 3, 1);
        let mut all: Vec<usize> = folds.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn folds_are_stratified() {
        let y = labels(12, 88);
        for fold in stratified_folds(&y, 3, 1) {
            let pos = fold.iter().filter(|&&i| y[i]).count();
            assert!((3..=5).contains(&pos), "fold has {pos} positives");
        }
    }

    #[test]
    fn folds_deterministic_per_seed() {
        let y = labels(10, 20);
        assert_eq!(stratified_folds(&y, 3, 7), stratified_folds(&y, 3, 7));
        assert_ne!(stratified_folds(&y, 3, 7), stratified_folds(&y, 3, 8));
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn single_fold_panics() {
        stratified_folds(&labels(2, 2), 1, 0);
    }

    #[test]
    fn fold_split_matches_stratified_folds() {
        let y = labels(12, 88);
        let split = FoldSplit::stratified(&y, 3, 7);
        assert_eq!(split.test_folds(), &stratified_folds(&y, 3, 7)[..]);
        assert_eq!(split.k(), 3);
    }

    #[test]
    fn fold_split_train_is_the_sorted_complement() {
        let y = labels(10, 20);
        let split = FoldSplit::stratified(&y, 3, 1);
        for (f, train, test) in split.iter() {
            let rebuilt: Vec<usize> = (0..y.len()).filter(|i| !test.contains(i)).collect();
            assert_eq!(train, &rebuilt[..], "fold {f}");
            assert!(train.windows(2).all(|w| w[0] < w[1]));
            assert_eq!(train.len() + test.len(), y.len());
        }
    }

    fn separable_dataset() -> Dataset {
        let mut d = Dataset::new(2);
        for i in 0..15 {
            d.push(v(&[(0, 2.0 + (i % 5) as f64 * 0.1)]), true);
            d.push(v(&[(1, 2.0 + (i % 5) as f64 * 0.1)]), false);
            d.push(v(&[(1, 3.0 + (i % 3) as f64 * 0.1)]), false);
        }
        d
    }

    /// Cross-validates `learner` over `data` through the fold helpers,
    /// resampling each training split (never the test side).
    fn cross_validate(data: &Dataset, learner: &dyn Learner, sampling: Sampling) -> CvOutcome {
        let split = FoldSplit::stratified(data.labels(), 3, 0xf01d);
        let folds = split.par_map(|_, train, test| {
            let model = learner.fit(&sampling.apply(&data.subset(train), 0xf01d));
            FoldOutcome::score(&model, test.iter().map(|&i| (data.x(i), data.y(i))))
        });
        CvOutcome { folds }
    }

    #[test]
    fn par_map_returns_folds_in_order() {
        let split = FoldSplit::stratified(&labels(10, 20), 3, 1);
        let tests = split.par_map(|f, _, test| (f, test.to_vec()));
        let serial: Vec<_> = split
            .iter()
            .map(|(f, _, test)| (f, test.to_vec()))
            .collect();
        assert_eq!(tests, serial);
    }

    #[test]
    fn score_matches_separate_score_and_predict_passes() {
        let data = separable_dataset();
        let model = MultinomialNaiveBayes::default().fit(&data);
        let outcome = FoldOutcome::score(&model, data.iter());
        let scores: Vec<f64> = data.features().iter().map(|x| model.score(x)).collect();
        let predictions: Vec<bool> = data.features().iter().map(|x| model.predict(x)).collect();
        let direct = FoldOutcome::new(data.labels().to_vec(), scores, predictions);
        assert_eq!(outcome.scores, direct.scores);
        assert_eq!(outcome.labels, direct.labels);
        assert_eq!(outcome.summary.accuracy, direct.summary.accuracy);
        assert_eq!(outcome.summary.auc, direct.summary.auc);
    }

    #[test]
    fn cv_on_separable_data_is_accurate() {
        let data = separable_dataset();
        let outcome = cross_validate(&data, &MultinomialNaiveBayes::default(), Sampling::None);
        let agg = outcome.aggregate();
        assert!(agg.accuracy > 0.9, "accuracy = {}", agg.accuracy);
        assert!(agg.auc > 0.9, "auc = {}", agg.auc);
        assert_eq!(outcome.folds.len(), 3);
    }

    #[test]
    fn pooled_covers_every_instance_once() {
        let data = separable_dataset();
        let outcome = cross_validate(&data, &MultinomialNaiveBayes::default(), Sampling::None);
        let (scores, labels) = outcome.pooled();
        assert_eq!(scores.len(), data.len());
        assert_eq!(labels.iter().filter(|&&l| l).count(), data.count_positive());
    }

    #[test]
    fn cv_is_deterministic() {
        let data = separable_dataset();
        let a = cross_validate(&data, &MultinomialNaiveBayes::default(), Sampling::None);
        let b = cross_validate(&data, &MultinomialNaiveBayes::default(), Sampling::None);
        assert_eq!(a.pooled().0, b.pooled().0);
    }

    #[test]
    fn sampling_applies_only_to_training() {
        let data = separable_dataset();
        let outcome = cross_validate(
            &data,
            &MultinomialNaiveBayes::default(),
            Sampling::Undersample,
        );
        // Test instances are untouched: pooled size equals dataset size.
        assert_eq!(outcome.pooled().0.len(), data.len());
    }

    #[test]
    fn accuracy_interval_exists() {
        let data = separable_dataset();
        let outcome = cross_validate(&data, &MultinomialNaiveBayes::default(), Sampling::None);
        let ci = outcome.accuracy_interval().unwrap();
        assert!(ci.mean > 0.8);
        assert!(ci.half_width >= 0.0);
    }
}
