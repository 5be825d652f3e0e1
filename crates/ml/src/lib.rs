//! Learning substrate for pharmacy verification.
//!
//! The paper trains its classifiers with Weka 3 (§6.3.1); this crate
//! reimplements every model family the evaluation uses, from scratch:
//!
//! * [`nbm`] — multinomial naive Bayes (Weka `NaiveBayesMultinomial`);
//! * [`gaussian_nb`] — Gaussian naive Bayes (Weka `NaiveBayes`);
//! * [`hybrid_nb`] — Gaussian + Bernoulli naive Bayes for feature sets
//!   mixing continuous and binary coordinates;
//! * [`svm`] — linear soft-margin SVM trained by dual coordinate descent;
//! * [`tree`] — a C4.5-style decision tree (Weka `J48`): gain-ratio
//!   splits on numeric attributes with pessimistic-error pruning;
//! * [`mlp`] — a one-hidden-layer perceptron (Weka `MultilayerPerceptron`);
//! * [`ensemble`] — ensemble selection from a library of models
//!   (Caruana et al., ICML 2004), used in §6.3.3.
//!
//! Supporting machinery:
//!
//! * [`calibration`] — Platt scaling of decision values;
//! * [`feature_select`] — information-gain feature selection;
//! * [`dataset`] — the sparse binary-labelled dataset all learners share;
//! * [`sampling`] — random undersampling and SMOTE (§6.1);
//! * [`metrics`] — confusion-matrix measures, pairwise orderedness (§6.2),
//!   and confidence intervals;
//! * [`roc`] — ROC curves and AUC;
//! * [`crossval`] — the seeded stratified k-fold split, the per-fold
//!   helpers every evaluation loop shares (a thread per fold, one
//!   scoring pass per test row), and aggregation across folds;
//! * [`scale`] — per-feature standardization.
//!
//! The *positive* class throughout is **legitimate**, matching §6.2.

pub mod calibration;
pub mod crossval;
pub mod dataset;
pub mod ensemble;
pub mod feature_select;
pub mod gaussian_nb;
pub mod hybrid_nb;
pub mod metrics;
pub mod mlp;
pub mod nbm;
pub mod roc;
pub mod sampling;
pub mod scale;
pub mod svm;
pub mod tree;

pub use calibration::PlattScaler;
pub use crossval::{stratified_folds, CvOutcome, FoldOutcome, FoldSplit};
pub use dataset::{Dataset, DatasetError};
pub use ensemble::{greedy_auc_selection, EnsembleSelection, EnsembleSelectionConfig};
pub use feature_select::{information_gain, project, top_k_features};
pub use gaussian_nb::GaussianNaiveBayes;
pub use hybrid_nb::HybridNaiveBayes;
pub use metrics::{ClassMetrics, ConfidenceInterval, ConfusionMatrix, EvalSummary};
pub use mlp::{Mlp, MlpConfig};
pub use nbm::MultinomialNaiveBayes;
pub use roc::{auc_from_scores, RocCurve};
pub use sampling::{smote, undersample, Sampling};
pub use scale::Scaler;
pub use svm::{LinearSvm, SvmConfig};
pub use tree::{DecisionTree, TreeConfig};

use pharmaverify_text::SparseVector;

/// A fitted binary classifier.
///
/// `score` is the model's confidence in the **positive (legitimate)**
/// class. Probabilistic models return a calibrated probability; margin
/// models (the SVM) return a squashed decision value. In both cases 0.5 is
/// the decision boundary, so `predict` defaults to `score >= 0.5`.
///
/// # Examples
///
/// ```
/// use pharmaverify_ml::{Dataset, Learner, MultinomialNaiveBayes};
/// use pharmaverify_text::SparseVector;
///
/// let mut data = Dataset::new(2);
/// data.push(SparseVector::from_pairs(vec![(0, 3.0)]), true);
/// data.push(SparseVector::from_pairs(vec![(1, 3.0)]), false);
/// let model = MultinomialNaiveBayes::default().fit(&data);
/// assert!(model.predict(&SparseVector::from_pairs(vec![(0, 2.0)])));
/// ```
pub trait Model: Send + Sync {
    /// Confidence in the positive class, in `[0, 1]`.
    fn score(&self, x: &SparseVector) -> f64;

    /// Hard decision: `true` = positive (legitimate).
    fn predict(&self, x: &SparseVector) -> bool {
        self.score(x) >= 0.5
    }

    /// Whether `score` is a calibrated class probability.
    fn is_probabilistic(&self) -> bool;

    /// Short display name (e.g. `"NBM"`).
    fn name(&self) -> &'static str;
}

/// A learning algorithm that produces a [`Model`] from a training set.
pub trait Learner: Send + Sync {
    /// Fits a model. Implementations must be deterministic given the same
    /// dataset (any internal randomness is seeded at construction).
    fn fit(&self, data: &Dataset) -> Box<dyn Model>;

    /// Short display name (e.g. `"SVM"`).
    fn name(&self) -> &'static str;
}

impl Model for Box<dyn Model> {
    fn score(&self, x: &SparseVector) -> f64 {
        (**self).score(x)
    }
    fn predict(&self, x: &SparseVector) -> bool {
        (**self).predict(x)
    }
    fn is_probabilistic(&self) -> bool {
        (**self).is_probabilistic()
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
}
