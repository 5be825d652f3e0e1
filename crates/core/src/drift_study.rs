//! Model evolution over time (§6.5, Tables 16–17).
//!
//! Three scenarios per classifier and subsample size:
//!
//! * **Old-Old** — train and test on Dataset 1 (cross-validated);
//! * **New-New** — train and test on Dataset 2 (cross-validated);
//! * **Old-New** — train on *all* of Dataset 1, test on *all* of
//!   Dataset 2 ("are models trained with the old data still valid on the
//!   new data?").
//!
//! The paper reports AUC-ROC (Table 16) and legitimate precision
//! (Table 17) — "the two most meaningful classification measures for our
//! problem".

use crate::classify::{evaluate_tfidf_in, CvConfig, TextLearnerKind};
use crate::features::ExtractedCorpus;
use crate::pipeline::{ArtifactStore, Pipeline};
use pharmaverify_ml::{Dataset, EvalSummary, FoldOutcome, Sampling};

/// One cell of Tables 16/17.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftCell {
    /// Area under the ROC curve (Table 16).
    pub auc: f64,
    /// Legitimate-class precision (Table 17).
    pub legitimate_precision: f64,
}

impl From<EvalSummary> for DriftCell {
    fn from(s: EvalSummary) -> Self {
        DriftCell {
            auc: s.auc,
            legitimate_precision: s.legitimate.precision,
        }
    }
}

/// The three scenario cells for one classifier/subsample configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftRow {
    /// Train & test on Dataset 1.
    pub old_old: DriftCell,
    /// Train & test on Dataset 2.
    pub new_new: DriftCell,
    /// Train on Dataset 1, test on Dataset 2.
    pub old_new: DriftCell,
}

/// Trains on the whole old corpus and tests on the whole new corpus —
/// the Old-New scenario.
pub fn train_old_test_new(
    old: &ExtractedCorpus,
    new: &ExtractedCorpus,
    kind: TextLearnerKind,
    sampling: Sampling,
    subsample: Option<usize>,
    seed: u64,
) -> EvalSummary {
    let store = ArtifactStore::new();
    train_old_test_new_in(
        Pipeline::new(&store, old),
        Pipeline::new(&store, new),
        kind,
        sampling,
        subsample,
        seed,
    )
}

/// [`train_old_test_new`] against shared artifact stores: one pipeline
/// per corpus (they may share the underlying store — the corpus
/// fingerprint keeps the two datasets' artifacts apart).
pub fn train_old_test_new_in(
    old_pipe: Pipeline<'_>,
    new_pipe: Pipeline<'_>,
    kind: TextLearnerKind,
    sampling: Sampling,
    subsample: Option<usize>,
    seed: u64,
) -> EvalSummary {
    let old = old_pipe.corpus();
    let new = new_pipe.corpus();
    assert!(
        !old.is_empty() && !new.is_empty(),
        "corpora must not be empty"
    );
    let weighting = kind.weighting();
    let all_old: Vec<usize> = (0..old.len()).collect();
    let tfidf = old_pipe.fitted_tfidf(subsample, seed, None, &all_old);
    let mut train = Dataset::new(tfidf.dim());
    for (i, &label) in old.labels.iter().enumerate() {
        train.push(tfidf.vector(i, weighting), label);
    }
    let train = sampling.apply(&train, seed);
    let model = kind.learner().fit(&train);
    // Dataset 2's documents are not the artifact's own: they are
    // vectorized over the old model here.
    let new_docs = new_pipe.subsampled_docs(subsample, seed ^ NEW_SEED);
    let rows = new_docs
        .iter()
        .map(|doc| weighting.vectorize(tfidf.model(), doc));
    FoldOutcome::score(&model, rows.zip(new.labels.iter().copied())).summary
}

/// Runs all three scenarios for one classifier and subsample size.
pub fn drift_row(
    old: &ExtractedCorpus,
    new: &ExtractedCorpus,
    kind: TextLearnerKind,
    sampling: Sampling,
    subsample: Option<usize>,
    cv: CvConfig,
) -> DriftRow {
    let store = ArtifactStore::new();
    drift_row_in(
        Pipeline::new(&store, old),
        Pipeline::new(&store, new),
        kind,
        sampling,
        subsample,
        cv,
    )
}

/// [`drift_row`] against shared artifact stores: the Old-Old and Old-New
/// scenarios share Dataset 1's subsample draw, and repeated rows share
/// both corpora's fold splits and fitted models across classifiers.
pub fn drift_row_in(
    old_pipe: Pipeline<'_>,
    new_pipe: Pipeline<'_>,
    kind: TextLearnerKind,
    sampling: Sampling,
    subsample: Option<usize>,
    cv: CvConfig,
) -> DriftRow {
    let learner = kind.learner();
    let weighting = kind.weighting();
    let old_old = evaluate_tfidf_in(
        old_pipe,
        learner.as_ref(),
        sampling,
        weighting,
        subsample,
        cv,
    )
    .aggregate();
    let new_new = evaluate_tfidf_in(
        new_pipe,
        learner.as_ref(),
        sampling,
        weighting,
        subsample,
        cv,
    )
    .aggregate();
    let old_new = train_old_test_new_in(old_pipe, new_pipe, kind, sampling, subsample, cv.seed);
    DriftRow {
        old_old: old_old.into(),
        new_new: new_new.into(),
        old_new: old_new.into(),
    }
}

/// Seed tweak so new-corpus subsamples never reuse old-corpus draws.
const NEW_SEED: u64 = 0x2e77;

#[cfg(test)]
mod tests {
    use super::*;
    use pharmaverify_ml::ClassMetrics;

    #[test]
    fn cell_from_summary_extracts_the_right_fields() {
        let summary = EvalSummary {
            accuracy: 0.9,
            auc: 0.95,
            legitimate: ClassMetrics {
                precision: 0.8,
                recall: 0.7,
                f1: 0.74,
            },
            illegitimate: ClassMetrics::default(),
        };
        let cell: DriftCell = summary.into();
        assert_eq!(cell.auc, 0.95);
        assert_eq!(cell.legitimate_precision, 0.8);
    }
}
