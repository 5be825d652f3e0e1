//! The ranking pipeline (Problem 2, OPR — §5 of the paper).
//!
//! Every pharmacy receives `rank(p) = textRank(p) + networkRank(p)`:
//!
//! * `textRank` is the legitimate-class membership probability for
//!   probabilistic text classifiers, the {0, 1} decision for the
//!   (non-probabilistic) SVM, or the Equation (3) similarity sum for the
//!   N-Gram-Graph representation;
//! * `networkRank` is the TrustRank score of the pharmacy's node.
//!
//! Scores are produced out-of-fold: within each CV round the models are
//! trained on `P₀` (the training folds) and score the remaining
//! pharmacies `P \ P₀`, so every pharmacy is ranked exactly once by a
//! model that never saw it. Quality is measured by pairwise orderedness
//! (§6.2).

use crate::classify::{CvConfig, TextLearnerKind};
use crate::features::ExtractedCorpus;
use crate::pipeline::{ArtifactStore, NggFoldGraphs, Pipeline};
use pharmaverify_corpus::SiteProfile;
use pharmaverify_ml::metrics::pairwise_orderedness;
use pharmaverify_ml::{Dataset, Sampling};
use pharmaverify_net::TrustRankConfig;

/// Which text model produces `textRank`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RankingMethod {
    /// A TF-IDF classifier; SVM contributes {0, 1}, the others their
    /// class probability.
    TfIdf {
        /// The classifier family.
        kind: TextLearnerKind,
        /// Training-split resampling.
        sampling: Sampling,
    },
    /// The N-Gram-Graph Equation (3) similarity sum (no classifier).
    NggEquation3,
}

impl RankingMethod {
    /// Display name for the ranking tables.
    pub fn name(self) -> String {
        match self {
            RankingMethod::TfIdf { kind, sampling } => {
                format!("{} {}", kind.name(), sampling.abbreviation())
            }
            RankingMethod::NggEquation3 => "N-Gram Graph".to_string(),
        }
    }
}

/// One ranked pharmacy.
#[derive(Debug, Clone)]
pub struct RankEntry {
    /// Index into the corpus.
    pub index: usize,
    /// Pharmacy domain.
    pub domain: String,
    /// Oracle label (`true` = legitimate).
    pub label: bool,
    /// Generation profile (outlier analysis only).
    pub profile: SiteProfile,
    /// Text component of the score.
    pub text_rank: f64,
    /// Network component of the score.
    pub network_rank: f64,
}

impl RankEntry {
    /// The combined legitimacy score.
    pub fn rank(&self) -> f64 {
        self.text_rank + self.network_rank
    }
}

/// The ranked list plus its quality measure.
#[derive(Debug, Clone)]
pub struct RankingOutcome {
    /// Entries sorted by decreasing rank (most legitimate first).
    pub entries: Vec<RankEntry>,
    /// Pairwise orderedness over all ranked pharmacies.
    pub pairord: f64,
}

/// Runs the ranking pipeline and evaluates pairwise orderedness.
///
/// Convenience wrapper over [`evaluate_ranking_in`] with a transient
/// artifact store.
pub fn evaluate_ranking(
    corpus: &ExtractedCorpus,
    method: RankingMethod,
    subsample: Option<usize>,
    cv: CvConfig,
) -> RankingOutcome {
    let store = ArtifactStore::new();
    evaluate_ranking_in(Pipeline::new(&store, corpus), method, subsample, cv)
}

/// [`evaluate_ranking`] against a shared artifact store. The per-fold
/// TF-IDF models, class graphs, and TrustRank vectors are the same
/// artifacts the classification pipelines request, so ranking a corpus
/// after classifying it recomputes nothing.
pub fn evaluate_ranking_in(
    pipe: Pipeline<'_>,
    method: RankingMethod,
    subsample: Option<usize>,
    cv: CvConfig,
) -> RankingOutcome {
    evaluate_ranking_impl(pipe, method, subsample, cv, false)
}

/// [`evaluate_ranking_in`] with the spam-mass defense on: the network
/// component is the *defended* trust (trust gated by the
/// seed-calibrated spam-mass tolerance, see
/// `extensions::defended_trust_scores`), with spam mass computed from
/// the same training folds (legitimate seeds for trust, illegitimate
/// seeds for distrust). Everything else —
/// text ranks, folds, pairwise orderedness — is identical, so the
/// off-vs-on pairord gap isolates the defense.
pub fn evaluate_ranking_defended_in(
    pipe: Pipeline<'_>,
    method: RankingMethod,
    subsample: Option<usize>,
    cv: CvConfig,
) -> RankingOutcome {
    evaluate_ranking_impl(pipe, method, subsample, cv, true)
}

fn evaluate_ranking_impl(
    pipe: Pipeline<'_>,
    method: RankingMethod,
    subsample: Option<usize>,
    cv: CvConfig,
    defended: bool,
) -> RankingOutcome {
    let corpus = pipe.corpus();
    assert!(!corpus.is_empty(), "corpus must not be empty");
    let trust_config = TrustRankConfig::default();
    let split = pipe.fold_split(cv.k, cv.seed);
    let mut text_rank = vec![0.0; corpus.len()];
    let mut network_rank = vec![0.0; corpus.len()];
    // The NGG textRank reads the folds' class graphs, their feature
    // slots filled together, one document graph each.
    let ngg_folds = match method {
        RankingMethod::NggEquation3 => {
            let folds: Vec<_> = split
                .iter()
                .map(|(f, train_idx, _)| pipe.ngg_class_graphs(subsample, cv.seed, f, train_idx))
                .collect();
            NggFoldGraphs::fill_all(&folds);
            folds
        }
        RankingMethod::TfIdf { .. } => Vec::new(),
    };

    for (f, train_idx, test_idx) in split.iter() {
        // networkRank: trust seeded by the training-fold legitimate sites.
        let seed_idx: Vec<usize> = train_idx
            .iter()
            .copied()
            .filter(|&i| corpus.labels[i])
            .collect();
        let trust = pipe.trust_scores(&trust_config, &seed_idx);
        if defended {
            let bad_idx: Vec<usize> = train_idx
                .iter()
                .copied()
                .filter(|&i| !corpus.labels[i])
                .collect();
            let spam_mass = crate::extensions::pharmacy_spam_mass(
                &pipe.web_graph(),
                &seed_idx,
                &bad_idx,
                &trust_config,
            );
            let def = crate::extensions::defended_trust_scores(&trust, &spam_mass, &seed_idx);
            for &i in test_idx {
                network_rank[i] = def[i];
            }
        } else {
            for &i in test_idx {
                network_rank[i] = trust[i];
            }
        }
        // textRank: per method.
        match method {
            RankingMethod::TfIdf { kind, sampling } => {
                let weighting = kind.weighting();
                let tfidf = pipe.fitted_tfidf(subsample, cv.seed, Some(f), train_idx);
                let mut train = Dataset::new(tfidf.dim());
                for &i in train_idx {
                    train.push(tfidf.vector(i, weighting), corpus.labels[i]);
                }
                let train = sampling.apply(&train, cv.seed);
                let model = kind.learner().fit(&train);
                for &i in test_idx {
                    let x = tfidf.vector(i, weighting);
                    text_rank[i] = if model.is_probabilistic() {
                        model.score(&x)
                    } else {
                        // §5: non-probabilistic classifiers contribute
                        // their hard decision.
                        if model.predict(&x) {
                            1.0
                        } else {
                            0.0
                        }
                    };
                }
            }
            RankingMethod::NggEquation3 => {
                for &i in test_idx {
                    text_rank[i] = ngg_folds[f].features(i).text_rank();
                }
            }
        }
    }

    let mut entries: Vec<RankEntry> = (0..corpus.len())
        .map(|i| RankEntry {
            index: i,
            domain: corpus.domains[i].clone(),
            label: corpus.labels[i],
            profile: corpus.profiles[i],
            text_rank: text_rank[i],
            network_rank: network_rank[i],
        })
        .collect();
    let scores: Vec<f64> = entries.iter().map(RankEntry::rank).collect();
    let pairord = pairwise_orderedness(&scores, &corpus.labels).unwrap_or(1.0);
    entries.sort_by(|a, b| b.rank().total_cmp(&a.rank()));
    RankingOutcome { entries, pairord }
}
