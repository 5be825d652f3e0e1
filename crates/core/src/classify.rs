//! The classification pipelines (Problem 1, OPC).
//!
//! Four pipelines, matching §6.3 of the paper:
//!
//! * [`evaluate_tfidf`] — Term-Vector/TF-IDF text classification
//!   (Tables 3–6): per CV fold, the TF-IDF vectorizer is fitted on the
//!   training documents only, the optional resampling is applied to the
//!   training split only, and the classifier is evaluated on the held-out
//!   fold;
//! * [`evaluate_ngg`] — N-Gram-Graph text classification (Tables 7–10):
//!   per fold, each class graph merges a random half of that class's
//!   training documents, and every document's 8 similarities are the
//!   features;
//! * [`evaluate_network`] — TrustRank network classification
//!   (Tables 12–13): the link graph is built once (Algorithm 1); per fold
//!   the training-fold legitimate pharmacies seed the trust propagation
//!   and a Gaussian naive Bayes is trained on the resulting scores;
//! * [`evaluate_ensemble`] — ensemble selection over a library combining
//!   text and network models (Table 14), hillclimbing on a held-out
//!   fifth of each training split.
//!
//! Every pipeline is one loop over the stratified [`FoldSplit`] its
//! artifact store caches: featurize the training split, fit, and measure
//! the test split with [`FoldOutcome::score`], reading each document's
//! vector from the fold artifact that owns it (the fitted TF-IDF model
//! or the class graphs, which compute it once). The TF-IDF,
//! N-Gram-Graph and ensemble pipelines run a scoped thread per fold
//! ([`FoldSplit::par_map`]); the network pipeline runs its folds
//! serially, in the loop it shares with
//! [`crate::extensions::evaluate_network_variant`].

use crate::extensions::{network_folds, NetworkVariant};
use crate::features::ExtractedCorpus;
use crate::pipeline::{ArtifactStore, Executor, NggFoldGraphs, Pipeline};
use pharmaverify_ml::{
    greedy_auc_selection, CvOutcome, Dataset, DecisionTree, FoldOutcome, FoldSplit,
    GaussianNaiveBayes, Learner, LinearSvm, Mlp, Model, MultinomialNaiveBayes, Sampling,
};
use pharmaverify_net::{CsrGraph, GraphBuilder, NodeId, TrustRankConfig};
use pharmaverify_text::subsample::subsample_opt;
use pharmaverify_text::{SparseVector, TfIdfModel};

/// Cross-validation parameters shared by every pipeline.
#[derive(Debug, Clone, Copy)]
pub struct CvConfig {
    /// Number of folds (paper: 3).
    pub k: usize,
    /// Seed for fold assignment, subsampling, resampling, and class-graph
    /// sampling.
    pub seed: u64,
}

impl Default for CvConfig {
    fn default() -> Self {
        CvConfig { k: 3, seed: 0x01d }
    }
}

/// The classifier families of the paper's text experiments (Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TextLearnerKind {
    /// Naïve Bayesian Multinomial.
    Nbm,
    /// (Gaussian) Naïve Bayes.
    Nb,
    /// Support vector machine (linear).
    Svm,
    /// C4.5 decision tree.
    J48,
    /// Multilayer perceptron.
    Mlp,
}

impl TextLearnerKind {
    /// Table abbreviation.
    pub fn name(self) -> &'static str {
        match self {
            TextLearnerKind::Nbm => "NBM",
            TextLearnerKind::Nb => "NB",
            TextLearnerKind::Svm => "SVM",
            TextLearnerKind::J48 => "J48",
            TextLearnerKind::Mlp => "MLP",
        }
    }

    /// Constructs the learner with its default (Weka-like) configuration.
    pub fn learner(self) -> Box<dyn Learner> {
        match self {
            TextLearnerKind::Nbm => Box::new(MultinomialNaiveBayes::default()),
            TextLearnerKind::Nb => Box::new(GaussianNaiveBayes::default()),
            TextLearnerKind::Svm => Box::new(LinearSvm::default()),
            TextLearnerKind::J48 => Box::new(DecisionTree::default()),
            TextLearnerKind::Mlp => Box::new(Mlp::default()),
        }
    }

    /// The learner configuration used on the 8 N-Gram-Graph similarity
    /// features. Identical to [`TextLearnerKind::learner`] except for the
    /// SVM: Weka's SMO rescales every attribute over its observed range,
    /// and the similarity features occupy a narrow band of [0, 1], so the
    /// effective soft-margin cost is an order of magnitude higher than on
    /// raw features — `C = 15` reproduces that behaviour.
    pub fn ngg_learner(self) -> Box<dyn Learner> {
        match self {
            TextLearnerKind::Svm => Box::new(LinearSvm::new(pharmaverify_ml::SvmConfig {
                c: 15.0,
                ..pharmaverify_ml::SvmConfig::default()
            })),
            _ => self.learner(),
        }
    }

    /// The sampling treatment the paper reports as best for this
    /// classifier in the TF-IDF experiments ("for each classifier we
    /// present only the sampling technique that performed best", §6.3.1).
    pub fn paper_sampling(self) -> Sampling {
        match self {
            TextLearnerKind::J48 => Sampling::Smote,
            _ => Sampling::None,
        }
    }

    /// The term weighting this learner consumes in the Term-Vector
    /// experiments. The multinomial naive Bayes treats feature values as
    /// occurrence counts (as Weka's `NaiveBayesMultinomial` does), so it
    /// gets raw counts; the discriminative models get TF-IDF weights.
    pub fn weighting(self) -> TermWeighting {
        match self {
            TextLearnerKind::Nbm => TermWeighting::RawCounts,
            _ => TermWeighting::TfIdf,
        }
    }
}

/// How Term-Vector documents are weighted for a given learner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TermWeighting {
    /// Raw term-occurrence counts.
    RawCounts,
    /// `tf · idf` weights (§4.1.1).
    TfIdf,
}

impl TermWeighting {
    /// Vectorizes a document under this weighting with a fitted model.
    /// Corpus documents are vectorized once per model by the
    /// `fitted-tfidf` artifact ([`crate::pipeline::FittedTfIdf::vector`]);
    /// this is the path for documents outside it.
    pub fn vectorize(self, model: &TfIdfModel, doc: &[String]) -> SparseVector {
        match self {
            TermWeighting::RawCounts => model.term_counts(doc),
            TermWeighting::TfIdf => model.transform(doc),
        }
    }
}

/// Subsamples every document of the corpus to `subsample` terms
/// (None = full document), deterministically per document.
pub fn subsampled_documents(
    corpus: &ExtractedCorpus,
    subsample: Option<usize>,
    seed: u64,
) -> Vec<Vec<String>> {
    corpus
        .tokens
        .iter()
        .enumerate()
        .map(|(i, tokens)| subsample_opt(tokens, subsample, seed ^ ((i as u64) << 8)).into_owned())
        .collect()
}

/// TF-IDF text classification under cross-validation (§6.3.1).
///
/// Convenience wrapper over [`evaluate_tfidf_in`] with a transient
/// artifact store; callers holding a shared store should use the `_in`
/// variant so subsamples, fold splits, and fitted models are reused.
pub fn evaluate_tfidf(
    corpus: &ExtractedCorpus,
    learner: &dyn Learner,
    sampling: Sampling,
    weighting: TermWeighting,
    subsample: Option<usize>,
    cv: CvConfig,
) -> CvOutcome {
    let store = ArtifactStore::new();
    evaluate_tfidf_in(
        Pipeline::new(&store, corpus),
        learner,
        sampling,
        weighting,
        subsample,
        cv,
    )
}

/// [`evaluate_tfidf`] against a shared artifact store: the fold split
/// and the per-fold TF-IDF models, with each document's vector over
/// them, are requested from the pipeline instead of rebuilt.
pub fn evaluate_tfidf_in(
    pipe: Pipeline<'_>,
    learner: &dyn Learner,
    sampling: Sampling,
    weighting: TermWeighting,
    subsample: Option<usize>,
    cv: CvConfig,
) -> CvOutcome {
    let corpus = pipe.corpus();
    assert!(!corpus.is_empty(), "corpus must not be empty");
    let split = pipe.fold_split(cv.k, cv.seed);
    let folds = split.par_map(|f, train_idx, test_idx| {
        let tfidf = pipe.fitted_tfidf(subsample, cv.seed, Some(f), train_idx);
        let mut train = Dataset::new(tfidf.dim());
        for &i in train_idx {
            train.push(tfidf.vector(i, weighting), corpus.labels[i]);
        }
        let model = learner.fit(&sampling.apply(&train, cv.seed));
        let rows = test_idx
            .iter()
            .map(|&i| (tfidf.vector(i, weighting), corpus.labels[i]));
        FoldOutcome::score(&model, rows)
    });
    CvOutcome { folds }
}

/// The N-Gram-Graph input texts of (subsampled) documents: each
/// preprocessed token stream re-joined with spaces, so every subsample
/// size uses the same representation.
pub fn ngg_document_texts(docs: &[Vec<String>]) -> Vec<String> {
    docs.iter().map(|tokens| tokens.join(" ")).collect()
}

/// N-Gram-Graph text classification under cross-validation (§6.3.1,
/// Figure 2). No resampling is applied ("for N-Gram Graphs we do not use
/// sampling, because of the nature of this representation").
pub fn evaluate_ngg(
    corpus: &ExtractedCorpus,
    learner: &dyn Learner,
    subsample: Option<usize>,
    cv: CvConfig,
) -> CvOutcome {
    let store = ArtifactStore::new();
    evaluate_ngg_in(Pipeline::new(&store, corpus), learner, subsample, cv)
}

/// [`evaluate_ngg`] against a shared artifact store: the fold split and
/// the per-fold class graphs, with each document's features against
/// them, come from the pipeline. Every document is read in every fold,
/// so the folds' feature slots are filled together, one document graph
/// each ([`NggFoldGraphs::fill_all`]).
pub fn evaluate_ngg_in(
    pipe: Pipeline<'_>,
    learner: &dyn Learner,
    subsample: Option<usize>,
    cv: CvConfig,
) -> CvOutcome {
    let corpus = pipe.corpus();
    assert!(!corpus.is_empty(), "corpus must not be empty");
    let split = pipe.fold_split(cv.k, cv.seed);
    let fold_graphs =
        split.par_map(|f, train_idx, _| pipe.ngg_class_graphs(subsample, cv.seed, f, train_idx));
    NggFoldGraphs::fill_all(&fold_graphs);
    let folds = split.par_map(|f, train_idx, test_idx| {
        let class_graphs = &fold_graphs[f];
        let featurize = |i: usize| SparseVector::from_dense(&class_graphs.features(i).to_vec());
        let mut train = Dataset::new(8);
        for &i in train_idx {
            train.push(featurize(i), corpus.labels[i]);
        }
        let model = learner.fit(&train);
        FoldOutcome::score(
            &model,
            test_idx.iter().map(|&i| (featurize(i), corpus.labels[i])),
        )
    });
    CvOutcome { folds }
}

/// The link graph of Algorithm 1 plus the node id of each pharmacy.
///
/// The graph is a frozen [`CsrGraph`]: construction goes through
/// [`web_graph_builder`] (or [`build_web_graph`], which freezes for you),
/// and ranking runs the CSR tiled push kernels — bit-identical at any
/// worker count.
#[derive(Debug, Clone)]
pub struct NetworkArtifacts {
    /// The domain graph (pharmacies + external link targets), frozen.
    pub graph: CsrGraph,
    /// `pharmacy_nodes[i]` is the node of `corpus.domains[i]`.
    pub pharmacy_nodes: Vec<NodeId>,
}

/// The Algorithm 1 graph as a still-mutable [`GraphBuilder`], for callers
/// that add more nodes (portals, spliced shards) before freezing.
pub fn web_graph_builder(corpus: &ExtractedCorpus) -> (GraphBuilder, Vec<NodeId>) {
    let mut builder = GraphBuilder::new();
    let pharmacy_nodes: Vec<NodeId> = corpus
        .domains
        .iter()
        .map(|d| builder.add_pharmacy(d))
        .collect();
    for (i, outbound) in corpus.outbound.iter().enumerate() {
        for (target, &count) in outbound {
            builder.add_link(pharmacy_nodes[i], target, count as f64);
        }
    }
    (builder, pharmacy_nodes)
}

/// Builds and freezes the Algorithm 1 graph from a corpus's outbound
/// endpoints.
pub fn build_web_graph(corpus: &ExtractedCorpus) -> NetworkArtifacts {
    let (builder, pharmacy_nodes) = web_graph_builder(corpus);
    NetworkArtifacts {
        graph: builder.freeze(),
        pharmacy_nodes,
    }
}

/// The block dispatcher the rank kernels run on: the configured executor
/// width (`PHARMAVERIFY_JOBS`), falling back to serial when the variable
/// is malformed — the scores are byte-identical either way, so a bad
/// value degrades throughput, never correctness.
pub(crate) fn rank_executor() -> Executor {
    Executor::from_env().unwrap_or_else(|_| Executor::serial())
}

/// Per-pharmacy TrustRank scores with the given legitimate seed indices
/// (indices into the corpus). Scores are scaled by the node count so that
/// they are O(1) rather than O(1/n).
pub fn pharmacy_trust_scores(
    artifacts: &NetworkArtifacts,
    corpus_seed_indices: &[usize],
    config: &TrustRankConfig,
) -> Vec<f64> {
    let seeds: Vec<NodeId> = corpus_seed_indices
        .iter()
        .map(|&i| artifacts.pharmacy_nodes[i])
        .collect();
    let trust = artifacts
        .graph
        .trust_rank_with(&seeds, config, &rank_executor());
    let scale = artifacts.graph.node_count() as f64;
    artifacts
        .pharmacy_nodes
        .iter()
        .map(|&n| trust[n as usize] * scale)
        .collect()
}

/// TrustRank network classification (§6.3.2): Gaussian naive Bayes on the
/// TrustRank score, seeded per fold by the training-fold legitimate
/// pharmacies.
pub fn evaluate_network(corpus: &ExtractedCorpus, cv: CvConfig) -> CvOutcome {
    let store = ArtifactStore::new();
    evaluate_network_in(Pipeline::new(&store, corpus), cv)
}

/// [`evaluate_network`] against a shared artifact store: the per-fold
/// TrustRank score vectors are memoized by their seed set (the link
/// graph behind them is built once per store). The fold loop is the one
/// [`crate::extensions::evaluate_network_variant`] runs.
pub fn evaluate_network_in(pipe: Pipeline<'_>, cv: CvConfig) -> CvOutcome {
    assert!(!pipe.corpus().is_empty(), "corpus must not be empty");
    network_folds(
        pipe.corpus(),
        &pipe.fold_split(cv.k, cv.seed),
        NetworkVariant::Trust,
        |config, seeds| pipe.trust_scores(config, seeds),
        || pipe.web_graph(),
    )
}

/// Result of the ensemble-selection pipeline.
#[derive(Debug, Clone)]
pub struct EnsembleOutcome {
    /// Cross-validated performance of the selected ensemble.
    pub outcome: CvOutcome,
    /// Total selection multiplicity of each base model across folds.
    pub composition: Vec<(&'static str, usize)>,
}

/// Ensemble selection over a library spanning text and network features
/// (§6.3.3). The library holds the best text models of §6.3.1 (NBM and
/// SVM on TF-IDF, MLP on N-Gram-Graph features, J48 on SMOTE-resampled
/// TF-IDF) plus the network naive Bayes of §6.3.2; selection hillclimbs
/// AUC on a held-out fifth of each training split.
pub fn evaluate_ensemble(
    corpus: &ExtractedCorpus,
    subsample: Option<usize>,
    cv: CvConfig,
) -> EnsembleOutcome {
    let store = ArtifactStore::new();
    evaluate_ensemble_in(Pipeline::new(&store, corpus), subsample, cv)
}

/// [`evaluate_ensemble`] against a shared artifact store. The fold
/// split and link graph are shared artifacts; the per-fold TF-IDF fit
/// and class graphs are keyed by the ensemble's sub-training index set,
/// so they never collide with (or shadow) the standard fold-training
/// models of [`evaluate_tfidf_in`]. Folds run on a scoped thread each.
pub fn evaluate_ensemble_in(
    pipe: Pipeline<'_>,
    subsample: Option<usize>,
    cv: CvConfig,
) -> EnsembleOutcome {
    let corpus = pipe.corpus();
    assert!(!corpus.is_empty(), "corpus must not be empty");
    const LIBRARY: &[(&str, TextLearnerKind, bool)] = &[
        // (name, learner kind, uses NGG features instead of TF-IDF)
        ("NBM/tfidf", TextLearnerKind::Nbm, false),
        ("SVM/tfidf", TextLearnerKind::Svm, false),
        ("J48/tfidf+smote", TextLearnerKind::J48, false),
        ("MLP/ngg", TextLearnerKind::Mlp, true),
        ("NB/ngg", TextLearnerKind::Nb, true),
    ];
    let trust_config = TrustRankConfig::default();
    let split = pipe.fold_split(cv.k, cv.seed);

    // Hold out a stratified fifth of each training split for
    // hillclimbing: `(sub-training, hillclimb)` indices per fold.
    let holdouts: Vec<(Vec<usize>, Vec<usize>)> = split
        .iter()
        .map(|(_, train_idx, _)| {
            let train_labels: Vec<bool> = train_idx.iter().map(|&i| corpus.labels[i]).collect();
            let hill = FoldSplit::stratified(&train_labels, 5, cv.seed ^ HILL_SEED);
            let pick = |js: &[usize]| -> Vec<usize> { js.iter().map(|&j| train_idx[j]).collect() };
            (pick(hill.train(0)), pick(hill.test(0)))
        })
        .collect();
    // The class graphs are built one fold at a time in the calling
    // thread: run last in a report, when the store is fullest,
    // concurrent builds raise peak memory (DESIGN §5).
    let fold_graphs: Vec<_> = holdouts
        .iter()
        .enumerate()
        .map(|(f, (sub_idx, _))| pipe.ngg_class_graphs(subsample, cv.seed, f, sub_idx))
        .collect();
    NggFoldGraphs::fill_all(&fold_graphs);

    let folds: Vec<(FoldOutcome, Vec<usize>)> = split.par_map(|f, _, test_idx| {
        let (sub_idx, hill_idx) = &holdouts[f];
        let hill_labels: Vec<bool> = hill_idx.iter().map(|&i| corpus.labels[i]).collect();

        // --- One view per feature family, each document vectorized
        // once per view: the TF-IDF model under both term weightings,
        // the NGG similarities and the trust score (seeded by the
        // sub-training legitimate pharmacies). ---
        let view = |dim: usize, vectorize: &dyn Fn(usize) -> SparseVector| {
            let mut train = Dataset::new(dim);
            for &i in sub_idx {
                train.push(vectorize(i), corpus.labels[i]);
            }
            EnsembleView {
                train,
                hill: hill_idx.iter().map(|&i| vectorize(i)).collect(),
                test: test_idx.iter().map(|&i| vectorize(i)).collect(),
            }
        };
        let tfidf = pipe.fitted_tfidf(subsample, cv.seed, Some(f), sub_idx);
        let raw = view(tfidf.dim(), &|i| tfidf.vector(i, TermWeighting::RawCounts));
        let weighted = view(tfidf.dim(), &|i| tfidf.vector(i, TermWeighting::TfIdf));
        let class_graphs = &fold_graphs[f];
        let ngg = view(8, &|i| {
            SparseVector::from_dense(&class_graphs.features(i).to_vec())
        });
        let seed_idx: Vec<usize> = sub_idx
            .iter()
            .copied()
            .filter(|&i| corpus.labels[i])
            .collect();
        let trust = pipe.trust_scores(&trust_config, &seed_idx);
        let network = view(1, &|i| SparseVector::from_pairs(vec![(0, trust[i])]));

        // --- Fit the library on the sub-training split and score the
        // hillclimb and test rows. ---
        let members = LIBRARY
            .iter()
            .map(|&(_, kind, use_ngg)| {
                if use_ngg {
                    (&ngg, kind.ngg_learner(), Sampling::None)
                } else {
                    let view = match kind.weighting() {
                        TermWeighting::RawCounts => &raw,
                        TermWeighting::TfIdf => &weighted,
                    };
                    (view, kind.learner(), kind.paper_sampling())
                }
            })
            .chain(std::iter::once((
                &network,
                Box::new(GaussianNaiveBayes::default()) as Box<dyn Learner>,
                Sampling::None,
            )));
        let mut hill_scores: Vec<Vec<f64>> = Vec::new();
        let mut test_scores: Vec<Vec<f64>> = Vec::new();
        for (view, learner, sampling) in members {
            let model = learner.fit(&sampling.apply(&view.train, cv.seed));
            hill_scores.push(view.hill.iter().map(|x| model.score(x)).collect());
            test_scores.push(view.test.iter().map(|x| model.score(x)).collect());
        }

        // --- Greedy selection on the hillclimb set. ---
        let counts = greedy_auc_selection(&hill_scores, &hill_labels, 25);
        let total: usize = counts.iter().sum::<usize>().max(1);
        let scores: Vec<f64> = (0..test_idx.len())
            .map(|t| {
                test_scores
                    .iter()
                    .zip(&counts)
                    .map(|(m, &c)| m[t] * c as f64)
                    .sum::<f64>()
                    / total as f64
            })
            .collect();
        let labels = test_idx.iter().map(|&i| corpus.labels[i]).collect();
        let predictions = scores.iter().map(|&s| s >= 0.5).collect();
        (FoldOutcome::new(labels, scores, predictions), counts)
    });

    let mut composition: Vec<(&'static str, usize)> = LIBRARY
        .iter()
        .map(|&(name, _, _)| (name, 0))
        .chain(std::iter::once(("NB/network", 0)))
        .collect();
    let mut outcomes = Vec::with_capacity(folds.len());
    for (outcome, counts) in folds {
        for (slot, &c) in composition.iter_mut().zip(&counts) {
            slot.1 += c;
        }
        outcomes.push(outcome);
    }
    EnsembleOutcome {
        outcome: CvOutcome { folds: outcomes },
        composition,
    }
}

/// One feature family's rows in an ensemble fold: the sub-training
/// dataset, and the hillclimb and test vectors in index order.
struct EnsembleView {
    train: Dataset,
    hill: Vec<SparseVector>,
    test: Vec<SparseVector>,
}

/// Seed tweak for the hillclimb split, so it never coincides with the
/// outer fold assignment.
const HILL_SEED: u64 = 0x1711;
