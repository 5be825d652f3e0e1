//! The artifact pipeline layer: shared stage cache + deterministic
//! parallel execution.
//!
//! The paper's system is a staged pipeline (crawl → summary extraction →
//! text/network feature models → classification/ranking), and its
//! intermediate products are pure functions of `(corpus, config, seed,
//! fold)`. Before this layer existed every consumer re-derived them ad
//! hoc — the table harness alone refitted the same TF-IDF model dozens of
//! times. This module makes the sharing explicit:
//!
//! * [`ArtifactStore`] — a thread-safe memo store holding one typed memo
//!   table per artifact kind ([`Stage`]), keyed by a deterministic
//!   [`ArtifactKey`] fingerprint. Each distinct key is computed exactly
//!   once, even under concurrent requests (per-key `OnceLock`); hit/miss
//!   counters per stage make the reuse observable.
//! * [`Pipeline`] — a cheap handle binding a store to one
//!   [`ExtractedCorpus`] (identified by a content fingerprint, so one
//!   store can serve both datasets of the drift study). Its methods are
//!   the artifact accessors: subsampled documents, N-Gram-Graph texts,
//!   fold splits, fitted TF-IDF models (which memoize each document's
//!   term counts over their vocabulary), per-fold class graphs (which
//!   memoize each document's features against them, and can be filled
//!   document-major across the folds of one text set), the Algorithm 1
//!   web graph, and TrustRank score vectors. An artifact requests the
//!   artifacts it is derived from only when it is computed, so a cache
//!   hit counts one lookup.
//! * [`Executor`] — a scoped-thread work-stealing executor (the
//!   `std::thread::scope` pattern the fold loops already used, made
//!   reusable) that runs `n` indexed jobs on up to `PHARMAVERIFY_JOBS`
//!   threads and returns results **in index order**, so parallel table
//!   generation renders byte-identically to a serial run.
//!
//! Determinism: artifacts are values, not effects — a cache hit returns
//! the same bytes a fresh recomputation would produce, because every
//! source of randomness is pinned inside the key (seed, fold, subsample,
//! and a fingerprint of the exact training-index set). The executor only
//! changes *when* a job runs, never *what* it computes, and reorders
//! results back to submission order before anyone observes them.

use crate::classify::{build_web_graph, pharmacy_trust_scores, NetworkArtifacts};
use crate::classify::{ngg_document_texts, subsampled_documents, CvConfig, TermWeighting};
use crate::features::ExtractedCorpus;
use pharmaverify_ml::FoldSplit;
use pharmaverify_net::TrustRankConfig;
use pharmaverify_ngg::{NGramGraphBuilder, NggClassGraphs, NggFeatures};
use pharmaverify_obs::Registry;
use pharmaverify_text::{SparseVector, TfIdfModel};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// The cacheable artifact kinds — one per pipeline stage whose output is
/// worth sharing between consumers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Per-document term subsamples (`Vec<Vec<String>>`).
    SubsampledDocs,
    /// Subsampled documents re-joined into N-Gram-Graph input strings.
    NggTexts,
    /// A stratified fold split with precomputed training complements.
    FoldSplit,
    /// A TF-IDF model fitted on one training-index set, with its
    /// documents' term counts filled on first request.
    FittedTfIdf,
    /// Per-fold N-Gram-Graph class graphs, with their documents'
    /// features filled on first request.
    NggClassGraphs,
    /// The Algorithm 1 outbound-link graph.
    WebGraph,
    /// Per-pharmacy TrustRank scores for one seed set.
    TrustScores,
}

impl Stage {
    /// Every stage, in display order.
    pub const ALL: [Stage; 7] = [
        Stage::SubsampledDocs,
        Stage::NggTexts,
        Stage::FoldSplit,
        Stage::FittedTfIdf,
        Stage::NggClassGraphs,
        Stage::WebGraph,
        Stage::TrustScores,
    ];

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            Stage::SubsampledDocs => "subsampled-docs",
            Stage::NggTexts => "ngg-texts",
            Stage::FoldSplit => "fold-split",
            Stage::FittedTfIdf => "fitted-tfidf",
            Stage::NggClassGraphs => "ngg-class-graphs",
            Stage::WebGraph => "web-graph",
            Stage::TrustScores => "trust-scores",
        }
    }

    fn index(self) -> usize {
        match self {
            Stage::SubsampledDocs => 0,
            Stage::NggTexts => 1,
            Stage::FoldSplit => 2,
            Stage::FittedTfIdf => 3,
            Stage::NggClassGraphs => 4,
            Stage::WebGraph => 5,
            Stage::TrustScores => 6,
        }
    }
}

/// Sentinel for keys that are not fold-scoped.
pub const NO_FOLD: u32 = u32::MAX;

/// Deterministic fingerprint of one artifact: the stage plus everything
/// its value depends on. Two requests with equal keys are guaranteed to
/// denote the same value; distinct configurations must produce distinct
/// keys (the tests assert this for the seed/fold/subsample axes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArtifactKey {
    /// Which pipeline stage produced the artifact.
    pub stage: Stage,
    /// Content fingerprint of the corpus ([`corpus_fingerprint`]).
    pub corpus: u64,
    /// The stage's seed (subsample draw, fold assignment, graph sampling).
    pub seed: u64,
    /// Fold index for fold-scoped artifacts, [`NO_FOLD`] otherwise.
    pub fold: u32,
    /// Stage parameter: encoded subsample size, fold count `k`, or a
    /// configuration fingerprint — whatever the stage varies over.
    pub param: u64,
    /// Fingerprint of the exact index set the artifact was computed from
    /// ([`indices_fingerprint`]), 0 when the whole corpus is used. This
    /// is what keeps e.g. the ensemble's sub-training TF-IDF model from
    /// colliding with the standard fold-training model at the same seed.
    pub variant: u64,
}

/// FNV-1a, the workspace's no-dependency stable hash. Not `DefaultHasher`:
/// its output must be identical across runs and platforms, because keys
/// feed the determinism audit's reasoning about cache behaviour.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    fn write_str(&mut self, s: &str) {
        // Length-prefix so ("ab","c") and ("a","bc") differ.
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    fn finish(self) -> u64 {
        self.0
    }
}

/// Content fingerprint of an extracted corpus: domains, labels, token
/// streams, and outbound links. Two corpora with the same fingerprint are
/// treated as interchangeable by the store, so everything the cached
/// stages read must be hashed — this is what separates Dataset 1 from
/// Dataset 2 in the drift study's shared store.
pub fn corpus_fingerprint(corpus: &ExtractedCorpus) -> u64 {
    let mut h = Fnv::new();
    h.write_u64(corpus.len() as u64);
    for (domain, &label) in corpus.domains.iter().zip(&corpus.labels) {
        h.write_str(domain);
        h.write(&[u8::from(label)]);
    }
    for tokens in &corpus.tokens {
        h.write_u64(tokens.len() as u64);
        for t in tokens {
            h.write_str(t);
        }
    }
    for outbound in &corpus.outbound {
        h.write_u64(outbound.len() as u64);
        for (target, &count) in outbound {
            h.write_str(target);
            h.write_u64(count as u64);
        }
    }
    // Fetch health participates so a degraded crawl (fault injection)
    // never shares cache entries with a clean crawl of the same sites,
    // even when the surviving summaries happen to coincide.
    for t in &corpus.fetch {
        h.write_u64(t.failed_urls() as u64);
        h.write(&[u8::from(t.is_degraded())]);
    }
    h.finish()
}

/// Fingerprint of an index set (training indices, seed indices).
pub fn indices_fingerprint(indices: &[usize]) -> u64 {
    let mut h = Fnv::new();
    h.write_u64(indices.len() as u64);
    for &i in indices {
        h.write_u64(i as u64);
    }
    h.finish()
}

fn trust_config_fingerprint(config: &TrustRankConfig) -> u64 {
    let mut h = Fnv::new();
    h.write_u64(config.alpha.to_bits());
    h.write_u64(config.iterations as u64);
    h.finish()
}

fn encode_subsample(subsample: Option<usize>) -> u64 {
    match subsample {
        None => 0,
        Some(s) => s as u64 + 1,
    }
}

/// Per-stage hit/miss counters.
#[derive(Debug, Default)]
struct StageStats {
    hits: AtomicU64,
    misses: AtomicU64,
}

/// One typed memo table. The two-level structure (map of per-key
/// `OnceLock` cells) lets concurrent requesters of *different* keys
/// proceed independently while requesters of the *same* key block until
/// the single computation finishes — the closure runs exactly once per
/// key, which is what makes the miss counter a faithful count of distinct
/// computations.
struct Memo<V> {
    cells: Mutex<HashMap<ArtifactKey, Arc<OnceLock<Arc<V>>>>>,
}

impl<V> Memo<V> {
    fn new() -> Memo<V> {
        Memo {
            cells: Mutex::new(HashMap::new()),
        }
    }

    /// The value of `key`, computed on the first request. `inputs`
    /// requests the artifacts the value is computed from and runs only
    /// on a miss, before the stage span opens: a hit counts one lookup,
    /// and each stage span times that stage's own work.
    fn get_or_compute<I>(
        &self,
        key: ArtifactKey,
        store: &ArtifactStore,
        inputs: impl FnOnce() -> I,
        compute: impl FnOnce(I) -> V,
    ) -> Arc<V> {
        let stage = key.stage.name();
        let stats = &store.stats[key.stage.index()];
        let obs = &store.obs;
        let cell = {
            let mut cells = self.cells.lock().unwrap_or_else(PoisonError::into_inner);
            Arc::clone(cells.entry(key).or_default())
        };
        let mut computed = false;
        let value = Arc::clone(cell.get_or_init(|| {
            computed = true;
            let inputs = inputs();
            // lint:allow(obs-name): stage names come from the fixed Stage enum, not input data.
            let _span = obs.span(&format!("pipeline/stage/{stage}"));
            Arc::new(compute(inputs))
        }));
        // Both counter families are deterministic: misses equal the number
        // of distinct keys (the closure runs once per key no matter how
        // many threads race), and hits equal requests minus misses, with
        // the request sequence fixed by the harness rather than the
        // scheduler.
        if computed {
            stats.misses.fetch_add(1, Ordering::Relaxed);
            // lint:allow(obs-name): stage names come from the fixed Stage enum, not input data.
            obs.add(&format!("pipeline/cache/{stage}/misses"), 1);
        } else {
            stats.hits.fetch_add(1, Ordering::Relaxed);
            // lint:allow(obs-name): stage names come from the fixed Stage enum, not input data.
            obs.add(&format!("pipeline/cache/{stage}/hits"), 1);
        }
        value
    }

    fn len(&self) -> usize {
        self.cells
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }
}

/// Hit/miss counters of one stage, as reported by
/// [`ArtifactStore::counters`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheCounters {
    /// Stage display name.
    pub stage: &'static str,
    /// Requests served from the memo store.
    pub hits: u64,
    /// Requests that triggered a fresh computation.
    pub misses: u64,
}

/// Thread-safe memo store over every artifact kind. Cheap to create;
/// shared by reference (or `Arc`) between all consumers of one
/// experiment run.
pub struct ArtifactStore {
    docs: Memo<Vec<Vec<String>>>,
    texts: Memo<Vec<String>>,
    folds: Memo<FoldSplit>,
    tfidf: Memo<FittedTfIdf>,
    ngg_graphs: Memo<NggFoldGraphs>,
    web: Memo<NetworkArtifacts>,
    trust: Memo<Vec<f64>>,
    stats: [StageStats; 7],
    obs: Arc<Registry>,
}

impl ArtifactStore {
    /// Creates an empty store reporting into the process-wide observability
    /// registry.
    pub fn new() -> ArtifactStore {
        ArtifactStore::with_obs(pharmaverify_obs::global_arc())
    }

    /// Creates an empty store reporting into `obs` — for tests that need
    /// metric isolation from the rest of the process.
    pub fn with_obs(obs: Arc<Registry>) -> ArtifactStore {
        ArtifactStore {
            docs: Memo::new(),
            texts: Memo::new(),
            folds: Memo::new(),
            tfidf: Memo::new(),
            ngg_graphs: Memo::new(),
            web: Memo::new(),
            trust: Memo::new(),
            stats: Default::default(),
            obs,
        }
    }

    /// The observability registry this store reports into.
    pub fn obs(&self) -> &Registry {
        &self.obs
    }

    /// Per-stage hit/miss counters, in [`Stage::ALL`] order.
    pub fn counters(&self) -> Vec<CacheCounters> {
        Stage::ALL
            .iter()
            .map(|&stage| {
                let s = &self.stats[stage.index()];
                CacheCounters {
                    stage: stage.name(),
                    hits: s.hits.load(Ordering::Relaxed),
                    misses: s.misses.load(Ordering::Relaxed),
                }
            })
            .collect()
    }

    /// Total `(hits, misses)` across stages.
    pub fn totals(&self) -> (u64, u64) {
        self.counters()
            .iter()
            .fold((0, 0), |(h, m), c| (h + c.hits, m + c.misses))
    }

    /// Number of distinct artifacts currently cached.
    pub fn len(&self) -> usize {
        self.docs.len()
            + self.texts.len()
            + self.folds.len()
            + self.tfidf.len()
            + self.ngg_graphs.len()
            + self.web.len()
            + self.trust.len()
    }

    /// True when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for ArtifactStore {
    fn default() -> Self {
        ArtifactStore::new()
    }
}

impl fmt::Debug for ArtifactStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (hits, misses) = self.totals();
        f.debug_struct("ArtifactStore")
            .field("artifacts", &self.len())
            .field("hits", &hits)
            .field("misses", &misses)
            .finish()
    }
}

/// A store bound to one corpus: the handle the pipelines pass around.
/// Copyable (two references and a fingerprint), so fold-worker threads
/// can capture it by value.
#[derive(Clone, Copy)]
pub struct Pipeline<'a> {
    store: &'a ArtifactStore,
    corpus: &'a ExtractedCorpus,
    fp: u64,
}

impl<'a> Pipeline<'a> {
    /// Binds `store` to `corpus`, fingerprinting the corpus content.
    /// Fingerprinting walks the whole corpus once — create the handle
    /// once per corpus and reuse it (or use
    /// [`Pipeline::with_fingerprint`] with a precomputed fingerprint).
    pub fn new(store: &'a ArtifactStore, corpus: &'a ExtractedCorpus) -> Pipeline<'a> {
        Pipeline {
            store,
            corpus,
            fp: corpus_fingerprint(corpus),
        }
    }

    /// Binds `store` to `corpus` under a caller-computed fingerprint.
    pub fn with_fingerprint(
        store: &'a ArtifactStore,
        corpus: &'a ExtractedCorpus,
        fp: u64,
    ) -> Pipeline<'a> {
        Pipeline { store, corpus, fp }
    }

    /// The bound corpus.
    pub fn corpus(&self) -> &'a ExtractedCorpus {
        self.corpus
    }

    /// The bound corpus's content fingerprint.
    pub fn fingerprint(&self) -> u64 {
        self.fp
    }

    /// The underlying store.
    pub fn store(&self) -> &'a ArtifactStore {
        self.store
    }

    fn key(&self, stage: Stage, seed: u64, fold: u32, param: u64, variant: u64) -> ArtifactKey {
        ArtifactKey {
            stage,
            corpus: self.fp,
            seed,
            fold,
            param,
            variant,
        }
    }

    /// Per-document term subsamples (stage: `subsampled-docs`).
    pub fn subsampled_docs(&self, subsample: Option<usize>, seed: u64) -> Arc<Vec<Vec<String>>> {
        let stage = Stage::SubsampledDocs;
        let key = self.key(stage, seed, NO_FOLD, encode_subsample(subsample), 0);
        self.store.docs.get_or_compute(
            key,
            self.store,
            || (),
            |()| subsampled_documents(self.corpus, subsample, seed),
        )
    }

    /// Subsampled documents re-joined with spaces — the N-Gram-Graph
    /// input representation (stage: `ngg-texts`). Derived from the
    /// `subsampled-docs` artifact so both views share one subsample draw.
    pub fn ngg_texts(&self, subsample: Option<usize>, seed: u64) -> Arc<Vec<String>> {
        let stage = Stage::NggTexts;
        let key = self.key(stage, seed, NO_FOLD, encode_subsample(subsample), 0);
        self.store.texts.get_or_compute(
            key,
            self.store,
            || self.subsampled_docs(subsample, seed),
            |docs| ngg_document_texts(&docs),
        )
    }

    /// The stratified fold split for `(k, seed)` (stage: `fold-split`).
    pub fn fold_split(&self, k: usize, seed: u64) -> Arc<FoldSplit> {
        let stage = Stage::FoldSplit;
        let key = self.key(stage, seed, NO_FOLD, k as u64, 0);
        self.store.folds.get_or_compute(
            key,
            self.store,
            || (),
            |()| FoldSplit::stratified(&self.corpus.labels, k, seed),
        )
    }

    /// Convenience: the fold split of a [`CvConfig`].
    pub fn cv_split(&self, cv: CvConfig) -> Arc<FoldSplit> {
        self.fold_split(cv.k, cv.seed)
    }

    /// A TF-IDF model fitted on `train_idx`'s subsampled documents
    /// (stage: `fitted-tfidf`), which also memoizes every corpus
    /// document's vector over the model ([`FittedTfIdf::vector`]).
    /// `fold` is `None` when the training set is not one of the standard
    /// CV folds (e.g. the drift study's whole-corpus fit); the
    /// `train_idx` fingerprint disambiguates regardless.
    pub fn fitted_tfidf(
        &self,
        subsample: Option<usize>,
        seed: u64,
        fold: Option<usize>,
        train_idx: &[usize],
    ) -> Arc<FittedTfIdf> {
        let stage = Stage::FittedTfIdf;
        let key = self.key(
            stage,
            seed,
            fold.map_or(NO_FOLD, |f| f as u32),
            encode_subsample(subsample),
            indices_fingerprint(train_idx),
        );
        self.store.tfidf.get_or_compute(
            key,
            self.store,
            || self.subsampled_docs(subsample, seed),
            |docs| {
                let train_docs: Vec<&Vec<String>> = train_idx.iter().map(|&i| &docs[i]).collect();
                FittedTfIdf {
                    model: TfIdfModel::fit(&train_docs),
                    counts: docs.iter().map(|_| OnceLock::new()).collect(),
                    docs,
                }
            },
        )
    }

    /// The per-fold N-Gram-Graph class graphs (stage: `ngg-class-graphs`):
    /// each class graph merges a seeded random half of that class's
    /// training documents. The build seed is `base_seed ^ fold`, the
    /// discipline every existing call site uses. The artifact also
    /// memoizes each corpus document's features against the graphs
    /// ([`NggFoldGraphs::features`]), so every consumer of one fold's
    /// graphs shares one featurization per document.
    pub fn ngg_class_graphs(
        &self,
        subsample: Option<usize>,
        base_seed: u64,
        fold: usize,
        train_idx: &[usize],
    ) -> Arc<NggFoldGraphs> {
        let stage = Stage::NggClassGraphs;
        let key = self.key(
            stage,
            base_seed,
            fold as u32,
            encode_subsample(subsample),
            indices_fingerprint(train_idx),
        );
        self.store.ngg_graphs.get_or_compute(
            key,
            self.store,
            || self.ngg_texts(subsample, base_seed),
            |texts| {
                let legit: Vec<&str> = train_idx
                    .iter()
                    .filter(|&&i| self.corpus.labels[i])
                    .map(|&i| texts[i].as_str())
                    .collect();
                let illegit: Vec<&str> = train_idx
                    .iter()
                    .filter(|&&i| !self.corpus.labels[i])
                    .map(|&i| texts[i].as_str())
                    .collect();
                let graphs = NggClassGraphs::build(
                    NGramGraphBuilder::default(),
                    &legit,
                    &illegit,
                    base_seed ^ (fold as u64),
                );
                NggFoldGraphs {
                    graphs,
                    features: texts.iter().map(|_| OnceLock::new()).collect(),
                    texts,
                    filling: Mutex::new(()),
                }
            },
        )
    }

    /// The Algorithm 1 outbound-link graph (stage: `web-graph`).
    pub fn web_graph(&self) -> Arc<NetworkArtifacts> {
        let stage = Stage::WebGraph;
        let key = self.key(stage, 0, NO_FOLD, 0, 0);
        self.store
            .web
            .get_or_compute(key, self.store, || (), |()| build_web_graph(self.corpus))
    }

    /// Per-pharmacy TrustRank scores over the base web graph, seeded by
    /// `seed_idx` (stage: `trust-scores`). Keyed by the trust
    /// configuration and the exact seed set.
    pub fn trust_scores(&self, config: &TrustRankConfig, seed_idx: &[usize]) -> Arc<Vec<f64>> {
        let stage = Stage::TrustScores;
        let key = self.key(
            stage,
            0,
            NO_FOLD,
            trust_config_fingerprint(config),
            indices_fingerprint(seed_idx),
        );
        self.store.trust.get_or_compute(
            key,
            self.store,
            || self.web_graph(),
            |web| pharmacy_trust_scores(&web, seed_idx, config),
        )
    }
}

/// A TF-IDF model fitted on one training-index set (the `fitted-tfidf`
/// artifact) with the subsampled documents of its text set, and one
/// raw-term-count slot per corpus document, filled on first request.
pub struct FittedTfIdf {
    model: TfIdfModel,
    docs: Arc<Vec<Vec<String>>>,
    /// A document's [`TfIdfModel::term_counts`] as `(term id, count)`
    /// pairs: the slots live as long as the store, and whole-number
    /// counts take half the room of the vector's `f64` values.
    counts: Vec<OnceLock<Box<[(u32, u32)]>>>,
}

impl FittedTfIdf {
    /// The fitted model.
    pub fn model(&self) -> &TfIdfModel {
        &self.model
    }

    /// The dimension of the model's vectors: its vocabulary size, at
    /// least 1.
    pub fn dim(&self) -> usize {
        self.model.vocabulary().len().max(1)
    }

    /// Document `i`'s vector under `weighting`, bit-identical to
    /// `weighting.vectorize(model, doc)`: its term counts are computed
    /// on the first request and read from the slot after, and weighed
    /// by idf for [`TermWeighting::TfIdf`].
    ///
    /// # Panics
    /// Panics if `i` is not a document of the corpus.
    pub fn vector(&self, i: usize, weighting: TermWeighting) -> SparseVector {
        let counts = self.counts[i].get_or_init(|| {
            // Exact: a count is a whole number no larger than the document.
            let counts = self.model.term_counts(&self.docs[i]);
            counts.iter().map(|(id, n)| (id, n as u32)).collect()
        });
        let tf = counts.iter().map(|&(id, n)| (id, f64::from(n)));
        match weighting {
            TermWeighting::RawCounts => tf.collect(),
            TermWeighting::TfIdf => self.model.weigh(tf),
        }
    }
}

impl fmt::Debug for FittedTfIdf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FittedTfIdf")
            .field("vocabulary", &self.model.vocabulary().len())
            .field("documents", &self.docs.len())
            .field(
                "vectorized",
                &self.counts.iter().filter(|s| s.get().is_some()).count(),
            )
            .finish()
    }
}

/// One fold's class graphs (the `ngg-class-graphs` artifact) with the
/// texts of the corpus they were built from, and one feature slot per
/// corpus document, filled on first request.
pub struct NggFoldGraphs {
    graphs: NggClassGraphs,
    texts: Arc<Vec<String>>,
    features: Vec<OnceLock<NggFeatures>>,
    /// Held by [`NggFoldGraphs::fill_all`] on the first of its folds.
    filling: Mutex<()>,
}

impl NggFoldGraphs {
    /// Document `i`'s features against the class graphs: computed from
    /// its text on the first request, read from the slot after.
    ///
    /// # Panics
    /// Panics if `i` is not a document of the corpus.
    pub fn features(&self, i: usize) -> NggFeatures {
        *self.features[i].get_or_init(|| self.graphs.features(&self.texts[i]))
    }

    /// Fills every document's feature slot in each of `folds`, the class
    /// graphs of several folds over one text set: each document's n-gram
    /// graph is built once and scored against every fold's class graphs.
    /// Runs one thread per fold over the documents. A fill over folds
    /// that another fill with the same first fold is filling waits for
    /// it, and then builds only what it left empty.
    ///
    /// # Panics
    /// Panics if the folds were not built from one text set.
    pub fn fill_all(folds: &[Arc<NggFoldGraphs>]) {
        let Some(first) = folds.first() else {
            return;
        };
        let texts = &first.texts;
        assert!(
            folds.iter().all(|f| f.texts == *texts),
            "the folds' class graphs must share one text set"
        );
        let _filling = first.filling.lock().unwrap_or_else(PoisonError::into_inner);
        run_indexed(folds.len(), texts.len(), |i| {
            if folds.iter().any(|f| f.features[i].get().is_none()) {
                // The builder `Pipeline::ngg_class_graphs` builds the
                // class graphs with, so each slot is what
                // `NggFoldGraphs::features` would compute.
                let doc = NGramGraphBuilder::default().build(&texts[i]);
                for f in folds {
                    f.features[i].get_or_init(|| f.graphs.features_of_graph(&doc));
                }
            }
        });
    }
}

impl fmt::Debug for NggFoldGraphs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NggFoldGraphs")
            .field("documents", &self.texts.len())
            .field(
                "featurized",
                &self.features.iter().filter(|s| s.get().is_some()).count(),
            )
            .finish()
    }
}

impl fmt::Debug for Pipeline<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Pipeline")
            .field("corpus_fingerprint", &self.fp)
            .field("corpus_len", &self.corpus.len())
            .finish()
    }
}

/// Scoped-thread executor for independent indexed jobs.
///
/// `run(n, f)` evaluates `f(0) … f(n-1)` on up to `jobs` worker threads
/// (work-stealing off a shared atomic counter) and returns the results in
/// **index order** — callers observe exactly what a serial loop would
/// produce, which is why the table harness stays byte-identical across
/// thread counts. With `jobs == 1` the loop runs inline.
#[derive(Debug, Clone, Copy)]
pub struct Executor {
    jobs: usize,
}

/// Environment variable controlling the executor width.
pub const JOBS_ENV: &str = "PHARMAVERIFY_JOBS";

impl Executor {
    /// An executor with the given worker count (clamped to ≥ 1).
    pub fn new(jobs: usize) -> Executor {
        Executor { jobs: jobs.max(1) }
    }

    /// A single-threaded executor.
    pub fn serial() -> Executor {
        Executor::new(1)
    }

    /// Reads [`JOBS_ENV`] (`PHARMAVERIFY_JOBS`). Unset or empty means
    /// "use the machine's available parallelism"; anything else must be a
    /// positive integer.
    ///
    /// # Errors
    /// Returns a descriptive message when the variable is set to anything
    /// but a positive integer, instead of silently falling back.
    pub fn from_env() -> Result<Executor, String> {
        match std::env::var(JOBS_ENV) {
            Err(_) => Ok(Executor::default()),
            Ok(raw) if raw.trim().is_empty() => Ok(Executor::default()),
            Ok(raw) => match raw.trim().parse::<usize>() {
                Ok(n) if n >= 1 => Ok(Executor::new(n)),
                _ => Err(format!(
                    "{JOBS_ENV} must be a positive integer (worker thread count), got {raw:?}"
                )),
            },
        }
    }

    /// The worker thread count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Runs jobs `0..n` and returns their results in index order.
    pub fn run<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let workers = self.jobs.min(n);
        // Run count and queue depth are functions of the submitted work,
        // so they are deterministic; the effective width depends on the
        // configured thread count and is flagged accordingly.
        let obs = pharmaverify_obs::global();
        obs.add("pipeline/executor/runs", 1);
        obs.observe("pipeline/executor/queue_depth", n as u64);
        obs.max_gauge_nondet("pipeline/executor/width", workers as i64);
        run_indexed(workers, n, f)
    }
}

/// Evaluates `f(0) … f(n-1)` on up to `workers` scoped threads, which
/// take indices off a shared atomic counter, and returns the results in
/// index order; with one worker (or one job) the loop runs inline.
fn run_indexed<T, F>(workers: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = workers.min(n);
    if workers <= 1 {
        return (0..n).map(&f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut indexed: Vec<(usize, T)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let next = &next;
                let f = &f;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        out.push((i, f(i)));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    indexed.sort_by_key(|&(i, _)| i);
    indexed.into_iter().map(|(_, v)| v).collect()
}

impl Default for Executor {
    /// One worker per available core.
    fn default() -> Self {
        Executor::new(
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(4),
        )
    }
}

/// The CSR rank kernels in `net` fan their node blocks out through any
/// [`pharmaverify_net::BlockDispatch`]; the executor's index-ordered
/// merge is exactly that contract, so power iteration parallelizes over
/// the same worker pool as the table harness — and stays byte-identical
/// at any width, which the determinism audit checks end to end.
impl pharmaverify_net::BlockDispatch for Executor {
    fn dispatch(&self, blocks: usize, f: &(dyn Fn(usize) -> Vec<f64> + Sync)) -> Vec<Vec<f64>> {
        self.run(blocks, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::extract_corpus;
    use pharmaverify_corpus::{CorpusConfig, SyntheticWeb};
    use pharmaverify_crawl::CrawlConfig;
    use pharmaverify_ngg::GraphSimilarities;
    use std::collections::HashSet;

    fn corpus() -> ExtractedCorpus {
        let web = SyntheticWeb::generate(&CorpusConfig::small(), 42);
        extract_corpus(web.snapshot(), &CrawlConfig::default()).expect("extracts")
    }

    fn counters_for(store: &ArtifactStore, stage: Stage) -> CacheCounters {
        store.counters()[stage.index()]
    }

    #[test]
    fn docs_artifact_matches_fresh_recomputation() {
        let c = corpus();
        let store = ArtifactStore::new();
        let pipe = Pipeline::new(&store, &c);
        let cached = pipe.subsampled_docs(Some(100), 7);
        let fresh = subsampled_documents(&c, Some(100), 7);
        assert_eq!(*cached, fresh);
        // Second request is a hit and returns the same allocation.
        let again = pipe.subsampled_docs(Some(100), 7);
        assert!(Arc::ptr_eq(&cached, &again));
        let stats = counters_for(&store, Stage::SubsampledDocs);
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn ngg_texts_artifact_matches_fresh_recomputation() {
        let c = corpus();
        let store = ArtifactStore::new();
        let pipe = Pipeline::new(&store, &c);
        let cached = pipe.ngg_texts(Some(250), 3);
        let fresh = ngg_document_texts(&subsampled_documents(&c, Some(250), 3));
        assert_eq!(*cached, fresh);
    }

    #[test]
    fn fold_split_artifact_matches_fresh_recomputation() {
        let c = corpus();
        let store = ArtifactStore::new();
        let pipe = Pipeline::new(&store, &c);
        let cached = pipe.fold_split(3, 9);
        assert_eq!(*cached, FoldSplit::stratified(&c.labels, 3, 9));
    }

    #[test]
    fn tfidf_artifact_matches_fresh_recomputation() {
        let c = corpus();
        let store = ArtifactStore::new();
        let pipe = Pipeline::new(&store, &c);
        let split = pipe.fold_split(3, 11);
        let train_idx = split.train(0);
        let cached = pipe.fitted_tfidf(Some(100), 11, Some(0), train_idx);
        let docs = subsampled_documents(&c, Some(100), 11);
        let train_docs: Vec<&Vec<String>> = train_idx.iter().map(|&i| &docs[i]).collect();
        let fresh = TfIdfModel::fit(&train_docs);
        // TfIdfModel has no Eq; compare the transforms every consumer
        // observes — bit-identical sparse vectors over all documents.
        for doc in docs.iter() {
            assert_eq!(
                vector_bits(&cached.model().transform(doc)),
                vector_bits(&fresh.transform(doc))
            );
        }
        // A repeat request is a hit.
        let again = pipe.fitted_tfidf(Some(100), 11, Some(0), train_idx);
        assert!(Arc::ptr_eq(&cached, &again));
    }

    fn vector_bits(v: &SparseVector) -> Vec<(u32, u64)> {
        v.iter().map(|(i, x)| (i, x.to_bits())).collect()
    }

    fn filled_slots(tfidf: &FittedTfIdf) -> usize {
        tfidf.counts.iter().filter(|s| s.get().is_some()).count()
    }

    #[test]
    fn tfidf_artifact_memoizes_every_documents_vector() {
        let c = corpus();
        let store = ArtifactStore::new();
        let pipe = Pipeline::new(&store, &c);
        let split = pipe.fold_split(3, 11);
        let tfidf = pipe.fitted_tfidf(Some(250), 11, Some(1), split.train(1));
        let docs = subsampled_documents(&c, Some(250), 11);
        let model = tfidf.model();
        assert_eq!(tfidf.counts.len(), c.len());
        assert_eq!(filled_slots(&tfidf), 0);
        for (i, doc) in docs.iter().enumerate() {
            let raw = vector_bits(&model.term_counts(doc));
            let weighted = vector_bits(&model.transform(doc));
            assert_eq!(
                vector_bits(&tfidf.vector(i, TermWeighting::TfIdf)),
                weighted
            );
            assert_eq!(vector_bits(&tfidf.vector(i, TermWeighting::RawCounts)), raw);
            // Read from the filled slot.
            assert_eq!(
                vector_bits(&tfidf.vector(i, TermWeighting::TfIdf)),
                weighted
            );
            assert_eq!(
                vector_bits(&TermWeighting::RawCounts.vectorize(model, doc)),
                raw
            );
        }
        // A second request returns the artifact with its slots filled.
        let again = pipe.fitted_tfidf(Some(250), 11, Some(1), split.train(1));
        assert!(Arc::ptr_eq(&tfidf, &again));
        assert_eq!(filled_slots(&again), c.len());
        assert!(format!("{again:?}").contains(&format!("vectorized: {}", c.len())));
        // A value term counting never produces: reads must come from the
        // slot, weighed by idf for TF-IDF.
        let planted = SparseVector::from_pairs(vec![(0, 7.0)]);
        let fresh = pipe.fitted_tfidf(Some(250), 11, Some(2), split.train(2));
        assert!(fresh.counts[5].set(Box::new([(0, 7)])).is_ok());
        assert_eq!(fresh.vector(5, TermWeighting::RawCounts), planted);
        assert_eq!(
            vector_bits(&fresh.vector(5, TermWeighting::TfIdf)),
            vector_bits(&fresh.model().weigh(planted.iter()))
        );
    }

    #[test]
    fn ngg_class_graphs_artifact_matches_fresh_recomputation() {
        let c = corpus();
        let store = ArtifactStore::new();
        let pipe = Pipeline::new(&store, &c);
        let split = pipe.fold_split(3, 5);
        let train_idx = split.train(1);
        let cached = pipe.ngg_class_graphs(Some(100), 5, 1, train_idx);
        let texts = ngg_document_texts(&subsampled_documents(&c, Some(100), 5));
        let legit: Vec<&str> = train_idx
            .iter()
            .filter(|&&i| c.labels[i])
            .map(|&i| texts[i].as_str())
            .collect();
        let illegit: Vec<&str> = train_idx
            .iter()
            .filter(|&&i| !c.labels[i])
            .map(|&i| texts[i].as_str())
            .collect();
        let fresh = NggClassGraphs::build(NGramGraphBuilder::default(), &legit, &illegit, 5 ^ 1);
        assert_eq!(
            cached.features(0).to_vec(),
            fresh.features(&texts[0]).to_vec()
        );
    }

    fn feature_bits(features: NggFeatures) -> Vec<u64> {
        features.to_vec().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn ngg_class_graphs_memoize_every_documents_features() {
        let c = corpus();
        let store = ArtifactStore::new();
        let pipe = Pipeline::new(&store, &c);
        let split = pipe.fold_split(3, 5);
        let fold = pipe.ngg_class_graphs(Some(100), 5, 0, split.train(0));
        let texts = pipe.ngg_texts(Some(100), 5);
        assert_eq!(fold.features.len(), c.len());
        assert!(fold.features.iter().all(|slot| slot.get().is_none()));
        for (i, text) in texts.iter().enumerate() {
            assert_eq!(
                feature_bits(fold.features(i)),
                feature_bits(fold.graphs.features(text)),
                "document {i}"
            );
        }
        // Every consumer of the fold gets the same artifact, filled.
        let again = pipe.ngg_class_graphs(Some(100), 5, 0, split.train(0));
        assert!(Arc::ptr_eq(&fold, &again));
        assert!(again.features.iter().all(|slot| slot.get().is_some()));
        assert!(format!("{again:?}").contains(&format!("featurized: {}", c.len())));
    }

    #[test]
    fn filled_ngg_feature_slot_is_reused() {
        let c = corpus();
        let store = ArtifactStore::new();
        let pipe = Pipeline::new(&store, &c);
        let split = pipe.fold_split(3, 5);
        let fold = pipe.ngg_class_graphs(Some(100), 5, 2, split.train(2));
        let computed = fold.features(3);
        assert_eq!(feature_bits(fold.features(3)), feature_bits(computed));
        // A value the graphs never produce: a second request must read
        // the slot instead of featurizing again.
        let planted = GraphSimilarities {
            cs: 7.0,
            ss: 7.0,
            vs: 7.0,
            nvs: 7.0,
        };
        let planted = NggFeatures {
            legitimate: planted,
            illegitimate: planted,
        };
        assert!(fold.features[4].set(planted).is_ok());
        assert_eq!(feature_bits(fold.features(4)), feature_bits(planted));
    }

    #[test]
    fn fill_all_fills_every_fold_from_one_build_per_document() {
        let c = corpus();
        let store = ArtifactStore::new();
        let pipe = Pipeline::new(&store, &c);
        let split = pipe.fold_split(3, 5);
        let folds: Vec<Arc<NggFoldGraphs>> = split
            .iter()
            .map(|(f, train, _)| pipe.ngg_class_graphs(Some(250), 5, f, train))
            .collect();
        // One slot filled beforehand, as another reader would leave it.
        let early = folds[1].features(7);
        NggFoldGraphs::fill_all(&folds);
        assert_eq!(feature_bits(folds[1].features(7)), feature_bits(early));
        let texts = pipe.ngg_texts(Some(250), 5);
        for (f, fold) in folds.iter().enumerate() {
            assert!(fold.features.iter().all(|slot| slot.get().is_some()));
            for (i, text) in texts.iter().enumerate() {
                assert_eq!(
                    feature_bits(fold.features(i)),
                    feature_bits(fold.graphs.features(text)),
                    "fold {f}, document {i}"
                );
            }
        }
        NggFoldGraphs::fill_all(&[]);
    }

    #[test]
    #[should_panic(expected = "share one text set")]
    fn fill_all_rejects_folds_of_different_text_sets() {
        let c = corpus();
        let store = ArtifactStore::new();
        let pipe = Pipeline::new(&store, &c);
        let split = pipe.fold_split(3, 5);
        NggFoldGraphs::fill_all(&[
            pipe.ngg_class_graphs(Some(100), 5, 0, split.train(0)),
            pipe.ngg_class_graphs(Some(250), 5, 1, split.train(1)),
        ]);
    }

    #[test]
    fn warm_requests_count_one_lookup() {
        let c = corpus();
        let obs = Arc::new(pharmaverify_obs::Registry::with_clock(Box::new(
            pharmaverify_obs::VirtualClock::new(1),
        )));
        let store = ArtifactStore::with_obs(Arc::clone(&obs));
        let pipe = Pipeline::new(&store, &c);
        let train: Vec<usize> = (0..c.len()).step_by(2).collect();
        let config = TrustRankConfig::default();
        for _ in 0..2 {
            pipe.fitted_tfidf(Some(100), 3, None, &train);
            pipe.ngg_class_graphs(Some(100), 3, 0, &train);
            // No seeds: the scores are zero without a propagation run,
            // which would add to the process-wide executor counters.
            pipe.trust_scores(&config, &[]);
        }
        // Each derived artifact requested its inputs once, on its miss;
        // its warm request counted itself alone.
        let lookups = |stage: Stage| {
            let s = counters_for(&store, stage);
            (s.hits, s.misses)
        };
        assert_eq!(lookups(Stage::FittedTfIdf), (1, 1));
        assert_eq!(lookups(Stage::NggClassGraphs), (1, 1));
        assert_eq!(lookups(Stage::TrustScores), (1, 1));
        assert_eq!(lookups(Stage::NggTexts), (0, 1));
        assert_eq!(lookups(Stage::SubsampledDocs), (1, 1));
        assert_eq!(lookups(Stage::WebGraph), (0, 1));
        assert_eq!(obs.counter("pipeline/cache/subsampled-docs/hits"), 1);
    }

    #[test]
    fn web_graph_and_trust_artifacts_match_fresh_recomputation() {
        let c = corpus();
        let store = ArtifactStore::new();
        let pipe = Pipeline::new(&store, &c);
        let cached = pipe.web_graph();
        let fresh = build_web_graph(&c);
        assert_eq!(cached.graph.node_count(), fresh.graph.node_count());
        assert_eq!(cached.pharmacy_nodes, fresh.pharmacy_nodes);
        let seeds: Vec<usize> = (0..c.len()).filter(|&i| c.labels[i]).collect();
        let config = TrustRankConfig::default();
        let cached_trust = pipe.trust_scores(&config, &seeds);
        let fresh_trust = pharmacy_trust_scores(&fresh, &seeds, &config);
        // Bit-identical, not merely approximately equal: cached artifacts
        // must not perturb downstream table output by a single byte.
        assert_eq!(*cached_trust, fresh_trust);
    }

    #[test]
    fn distinct_seed_fold_subsample_keys_never_collide() {
        let c = corpus();
        let store = ArtifactStore::new();
        let pipe = Pipeline::new(&store, &c);
        let mut keys = HashSet::new();
        let mut requests = 0usize;
        for seed in [0u64, 1, 7, 20180326] {
            for subsample in [None, Some(100), Some(1000)] {
                for fold in [0usize, 1, 2] {
                    let key = ArtifactKey {
                        stage: Stage::FittedTfIdf,
                        corpus: pipe.fingerprint(),
                        seed,
                        fold: fold as u32,
                        param: encode_subsample(subsample),
                        variant: 0,
                    };
                    assert!(keys.insert(key), "key collision: {key:?}");
                    requests += 1;
                }
            }
        }
        assert_eq!(keys.len(), requests);
        // And the live store agrees: distinct (seed, subsample) document
        // requests each miss exactly once.
        for seed in [0u64, 1, 7] {
            for subsample in [None, Some(100), Some(1000)] {
                pipe.subsampled_docs(subsample, seed);
                pipe.subsampled_docs(subsample, seed);
            }
        }
        let stats = counters_for(&store, Stage::SubsampledDocs);
        assert_eq!(stats.misses, 9, "one computation per distinct key");
        assert_eq!(stats.hits, 9, "one hit per repeat request");
    }

    #[test]
    fn corpus_fingerprint_separates_datasets() {
        let web = SyntheticWeb::generate(&CorpusConfig::small(), 42);
        let crawl = CrawlConfig::default();
        let c1 = extract_corpus(web.snapshot(), &crawl).expect("extracts");
        let c2 = extract_corpus(web.snapshot2(), &crawl).expect("extracts");
        assert_ne!(corpus_fingerprint(&c1), corpus_fingerprint(&c2));
        // Deterministic per corpus.
        assert_eq!(corpus_fingerprint(&c1), corpus_fingerprint(&c1));
    }

    #[test]
    fn executor_preserves_index_order_at_any_width() {
        let square = |i: usize| i * i;
        let serial: Vec<usize> = Executor::serial().run(37, square);
        for jobs in [2, 3, 8, 64] {
            assert_eq!(Executor::new(jobs).run(37, square), serial, "jobs={jobs}");
        }
        assert!(Executor::new(4).run(0, square).is_empty());
    }

    #[test]
    fn executor_new_clamps_zero_to_one() {
        assert_eq!(Executor::new(0).jobs(), 1);
        assert_eq!(Executor::serial().jobs(), 1);
    }

    #[test]
    fn store_reports_cache_metrics_into_its_registry() {
        let c = corpus();
        let obs = Arc::new(pharmaverify_obs::Registry::with_clock(Box::new(
            pharmaverify_obs::VirtualClock::new(1),
        )));
        let store = ArtifactStore::with_obs(Arc::clone(&obs));
        let pipe = Pipeline::new(&store, &c);
        pipe.fold_split(3, 9);
        pipe.fold_split(3, 9);
        pipe.fold_split(5, 9);
        assert_eq!(obs.counter("pipeline/cache/fold-split/misses"), 2);
        assert_eq!(obs.counter("pipeline/cache/fold-split/hits"), 1);
        // Each miss ran under the stage span; hits never re-enter it.
        assert_eq!(obs.span_count("pipeline/stage/fold-split"), 2);
        // The obs counters agree with the legacy counter API.
        let stats = counters_for(&store, Stage::FoldSplit);
        assert_eq!((stats.hits, stats.misses), (1, 2));
        assert!(std::ptr::eq(store.obs(), obs.as_ref()));
    }

    #[test]
    fn store_reports_len_and_debug() {
        let c = corpus();
        let store = ArtifactStore::new();
        assert!(store.is_empty());
        let pipe = Pipeline::new(&store, &c);
        pipe.web_graph();
        pipe.fold_split(3, 1);
        assert_eq!(store.len(), 2);
        let debug = format!("{store:?}");
        assert!(debug.contains("artifacts"), "{debug}");
    }
}
