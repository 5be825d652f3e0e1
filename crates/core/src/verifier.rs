//! The deployable verifier: train once on a labelled snapshot, then score
//! arbitrary new pharmacy sites.
//!
//! The evaluation pipelines in [`crate::classify`] measure the system
//! under cross-validation; this module is the *product* the paper
//! describes — "a system capable of automatically giving a trust score to
//! online pharmacies … assisting the human reviewers". A
//! [`TrainedVerifier`] holds the fitted text model, the link graph of the
//! training population, and the fitted network model; [`TrainedVerifier::verify`]
//! crawls a previously-unseen site, splices it into the link graph,
//! propagates trust, and returns both component scores and the combined
//! legitimacy rank.
//!
//! The training graph is a frozen [`pharmaverify_net::CsrGraph`]; a
//! verification never clones it. Each candidate site is layered on as a
//! [`SpliceOverlay`] delta (the base arrays stay untouched), trust is
//! propagated over base + delta, and the overlay is rolled back — so the
//! per-site cost is the propagation itself, not a graph copy.

use crate::classify::{
    build_web_graph, ngg_document_texts, subsampled_documents, NetworkArtifacts, TextLearnerKind,
};
use crate::extensions::SeedTeleport;
use crate::features::ExtractedCorpus;
use pharmaverify_crawl::{summarize_crawl, CrawlConfig, Crawler, Url, WebHost};
use pharmaverify_ml::{Dataset, GaussianNaiveBayes, Learner, Model};
use pharmaverify_net::{
    IncrementalConfig, IncrementalOutcome, NodeId, SpliceOverlay, TrustRankConfig, TrustTrajectory,
};
use pharmaverify_ngg::{NGramGraphBuilder, NggClassGraphs};
use pharmaverify_text::subsample::subsample_indices;
use pharmaverify_text::{preprocess, SparseVector, TfIdfModel};
use std::fmt;

/// Which verification tier produced a [`Verdict`] — the provenance tag
/// threaded through the serving federation so every answer names the
/// evidence it rests on. Ordered cheapest to most expensive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum VerdictSource {
    /// Served from the in-memory TTL response cache.
    ResponseCache,
    /// Served from the persisted verdict store (a prior slow-path
    /// verdict within its staleness budget).
    VerdictStore,
    /// Computed by the text-only fast path ([`TrainedVerifier::verify_text_only`]):
    /// TF-IDF + NGG features, no graph splice.
    TextOnly,
    /// Computed by the full graph-spliced slow path
    /// ([`TrainedVerifier::verify`] / [`TrainedVerifier::verify_batch`]).
    GraphSpliced,
}

impl VerdictSource {
    /// Stable short name, used in report tables and metric paths.
    pub fn as_str(&self) -> &'static str {
        match self {
            VerdictSource::ResponseCache => "cache",
            VerdictSource::VerdictStore => "store",
            VerdictSource::TextOnly => "text-only",
            VerdictSource::GraphSpliced => "graph-spliced",
        }
    }
}

impl fmt::Display for VerdictSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The verdict for one verified site.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// Second-level domain of the verified site.
    pub domain: String,
    /// Pages the crawler fetched.
    pub pages_crawled: usize,
    /// Text component: the text model's legitimate-class score in [0, 1].
    pub text_score: f64,
    /// Network component: the site's TrustRank value after being spliced
    /// into the training link graph (scaled by node count).
    pub trust_score: f64,
    /// Anti-TrustRank distrust gathered through the site's own outbound
    /// links after splicing (scaled like `trust_score`). Non-zero even
    /// for domains the training graph never saw: distrust flows along a
    /// fresh site's out-links into the known-bad neighborhood.
    pub distrust_score: f64,
    /// Spam mass: the portion of this site's trust co-located with
    /// distrust, `min(trust⁺, distrust)` — the defense feature. High
    /// only when a site both receives seed trust *and* sits in the
    /// distrusted neighborhood (the link-farm signature).
    pub spam_mass: f64,
    /// Network model's legitimate-class score in [0, 1].
    pub network_score: f64,
    /// Combined legitimacy rank, `textRank + networkRank` (§5).
    pub rank: f64,
    /// Hard decision of the text model (the paper's primary classifier).
    pub predicted_legitimate: bool,
    /// True when the crawl lost coverage (transient fetch failures or a
    /// circuit-breaker trip), so the scores rest on a partial summary.
    pub degraded: bool,
    /// Fraction of discovered pages that were actually fetched; 1.0 for a
    /// clean crawl.
    pub crawl_coverage: f64,
    /// Version of the fitted model that produced this verdict. `0` for a
    /// verifier used directly; the serving registry stamps published
    /// versions (see `pharmaverify-serve`'s `ModelRegistry`), and a batch
    /// keeps the version it was pinned to even if a hot-swap lands while
    /// it is in flight.
    pub model_version: u64,
    /// Which tier produced this verdict. Direct `verify`/`verify_batch`
    /// calls stamp [`VerdictSource::GraphSpliced`]; the serving
    /// federation retags answers served from its cheaper tiers.
    pub source: VerdictSource,
    /// Self-assessed confidence in `predicted_legitimate`, in [0, 1].
    /// For the fast path this is the gate the federation policy compares
    /// against `--fast-confidence`: it collapses to 0.0 when the NGG
    /// second opinion disagrees with the text model or the crawl
    /// degraded, so unreliable fast answers fall through.
    pub confidence: f64,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {}",
            self.domain,
            if self.predicted_legitimate {
                "likely LEGITIMATE"
            } else {
                "likely ILLEGITIMATE"
            },
        )?;
        // Degradation belongs in the one-line summary, not only in the
        // trailing caveat: a reviewer scanning one verdict per line must
        // see reduced confidence without reading to the end.
        if self.degraded {
            write!(
                f,
                " DEGRADED (coverage {:.0}%)",
                self.crawl_coverage * 100.0
            )?;
        }
        write!(
            f,
            " (text {:.3}, trust {:.4}, distrust {:.4}, rank {:.3}, {} pages)",
            self.text_score, self.trust_score, self.distrust_score, self.rank, self.pages_crawled,
        )?;
        if self.spam_mass > 0.0 {
            write!(f, " [spam mass {:.4}]", self.spam_mass)?;
        }
        if self.degraded {
            write!(
                f,
                " [degraded crawl: {:.0}% coverage — low confidence]",
                self.crawl_coverage * 100.0
            )?;
        }
        write!(
            f,
            " [via {}, confidence {:.2}]",
            self.source, self.confidence
        )?;
        Ok(())
    }
}

/// Errors from verification.
#[derive(Debug, Clone)]
pub enum VerifyError {
    /// The seed URL did not parse.
    BadUrl(String),
    /// The crawl fetched no pages and every failure was permanent: the
    /// site genuinely has no content to score.
    EmptySite(String),
    /// The crawl fetched no pages but the failures were transient
    /// (timeouts, 5xx, refused connections): the site may well exist,
    /// so no verdict should be recorded against it — retry later.
    Unreachable {
        /// Second-level domain of the unreachable site.
        domain: String,
        /// Total fetch attempts made before giving up.
        attempts: usize,
        /// How many of those attempts were retries.
        retries: usize,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::BadUrl(u) => write!(f, "cannot parse URL: {u}"),
            VerifyError::EmptySite(d) => write!(f, "no pages crawled from {d}"),
            VerifyError::Unreachable {
                domain,
                attempts,
                retries,
            } => write!(
                f,
                "{domain} unreachable: transient failures only \
                 ({attempts} attempts, {retries} retries) — retry later"
            ),
        }
    }
}

impl std::error::Error for VerifyError {}

/// A verifier fitted on a labelled corpus.
pub struct TrainedVerifier {
    crawl_config: CrawlConfig,
    subsample: Option<usize>,
    seed: u64,
    tfidf: TfIdfModel,
    text_model: Box<dyn Model>,
    text_uses_counts: bool,
    artifacts: NetworkArtifacts,
    trust_model: Box<dyn Model>,
    trust_scale: f64,
    trajectory: TrustTrajectory,
    /// Anti-trust propagation history, recorded over the *transposed*
    /// base graph (anti-trust is trust on the transpose), so spliced
    /// candidates get incremental distrust scores too.
    anti_trajectory: TrustTrajectory,
    incremental: IncrementalConfig,
    /// The trust and anti-trust seed sets with their teleport shares:
    /// the verdict's distrust and spam mass use the propagated-only
    /// scores, as the evaluation pipelines do.
    good_seeds: SeedTeleport,
    bad_seeds: SeedTeleport,
    /// Per-class n-gram graphs fitted on the training texts: the fast
    /// path's second opinion (no link evidence needed).
    ngg: NggClassGraphs,
    /// NGG text-rank decision threshold, calibrated at fit time as the
    /// midpoint of the two class means.
    ngg_threshold: f64,
    /// Half the gap between the class means: the text-rank distance at
    /// which NGG confidence saturates to 1.0.
    ngg_gap_half: f64,
    /// Whether legitimate training texts rank *above* the threshold.
    ngg_legit_high: bool,
    model_version: u64,
}

/// Token budget for the fast path's NGG second opinion: character
/// n-gram graph comparison is superlinear in text length, so the fast
/// path caps the summary prefix it featurizes to stay genuinely cheap.
const NGG_FAST_TOKENS: usize = 256;

/// Char budget for the same prefix. A token is a maximal alphabetic run
/// of any length, so the token cap alone lets one huge "word" on a
/// hostile page through whole, into an n-gram interner whose hash is
/// unkeyed. The longest 256-token prefix on the small, medium and paper
/// corpora at three seeds is 2,339 chars.
const NGG_FAST_CHARS: usize = 4096;

/// Training documents sampled per class when calibrating the NGG
/// threshold at fit time.
const NGG_CALIBRATION_DOCS: usize = 16;

/// A crawl's text, summarized and preprocessed: the input of both the
/// text model and the fast path's NGG opinion.
fn crawl_tokens(crawl: &pharmaverify_crawl::CrawlResult) -> Vec<String> {
    preprocess(&summarize_crawl(crawl).text)
}

/// The fast path's NGG input: the first [`NGG_FAST_TOKENS`] tokens
/// joined by spaces, cut to at most [`NGG_FAST_CHARS`] chars.
pub fn ngg_fast_input(tokens: &[String]) -> String {
    let mut input = tokens
        .iter()
        .take(NGG_FAST_TOKENS)
        .map(String::as_str)
        .collect::<Vec<_>>()
        .join(" ");
    if let Some((cut, _)) = input.char_indices().nth(NGG_FAST_CHARS) {
        input.truncate(cut);
    }
    input
}

impl TrainedVerifier {
    /// Fits a verifier on an extracted labelled corpus: the text model on
    /// (subsampled) training documents, and a Gaussian naive Bayes on the
    /// TrustRank scores of the training population seeded by its
    /// legitimate members.
    ///
    /// # Panics
    /// Panics if the corpus is empty or single-class.
    pub fn fit(
        corpus: &ExtractedCorpus,
        kind: TextLearnerKind,
        crawl_config: CrawlConfig,
        subsample: Option<usize>,
        seed: u64,
    ) -> Self {
        assert!(!corpus.is_empty(), "corpus must not be empty");
        let (pos, neg) = corpus.indices_by_class();
        assert!(
            !pos.is_empty() && pos.len() < corpus.len(),
            "corpus must contain both classes"
        );
        // Text model. The same subsample draw, joined, feeds the class
        // graphs below.
        let docs = subsampled_documents(corpus, subsample, seed);
        let tfidf = TfIdfModel::fit(&docs);
        let weighting = kind.weighting();
        let text_uses_counts = weighting == crate::classify::TermWeighting::RawCounts;
        let mut train = Dataset::new(tfidf.vocabulary().len().max(1));
        for (i, doc) in docs.iter().enumerate() {
            train.push(weighting.vectorize(&tfidf, doc), corpus.labels[i]);
        }
        let train = kind.paper_sampling().apply(&train, seed);
        let text_model = kind.learner().fit(&train);

        // Network model. The base graph's full propagation history is
        // recorded once, so each verification can re-rank only the
        // spliced neighborhood; its final iterate is the training
        // population's TrustRank. Exact mode (tolerance 0.0): the
        // incremental scores are bit-identical to a full recompute
        // whether or not the frontier cap trips.
        let artifacts = build_web_graph(corpus);
        let trust_config = TrustRankConfig::default();
        let node_of = |i: &usize| artifacts.pharmacy_nodes[*i];
        let good_nodes: Vec<NodeId> = pos.iter().map(node_of).collect();
        let trajectory = TrustTrajectory::compute(&artifacts.graph, &good_nodes, &trust_config);
        let trust_scale = artifacts.graph.node_count() as f64;
        let mut net_train = Dataset::new(1);
        for (&node, &label) in artifacts.pharmacy_nodes.iter().zip(&corpus.labels) {
            let t = trajectory.final_scores()[node as usize] * trust_scale;
            net_train.push(SparseVector::from_pairs(vec![(0, t)]), label);
        }
        let trust_model = GaussianNaiveBayes::default().fit(&net_train);
        // The anti-trust history: distrust seeded at the training
        // population's illegitimate members, propagated on the transpose.
        let bad_nodes: Vec<NodeId> = neg.iter().map(node_of).collect();
        let anti_trajectory =
            TrustTrajectory::compute(&artifacts.graph.transposed(), &bad_nodes, &trust_config);
        let incremental = IncrementalConfig {
            tolerance: 0.0,
            max_frontier: (artifacts.graph.node_count() / 2).max(64),
        };
        let good_seeds = SeedTeleport::new(&good_nodes, &trust_config);
        let bad_seeds = SeedTeleport::new(&bad_nodes, &trust_config);

        // Fast-path artifacts: per-class n-gram graphs plus a calibrated
        // text-rank threshold. The threshold is the midpoint of the two
        // class means over a small deterministic sample of training
        // texts; half the gap between the means is the distance at which
        // NGG confidence saturates.
        let ngg_texts = ngg_document_texts(&docs);
        let legit_texts: Vec<&str> = (0..corpus.len())
            .filter(|&i| corpus.labels[i])
            .map(|i| ngg_texts[i].as_str())
            .collect();
        let illegit_texts: Vec<&str> = (0..corpus.len())
            .filter(|&i| !corpus.labels[i])
            .map(|i| ngg_texts[i].as_str())
            .collect();
        let ngg = NggClassGraphs::build(
            NGramGraphBuilder::default(),
            &legit_texts,
            &illegit_texts,
            seed,
        );
        let mean_rank = |texts: &[&str]| -> f64 {
            let sample: Vec<&&str> = texts.iter().take(NGG_CALIBRATION_DOCS).collect();
            let n = sample.len().max(1) as f64;
            sample
                .iter()
                .map(|t| ngg.features(t).text_rank())
                .sum::<f64>()
                / n
        };
        let mean_legit = mean_rank(&legit_texts);
        let mean_illegit = mean_rank(&illegit_texts);
        let (ngg_threshold, ngg_gap_half, ngg_legit_high) =
            if (mean_legit - mean_illegit).abs() > 1e-9 {
                (
                    (mean_legit + mean_illegit) / 2.0,
                    (mean_legit - mean_illegit).abs() / 2.0,
                    mean_legit >= mean_illegit,
                )
            } else {
                // Degenerate calibration: fall back to the representation
                // midpoint (text_rank lives in [0, 8]) with a unit gap, so
                // NGG confidence stays finite but uninformative.
                (4.0, 1.0, true)
            };

        TrainedVerifier {
            crawl_config,
            subsample,
            seed,
            tfidf,
            text_model,
            text_uses_counts,
            artifacts,
            trust_model,
            trust_scale,
            trajectory,
            anti_trajectory,
            incremental,
            good_seeds,
            bad_seeds,
            ngg,
            ngg_threshold,
            ngg_gap_half,
            ngg_legit_high,
            model_version: 0,
        }
    }

    /// Stamps this fitted model with a registry-assigned version; every
    /// verdict it produces carries the version. Fit leaves it at `0`.
    #[must_use]
    pub fn with_model_version(mut self, version: u64) -> Self {
        self.model_version = version;
        self
    }

    /// The version stamped by [`TrainedVerifier::with_model_version`]
    /// (`0` until published through a registry).
    pub fn model_version(&self) -> u64 {
        self.model_version
    }

    /// Verifies one site: crawls it from `seed_url` on `host`, scores its
    /// text, layers its outbound links over the frozen training graph as
    /// a [`SpliceOverlay`], and propagates trust.
    pub fn verify<H: WebHost>(&self, host: &H, seed_url: &str) -> Result<Verdict, VerifyError> {
        let crawl = self.crawl_site(host, seed_url)?;
        let mut overlay = SpliceOverlay::new(&self.artifacts.graph);
        Ok(self.score_crawl(&crawl, &mut overlay))
    }

    /// Verifies one site on text evidence alone: crawl, score with the
    /// text model, and cross-check against the fitted per-class n-gram
    /// graphs — **no graph splice, no trust propagation**. This is the
    /// serving federation's fast path: one crawl plus a capped NGG
    /// comparison instead of two incremental propagation kernels.
    ///
    /// The verdict's network fields are neutral (`trust`/`distrust`/
    /// `spam_mass` 0.0, `network_score` 0.5, `rank` = text score) and its
    /// `source` is [`VerdictSource::TextOnly`]. Its `confidence` is the
    /// weaker of the text model's margin and the NGG margin, and drops to
    /// 0.0 outright when the two disagree or the crawl degraded — the
    /// federation policy uses that to decide whether the fast answer
    /// stands or falls through to the slow path.
    ///
    /// The label always equals what the slow path would predict on the
    /// same crawl: both paths share [`TrainedVerifier`]'s text model and
    /// the paper's primary decision is the text classifier's.
    pub fn verify_text_only<H: WebHost>(
        &self,
        host: &H,
        seed_url: &str,
    ) -> Result<Verdict, VerifyError> {
        let crawl = self.crawl_site(host, seed_url)?;
        let tokens = crawl_tokens(&crawl);
        let (text_score, predicted) = self.text_component(&tokens);
        // NGG second opinion on a capped prefix of the same tokens.
        let ngg_rank = self.ngg.features(&ngg_fast_input(&tokens)).text_rank();
        let ngg_says_legit = if self.ngg_legit_high {
            ngg_rank >= self.ngg_threshold
        } else {
            ngg_rank <= self.ngg_threshold
        };
        let text_margin = (2.0 * text_score - 1.0).abs();
        let ngg_margin = ((ngg_rank - self.ngg_threshold).abs() / self.ngg_gap_half).min(1.0);
        let confidence = if crawl.is_degraded() || ngg_says_legit != predicted {
            0.0
        } else {
            text_margin.min(ngg_margin)
        };
        Ok(Verdict {
            domain: crawl.domain.clone(),
            pages_crawled: crawl.pages.len(),
            text_score,
            trust_score: 0.0,
            distrust_score: 0.0,
            spam_mass: 0.0,
            // No link evidence was gathered: the network opinion is the
            // uninformative midpoint, not a score.
            network_score: 0.5,
            rank: text_score,
            predicted_legitimate: predicted,
            degraded: crawl.is_degraded(),
            crawl_coverage: crawl.coverage(),
            model_version: self.model_version,
            source: VerdictSource::TextOnly,
            confidence,
        })
    }

    /// Verifies a batch of sites against **one** overlay over the frozen
    /// training graph, returning one result per seed URL in order.
    ///
    /// No site ever clones the base graph: each is spliced into the
    /// overlay's delta, propagated, and rolled back via
    /// [`SpliceOverlay::unsplice`] before the next, so the overlay's
    /// delta structures are reused across the batch and per-site
    /// allocation is proportional to that site's links.
    ///
    /// Because `unsplice` clears the delta bit-for-bit and sites are
    /// crawled in argument order, the verdicts are **exactly** those of
    /// calling `verify` once per URL in the same order — including on
    /// faulty or otherwise stateful hosts.
    pub fn verify_batch<H: WebHost>(
        &self,
        host: &H,
        seed_urls: &[&str],
    ) -> Vec<Result<Verdict, VerifyError>> {
        let obs = pharmaverify_obs::global();
        let _span = obs.span("core/verifier/batch");
        obs.add("core/verifier/batch_requests", seed_urls.len() as u64);
        let mut overlay = SpliceOverlay::new(&self.artifacts.graph);
        seed_urls
            .iter()
            .map(|seed_url| {
                let crawl = self.crawl_site(host, seed_url)?;
                if self.artifacts.graph.node(&crawl.domain).is_none() {
                    obs.add("core/verifier/batch_fresh", 1);
                } else {
                    obs.add("core/verifier/batch_spliced", 1);
                }
                Ok(self.score_crawl(&crawl, &mut overlay))
            })
            .collect()
    }

    /// Crawls one site and applies the emptiness/unreachability checks.
    fn crawl_site<H: WebHost>(
        &self,
        host: &H,
        seed_url: &str,
    ) -> Result<pharmaverify_crawl::CrawlResult, VerifyError> {
        let url = Url::parse(seed_url).map_err(|_| VerifyError::BadUrl(seed_url.to_string()))?;
        let crawler = Crawler::new(self.crawl_config.clone());
        let crawl = crawler.crawl(host, &url);
        if crawl.pages.is_empty() {
            let t = &crawl.telemetry;
            // Only transient failures and nothing fetched: the site may
            // exist but could not be reached — distinct from a site that
            // answered 404 to everything.
            if t.transient_failures > 0 && t.permanent_failures == 0 {
                return Err(VerifyError::Unreachable {
                    domain: url.endpoint(),
                    attempts: t.attempts,
                    retries: t.retries,
                });
            }
            return Err(VerifyError::EmptySite(url.endpoint()));
        }
        Ok(crawl)
    }

    /// Text component of a crawl's [`crawl_tokens`]: subsample,
    /// vectorize, score. The terms are counted in place, over the drawn
    /// positions of a subsampled document, in draw order.
    fn text_component(&self, tokens: &[String]) -> (f64, bool) {
        let counts = match subsample_indices(tokens.len(), self.subsample, self.seed) {
            Some(kept) => self
                .tfidf
                .count_terms(kept.into_iter().map(|i| tokens[i].as_str())),
            None => self.tfidf.term_counts(tokens),
        };
        let x = if self.text_uses_counts {
            counts
        } else {
            self.tfidf.weigh(counts.iter())
        };
        (self.text_model.score(&x), self.text_model.predict(&x))
    }

    /// Scores a crawled site against an overlay over the frozen training
    /// graph (possibly reused across a batch): splice the site into the
    /// delta, propagate trust and distrust, roll the delta back.
    ///
    /// A site whose domain is *not* a node of the training graph skips
    /// the *trust* propagation: nothing in the training graph links to a
    /// fresh domain and it is not a seed, so every TrustRank iteration
    /// assigns it exactly `0.0` (pinned in `pharmaverify-net`'s
    /// proptests). Distrust is different: a fresh site gathers
    /// anti-trust through its *own* out-links, so the anti-trust kernel
    /// still runs.
    fn score_crawl(
        &self,
        crawl: &pharmaverify_crawl::CrawlResult,
        overlay: &mut SpliceOverlay<'_>,
    ) -> Verdict {
        let (text_score, predicted) = self.text_component(&crawl_tokens(crawl));
        let links: Vec<(String, f64)> = crawl
            .outbound_endpoints()
            .into_iter()
            .map(|(target, count)| (target, count as f64))
            .collect();
        let node = overlay.splice_pharmacy(&crawl.domain, &links);
        // Splicing appends a fresh domain past the base graph's ids.
        let fresh = node as usize >= self.artifacts.graph.node_count();
        // Incremental re-rank from the recorded base trajectories: only
        // the spliced neighborhood is recomputed; when the touched
        // frontier exceeds the cap the kernels fall back to full
        // iteration. Exact mode keeps both paths bit-identical to a full
        // recompute.
        let obs = pharmaverify_obs::global();
        let raw_trust = if fresh {
            0.0
        } else {
            let trust = overlay.trust_rank_incremental(&self.trajectory, &self.incremental);
            match trust.outcome {
                IncrementalOutcome::Incremental => obs.add("core/verifier/trust_incremental", 1),
                IncrementalOutcome::FellBack => obs.add("core/verifier/trust_fallback", 1),
            }
            trust.scores[node as usize]
        };
        let anti = overlay.anti_trust_rank_incremental(&self.anti_trajectory, &self.incremental);
        match anti.outcome {
            IncrementalOutcome::Incremental => obs.add("core/verifier/anti_incremental", 1),
            IncrementalOutcome::FellBack => obs.add("core/verifier/anti_fallback", 1),
        }
        let (trust_score, distrust_score, spam_mass) =
            self.network_scores(node, raw_trust, anti.scores[node as usize]);
        overlay.unsplice();
        self.finish_verdict(
            crawl,
            text_score,
            predicted,
            trust_score,
            distrust_score,
            spam_mass,
        )
    }

    /// Teleport-adjusted, node-count-scaled network scores for a spliced
    /// node: `(trust, distrust, spam mass)`. The trust score keeps its
    /// seed teleport share; distrust and spam mass are computed from the
    /// propagated-only scores ([`SeedTeleport`]).
    fn network_scores(&self, node: NodeId, raw_trust: f64, raw_distrust: f64) -> (f64, f64, f64) {
        let trust_score = raw_trust * self.trust_scale;
        let propagated_trust = self.good_seeds.propagated(node, raw_trust) * self.trust_scale;
        let distrust_score = self.bad_seeds.propagated(node, raw_distrust) * self.trust_scale;
        let spam_mass = propagated_trust.min(distrust_score);
        (trust_score, distrust_score, spam_mass)
    }

    fn finish_verdict(
        &self,
        crawl: &pharmaverify_crawl::CrawlResult,
        text_score: f64,
        predicted: bool,
        trust_score: f64,
        distrust_score: f64,
        spam_mass: f64,
    ) -> Verdict {
        let network_score = self
            .trust_model
            .score(&SparseVector::from_pairs(vec![(0, trust_score)]));
        // Slow-path confidence: the text model's decision margin, scaled
        // down by crawl coverage when the evidence is partial.
        let text_margin = (2.0 * text_score - 1.0).abs();
        let confidence = if crawl.is_degraded() {
            text_margin * crawl.coverage()
        } else {
            text_margin
        };
        Verdict {
            domain: crawl.domain.clone(),
            pages_crawled: crawl.pages.len(),
            text_score,
            trust_score,
            distrust_score,
            spam_mass,
            network_score,
            rank: text_score + trust_score,
            predicted_legitimate: predicted,
            degraded: crawl.is_degraded(),
            crawl_coverage: crawl.coverage(),
            model_version: self.model_version,
            source: VerdictSource::GraphSpliced,
            confidence,
        }
    }

    /// The training population's link graph (pharmacies + link targets),
    /// frozen.
    pub fn graph(&self) -> &pharmaverify_net::CsrGraph {
        &self.artifacts.graph
    }

    /// The per-class n-gram graphs the fast path's NGG opinion compares
    /// against.
    pub fn ngg_class_graphs(&self) -> &NggClassGraphs {
        &self.ngg
    }
}

// `VerifyService` shares one frozen verifier across worker threads; these
// bindings fail to compile if a field change ever makes that unsound.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<TrainedVerifier>();
    assert_send_sync::<Verdict>();
    assert_send_sync::<VerifyError>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::extract_corpus;
    use pharmaverify_corpus::{CorpusConfig, SyntheticWeb};

    fn verifier_and_web() -> (TrainedVerifier, SyntheticWeb) {
        let web = SyntheticWeb::generate(&CorpusConfig::small(), 42);
        let corpus = extract_corpus(web.snapshot(), &CrawlConfig::default()).expect("extracts");
        let verifier = TrainedVerifier::fit(
            &corpus,
            TextLearnerKind::Nbm,
            CrawlConfig::default(),
            Some(250),
            7,
        );
        (verifier, web)
    }

    #[test]
    fn verifies_unseen_snapshot2_sites() {
        let (verifier, web) = verifier_and_web();
        // Snapshot-2 illegitimate sites are unseen at training time.
        let snap2 = web.snapshot2();
        let mut correct = 0usize;
        let mut total = 0usize;
        for site in snap2.sites.iter().filter(|s| !s.label()).take(10) {
            let verdict = verifier.verify(&snap2.web, &site.seed_url).unwrap();
            total += 1;
            if !verdict.predicted_legitimate {
                correct += 1;
            }
            assert!((0.0..=1.0).contains(&verdict.text_score));
            assert!(verdict.trust_score >= 0.0);
        }
        assert!(correct * 2 > total, "{correct}/{total} unseen sites caught");
    }

    #[test]
    fn bad_url_is_error() {
        let (verifier, web) = verifier_and_web();
        assert!(matches!(
            verifier.verify(&web.snapshot().web, "not a url"),
            Err(VerifyError::BadUrl(_))
        ));
    }

    #[test]
    fn offline_site_is_error() {
        let (verifier, web) = verifier_and_web();
        assert!(matches!(
            verifier.verify(&web.snapshot().web, "http://offline-pharmacy.com/"),
            Err(VerifyError::EmptySite(_))
        ));
    }

    /// A host where every fetch times out: all failures are transient.
    struct DownHost;

    impl pharmaverify_crawl::WebHost for DownHost {
        fn fetch(
            &self,
            _url: &pharmaverify_crawl::Url,
        ) -> Result<pharmaverify_crawl::Page, pharmaverify_crawl::FetchError> {
            Err(pharmaverify_crawl::FetchError::Timeout)
        }
    }

    #[test]
    fn transiently_down_site_is_unreachable_not_empty() {
        let (verifier, _web) = verifier_and_web();
        match verifier.verify(&DownHost, "http://down-pharmacy.com/") {
            Err(VerifyError::Unreachable {
                domain,
                attempts,
                retries,
            }) => {
                assert_eq!(domain, "down-pharmacy.com");
                assert!(attempts > retries);
                assert!(retries > 0, "transient errors must have been retried");
            }
            other => panic!("expected Unreachable, got {other:?}"),
        }
    }

    /// Wrapper that makes some non-seed URLs fail transiently every time,
    /// forcing retry exhaustion and a degraded (but nonempty) crawl.
    struct Patchy<'a, H> {
        inner: &'a H,
    }

    impl<H: pharmaverify_crawl::WebHost> pharmaverify_crawl::WebHost for Patchy<'_, H> {
        fn fetch(
            &self,
            url: &pharmaverify_crawl::Url,
        ) -> Result<pharmaverify_crawl::Page, pharmaverify_crawl::FetchError> {
            let path = url.path_without_query();
            if path != "/" && path != "/robots.txt" {
                return Err(pharmaverify_crawl::FetchError::Timeout);
            }
            self.inner.fetch(url)
        }
    }

    #[test]
    fn degraded_crawl_yields_caveated_verdict() {
        let (verifier, web) = verifier_and_web();
        let snap = web.snapshot();
        let host = Patchy { inner: &snap.web };
        let verdict = verifier.verify(&host, &snap.sites[0].seed_url).unwrap();
        assert!(
            verdict.degraded,
            "lost pages must mark the verdict degraded"
        );
        assert!(verdict.crawl_coverage < 1.0);
        let text = verdict.to_string();
        assert!(text.contains("degraded crawl"), "no caveat in: {text}");
        assert!(text.contains("low confidence"));
    }

    #[test]
    fn clean_crawl_verdict_has_no_caveat() {
        let (verifier, web) = verifier_and_web();
        let snap = web.snapshot();
        let verdict = verifier.verify(&snap.web, &snap.sites[0].seed_url).unwrap();
        assert!(!verdict.degraded);
        assert!((verdict.crawl_coverage - 1.0).abs() < f64::EPSILON);
        assert!(!verdict.to_string().contains("degraded"));
    }

    #[test]
    fn verdict_displays_summary() {
        let (verifier, web) = verifier_and_web();
        let snap = web.snapshot();
        let verdict = verifier.verify(&snap.web, &snap.sites[0].seed_url).unwrap();
        let text = verdict.to_string();
        assert!(text.contains("likely"));
        assert!(text.contains("pages"));
    }

    fn sample_verdict(degraded: bool) -> Verdict {
        Verdict {
            domain: "example-pharmacy.com".into(),
            pages_crawled: 12,
            text_score: 0.8,
            trust_score: 0.05,
            distrust_score: 0.0,
            spam_mass: 0.0,
            network_score: 0.6,
            rank: 0.85,
            predicted_legitimate: true,
            degraded,
            crawl_coverage: if degraded { 0.4 } else { 1.0 },
            model_version: 0,
            source: VerdictSource::GraphSpliced,
            confidence: 0.6,
        }
    }

    #[test]
    fn degraded_summary_line_is_marked_before_the_scores() {
        let text = sample_verdict(true).to_string();
        assert!(
            text.contains("DEGRADED (coverage 40%)"),
            "summary must flag degradation inline: {text}"
        );
        // The marker belongs to the headline, before the score breakdown.
        let marker = text.find("DEGRADED").unwrap();
        let scores = text.find("(text").unwrap();
        assert!(marker < scores, "marker after scores in: {text}");
        // The detailed caveat is still there too.
        assert!(text.contains("low confidence"));
    }

    #[test]
    fn clean_summary_line_has_no_degraded_marker() {
        let text = sample_verdict(false).to_string();
        assert!(!text.contains("DEGRADED"), "clean verdict flagged: {text}");
        assert!(!text.contains("degraded"));
    }

    fn assert_same_verdict(a: &Verdict, b: &Verdict) {
        assert_eq!(a.domain, b.domain);
        assert_eq!(a.pages_crawled, b.pages_crawled);
        // Bit-exact, not approximate: batch must run the same arithmetic.
        assert_eq!(a.text_score.to_bits(), b.text_score.to_bits());
        assert_eq!(a.trust_score.to_bits(), b.trust_score.to_bits());
        assert_eq!(a.distrust_score.to_bits(), b.distrust_score.to_bits());
        assert_eq!(a.spam_mass.to_bits(), b.spam_mass.to_bits());
        assert_eq!(a.network_score.to_bits(), b.network_score.to_bits());
        assert_eq!(a.rank.to_bits(), b.rank.to_bits());
        assert_eq!(a.predicted_legitimate, b.predicted_legitimate);
        assert_eq!(a.degraded, b.degraded);
        assert_eq!(a.crawl_coverage.to_bits(), b.crawl_coverage.to_bits());
        assert_eq!(a.model_version, b.model_version);
        assert_eq!(a.source, b.source);
        assert_eq!(a.confidence.to_bits(), b.confidence.to_bits());
    }

    #[test]
    fn verdicts_carry_the_stamped_model_version() {
        let (verifier, web) = verifier_and_web();
        let snap = web.snapshot();
        let unstamped = verifier.verify(&snap.web, &snap.sites[0].seed_url).unwrap();
        assert_eq!(unstamped.model_version, 0, "fit leaves the version at 0");
        let stamped = TrainedVerifier::fit(
            &extract_corpus(web.snapshot(), &CrawlConfig::default()).expect("extracts"),
            TextLearnerKind::Nbm,
            CrawlConfig::default(),
            Some(250),
            7,
        )
        .with_model_version(3);
        assert_eq!(stamped.model_version(), 3);
        let verdict = stamped.verify(&snap.web, &snap.sites[0].seed_url).unwrap();
        assert_eq!(verdict.model_version, 3);
        // The version is a label, not an input: scores are unchanged.
        assert_eq!(
            verdict.trust_score.to_bits(),
            unstamped.trust_score.to_bits()
        );
    }

    /// `verify_batch` reuses one overlay across the batch where `verify`
    /// builds a fresh one per call: unsplicing must leave no residue.
    #[test]
    fn batch_matches_sequential_verify_exactly() {
        let (verifier, web) = verifier_and_web();
        let snap2 = web.snapshot2();
        // Mix of training-graph members (snapshot-2 keeps snapshot-1's
        // legitimate domains), fresh domains (new illegitimate sites), a
        // duplicate, and error cases.
        let mut urls: Vec<String> = Vec::new();
        for site in snap2.sites.iter().filter(|s| s.label()).take(3) {
            urls.push(site.seed_url.clone());
        }
        for site in snap2.sites.iter().filter(|s| !s.label()).take(3) {
            urls.push(site.seed_url.clone());
        }
        urls.push(urls[0].clone());
        urls.push("http://offline-pharmacy.com/".to_string());
        urls.push("not a url".to_string());
        let refs: Vec<&str> = urls.iter().map(String::as_str).collect();

        let batch = verifier.verify_batch(&snap2.web, &refs);
        assert_eq!(batch.len(), refs.len());
        let mut saw_fresh = false;
        let mut saw_member = false;
        for (url, got) in refs.iter().zip(&batch) {
            let want = verifier.verify(&snap2.web, url);
            match (got, want) {
                (Ok(g), Ok(w)) => {
                    assert_same_verdict(g, &w);
                    if verifier.graph().node(&g.domain).is_none() {
                        saw_fresh = true;
                    } else {
                        saw_member = true;
                    }
                }
                (Err(g), Err(w)) => {
                    assert_eq!(g.to_string(), w.to_string(), "for {url}");
                }
                (g, w) => panic!("batch {g:?} vs sequential {w:?} for {url}"),
            }
        }
        assert!(saw_fresh, "batch exercised no fresh domain");
        assert!(saw_member, "batch exercised no spliced propagation");
    }

    #[test]
    fn batch_of_errors_only_reports_each_error() {
        let (verifier, web) = verifier_and_web();
        let snap = web.snapshot();
        let batch = verifier.verify_batch(&snap.web, &["bogus", "http://offline-pharmacy.com/"]);
        assert!(matches!(batch[0], Err(VerifyError::BadUrl(_))));
        assert!(matches!(batch[1], Err(VerifyError::EmptySite(_))));
    }

    #[test]
    fn verdict_sources_order_cheapest_first() {
        use VerdictSource::*;
        assert!(ResponseCache < VerdictStore);
        assert!(VerdictStore < TextOnly);
        assert!(TextOnly < GraphSpliced);
    }

    #[test]
    fn verdicts_carry_provenance() {
        let (verifier, web) = verifier_and_web();
        let snap = web.snapshot();
        let slow = verifier.verify(&snap.web, &snap.sites[0].seed_url).unwrap();
        assert_eq!(slow.source, VerdictSource::GraphSpliced);
        assert!((0.0..=1.0).contains(&slow.confidence));
        let text = slow.to_string();
        assert!(text.contains("via graph-spliced"), "{text}");
        let fast = verifier
            .verify_text_only(&snap.web, &snap.sites[0].seed_url)
            .unwrap();
        assert_eq!(fast.source, VerdictSource::TextOnly);
        assert!(fast.to_string().contains("via text-only"));
    }

    #[test]
    fn text_only_matches_slow_path_text_evidence() {
        let (verifier, web) = verifier_and_web();
        let snap2 = web.snapshot2();
        for site in snap2.sites.iter().take(6) {
            let fast = verifier
                .verify_text_only(&snap2.web, &site.seed_url)
                .unwrap();
            let slow = verifier.verify(&snap2.web, &site.seed_url).unwrap();
            // Same crawl, same text model: label and text score agree
            // bit-for-bit; only the network evidence differs.
            assert_eq!(fast.predicted_legitimate, slow.predicted_legitimate);
            assert_eq!(fast.text_score.to_bits(), slow.text_score.to_bits());
            assert_eq!(fast.trust_score, 0.0);
            assert_eq!(fast.distrust_score, 0.0);
            assert_eq!(fast.spam_mass, 0.0);
            assert!((0.0..=1.0).contains(&fast.confidence));
        }
    }

    #[test]
    fn text_only_is_deterministic() {
        let (verifier, web) = verifier_and_web();
        let snap = web.snapshot();
        let a = verifier
            .verify_text_only(&snap.web, &snap.sites[1].seed_url)
            .unwrap();
        let b = verifier
            .verify_text_only(&snap.web, &snap.sites[1].seed_url)
            .unwrap();
        assert_same_verdict(&a, &b);
    }

    #[test]
    fn megabyte_token_gets_a_fast_verdict_on_a_capped_ngg_input() {
        let (verifier, _web) = verifier_and_web();
        let mut web = pharmaverify_crawl::InMemoryWeb::new();
        // One alphabetic run of ~1.2 MB, mixing 1- and 2-byte chars.
        let word = "pharmacé".repeat(1 << 17);
        web.add_page("http://one-word.com/", format!("<p>{word}</p>"));
        let verdict = verifier
            .verify_text_only(&web, "http://one-word.com/")
            .unwrap();
        assert_eq!(verdict.source, VerdictSource::TextOnly);
        assert_eq!(verdict.domain, "one-word.com");
        let crawl = verifier.crawl_site(&web, "http://one-word.com/").unwrap();
        let tokens = crawl_tokens(&crawl);
        assert_eq!(tokens, [word]);
        let input = ngg_fast_input(&tokens);
        assert_eq!(input.chars().count(), NGG_FAST_CHARS);
        assert!(tokens[0].starts_with(&input));
    }

    #[test]
    fn degraded_text_only_has_zero_confidence() {
        let (verifier, web) = verifier_and_web();
        let snap = web.snapshot();
        let host = Patchy { inner: &snap.web };
        let verdict = verifier
            .verify_text_only(&host, &snap.sites[0].seed_url)
            .unwrap();
        assert!(verdict.degraded);
        assert_eq!(verdict.confidence, 0.0);
    }

    /// FNV-1a-64 of `bytes`, continued from `hash`.
    fn fnv1a64(hash: u64, bytes: &[u8]) -> u64 {
        bytes.iter().fold(hash, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        })
    }

    /// Folds one served result into `hash`: every verdict field, each
    /// `f64` by its bits, or the error's text.
    fn fold_result(hash: u64, result: &Result<Verdict, VerifyError>) -> u64 {
        let v = match result {
            Ok(v) => v,
            Err(e) => return fnv1a64(hash, e.to_string().as_bytes()),
        };
        let mut hash = fnv1a64(hash, v.domain.as_bytes());
        for x in [
            v.text_score,
            v.trust_score,
            v.distrust_score,
            v.spam_mass,
            v.network_score,
            v.rank,
            v.crawl_coverage,
            v.confidence,
        ] {
            hash = fnv1a64(hash, &x.to_bits().to_le_bytes());
        }
        for n in [v.pages_crawled as u64, v.model_version] {
            hash = fnv1a64(hash, &n.to_le_bytes());
        }
        let flags = [u8::from(v.predicted_legitimate), u8::from(v.degraded)];
        hash = fnv1a64(hash, &flags);
        fnv1a64(hash, v.source.as_str().as_bytes())
    }

    /// Golden verdict bits of the three serving entry points over every
    /// snapshot-2 site, plus the NGG text rank of each site's fast input:
    /// the values the text, subsample and NGG kernels under them must
    /// keep. Lineage: recorded at 443bd4a.
    #[test]
    fn served_verdict_bits_match_their_golden_digest() {
        let (verifier, web) = verifier_and_web();
        let snap2 = web.snapshot2();
        let urls: Vec<&str> = snap2.sites.iter().map(|s| s.seed_url.as_str()).collect();
        let mut hash = 0xcbf2_9ce4_8422_2325;
        for url in &urls {
            hash = fold_result(hash, &verifier.verify_text_only(&snap2.web, url));
            hash = fold_result(hash, &verifier.verify(&snap2.web, url));
            if let Ok(crawl) = verifier.crawl_site(&snap2.web, url) {
                let input = ngg_fast_input(&crawl_tokens(&crawl));
                let rank = verifier.ngg.features(&input).text_rank();
                hash = fnv1a64(hash, &rank.to_bits().to_le_bytes());
            }
        }
        for batch in urls.chunks(8) {
            for result in verifier.verify_batch(&snap2.web, batch) {
                hash = fold_result(hash, &result);
            }
        }
        assert_eq!(urls.len(), 60);
        assert_eq!(format!("{hash:016x}"), "ebf23865b938529f");
    }
}
