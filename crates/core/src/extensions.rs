//! The paper's §7 future-work directions, implemented.
//!
//! The conclusions propose two extensions, both built here so the
//! repository covers the paper's roadmap as well as its results:
//!
//! * **(a) richer network analysis** — "include in our network analysis
//!   non pharmacy websites that point to pharmacies, as well as consider
//!   websites at distances greater than one": [`portal_links`] crawls the
//!   non-pharmacy health portals and [`build_extended_web_graph`] splices
//!   them into the Algorithm 1 graph, so trust reaches pharmacies through
//!   two-hop paths (seed pharmacy → portal → pharmacy). On top of that,
//!   [`evaluate_network_variant`] can add an **Anti-TrustRank** distrust
//!   feature (Krishnan & Raj, discussed in the paper's related work):
//!   distrust seeded at known-illegitimate pharmacies flows backward
//!   through affiliate links;
//! * **(b) combined features** — "study and evaluate classification
//!   schemes with combined (network and text) features":
//!   [`evaluate_combined`] concatenates the TF-IDF vector, the 8
//!   N-Gram-Graph similarities, and the TrustRank score into one feature
//!   space and trains a single discriminative model on it.

use crate::classify::{
    pharmacy_trust_scores, rank_executor, web_graph_builder, CvConfig, NetworkArtifacts,
    TermWeighting, TextLearnerKind,
};
use crate::features::ExtractedCorpus;
use crate::pipeline::{ArtifactStore, NggFoldGraphs, Pipeline};
use pharmaverify_corpus::Snapshot;
use pharmaverify_crawl::{CrawlConfig, Crawler, Url};
use pharmaverify_ml::{
    CvOutcome, Dataset, FoldOutcome, FoldSplit, GaussianNaiveBayes, HybridNaiveBayes, Learner,
};
use pharmaverify_net::{NodeId, TrustRankConfig};
use pharmaverify_text::SparseVector;
use std::collections::{BTreeMap, HashSet};
use std::ops::Deref;
use std::sync::Arc;

/// Crawls the snapshot's non-pharmacy health portals and returns each
/// portal's outbound link endpoints (second-level domains with
/// multiplicities).
pub fn portal_links(
    snapshot: &Snapshot,
    crawl_config: &CrawlConfig,
) -> Vec<(String, BTreeMap<String, usize>)> {
    let crawler = Crawler::new(crawl_config.clone());
    snapshot
        .portals
        .iter()
        .filter_map(|domain| {
            // A portal domain that does not form a crawlable URL (e.g. an
            // empty string in a hand-edited snapshot) cannot contribute
            // links; skip it rather than abort the whole extension.
            let seed = Url::parse(&format!("http://{domain}/")).ok()?;
            let crawl = crawler.crawl(&snapshot.web, &seed);
            Some((domain.clone(), crawl.outbound_endpoints()))
        })
        .collect()
}

/// Builds the *extended* link graph: the Algorithm 1 pharmacy graph plus
/// the portals' nodes and outbound edges. Portal→pharmacy edges give
/// trust a two-hop path to pharmacies the seed set never linked to.
pub fn build_extended_web_graph(
    corpus: &ExtractedCorpus,
    portals: &[(String, BTreeMap<String, usize>)],
) -> NetworkArtifacts {
    let (mut builder, pharmacy_nodes) = web_graph_builder(corpus);
    for (domain, outbound) in portals {
        let node = builder.add_external(domain);
        for (target, &count) in outbound {
            if target != domain {
                builder.add_link(node, target, count as f64);
            }
        }
    }
    NetworkArtifacts {
        graph: builder.freeze(),
        pharmacy_nodes,
    }
}

/// A seed set's static teleport share `(1 − α)/|seeds|`, which
/// [`SeedTeleport::propagated`] removes from a seed's raw TrustRank or
/// Anti-TrustRank score (see [`pharmacy_distrust_scores`] for why). The
/// distrust and propagated-trust features and the verifier's verdict
/// scores all adjust through it.
#[derive(Debug, Clone)]
pub(crate) struct SeedTeleport {
    seed_set: HashSet<NodeId>,
    share: f64,
}

impl SeedTeleport {
    pub(crate) fn new(seeds: &[NodeId], config: &TrustRankConfig) -> SeedTeleport {
        let share = if seeds.is_empty() {
            0.0
        } else {
            (1.0 - config.alpha) / seeds.len() as f64
        };
        SeedTeleport {
            seed_set: seeds.iter().copied().collect(),
            share,
        }
    }

    /// `raw`, less the teleport share (floored at 0) when `node` is a seed.
    pub(crate) fn propagated(&self, node: NodeId, raw: f64) -> f64 {
        if self.seed_set.contains(&node) {
            (raw - self.share).max(0.0)
        } else {
            raw
        }
    }
}

/// Per-pharmacy propagated scores seeded at the given corpus indices,
/// with the seed teleport share removed and scaled like
/// [`pharmacy_trust_scores`]: TrustRank forward, Anti-TrustRank when
/// `reverse`.
fn pharmacy_propagated_scores(
    artifacts: &NetworkArtifacts,
    corpus_seed_indices: &[usize],
    config: &TrustRankConfig,
    reverse: bool,
) -> Vec<f64> {
    let seeds: Vec<NodeId> = corpus_seed_indices
        .iter()
        .map(|&i| artifacts.pharmacy_nodes[i])
        .collect();
    let graph = &artifacts.graph;
    let raw = if reverse {
        graph.anti_trust_rank_with(&seeds, config, &rank_executor())
    } else {
        graph.trust_rank_with(&seeds, config, &rank_executor())
    };
    let teleport = SeedTeleport::new(&seeds, config);
    let scale = graph.node_count() as f64;
    artifacts
        .pharmacy_nodes
        .iter()
        .map(|&n| teleport.propagated(n, raw[n as usize]) * scale)
        .collect()
}

/// Per-pharmacy Anti-TrustRank distrust scores with the given
/// illegitimate seed indices, scaled like [`pharmacy_trust_scores`].
///
/// A seed's raw score contains its own teleport mass `(1 − α)/|seeds|`,
/// which merely restates the training label and badly skews the class-
/// conditional distributions a downstream classifier fits (the seed
/// scores dwarf every propagated score). That static component is
/// subtracted here, so the feature measures only distrust *received
/// through the link structure* — comparable between training and test
/// pharmacies.
pub fn pharmacy_distrust_scores(
    artifacts: &NetworkArtifacts,
    corpus_bad_seed_indices: &[usize],
    config: &TrustRankConfig,
) -> Vec<f64> {
    pharmacy_propagated_scores(artifacts, corpus_bad_seed_indices, config, true)
}

/// Per-pharmacy TrustRank scores with the seed teleport mass removed —
/// the trust analogue of [`pharmacy_distrust_scores`]'s adjustment, used
/// by the multi-feature variants whose downstream model fits thresholds
/// (a threshold calibrated on seed-inflated training values does not
/// transfer to test pharmacies).
pub fn pharmacy_propagated_trust_scores(
    artifacts: &NetworkArtifacts,
    corpus_seed_indices: &[usize],
    config: &TrustRankConfig,
) -> Vec<f64> {
    pharmacy_propagated_scores(artifacts, corpus_seed_indices, config, false)
}

/// Per-pharmacy **spam mass**: the portion of a node's propagated trust
/// that is co-located with propagated distrust,
/// `min(trust⁺(v), distrust(v))` over the teleport-adjusted scores.
///
/// Spam mass is large exactly where trust is *laundered*: under a
/// link-farm attack the hubs receive trust through compromised seed
/// pages while their boost links into the spam network leave an
/// anti-trust trail, so both signals land on the same nodes. Untouched
/// legitimate sites (distrust ≈ 0) stay near zero — the separation the
/// paper-invariant sweep pins per seed — while boosted illegitimate
/// sites rightly pick up spam mass too (the laundered trust flows to
/// them). The defense consumes this via [`defended_trust_scores`], a
/// calibrated gate rather than a subtraction. Always non-negative (a
/// min of two non-negative scores).
pub fn pharmacy_spam_mass(
    artifacts: &NetworkArtifacts,
    corpus_good_seed_indices: &[usize],
    corpus_bad_seed_indices: &[usize],
    config: &TrustRankConfig,
) -> Vec<f64> {
    let trust = pharmacy_propagated_trust_scores(artifacts, corpus_good_seed_indices, config);
    let distrust = pharmacy_distrust_scores(artifacts, corpus_bad_seed_indices, config);
    trust
        .iter()
        .zip(&distrust)
        .map(|(&t, &d)| t.min(d))
        .collect()
}

/// The spam-mass-defended network feature: trust with a calibrated
/// spam-mass gate.
///
/// Subtracting spam mass point-wise is not enough against a link farm —
/// distrust magnitudes are bounded by the anti-trust damping while the
/// trust a farm hub launders out of compromised seed pages is not, so a
/// well-fed hub keeps most of its inflated trust after the subtraction.
/// Following the spam-mass literature, the defense instead *gates*: a
/// tolerance is calibrated from the trusted seeds themselves (how much
/// spam mass do known-good sites carry — compromised seeds give the
/// calibration its margin), and any site whose spam mass exceeds the
/// tolerance forfeits its network reputation entirely. Sites inside the
/// tolerance keep their raw trust, so on a clean corpus the defended
/// feature degenerates to the baseline feature.
///
/// The floor term keeps the gate sane when no good seed carries any
/// spam mass at all (a fully clean graph): without it the tolerance
/// would be zero and numeric dust would zero out honest sites.
pub fn defended_trust_scores(
    trust: &[f64],
    spam_mass: &[f64],
    corpus_good_seed_indices: &[usize],
) -> Vec<f64> {
    let max_good_mass = corpus_good_seed_indices
        .iter()
        .map(|&i| spam_mass[i])
        .fold(0.0_f64, f64::max);
    let mean_good_trust = if corpus_good_seed_indices.is_empty() {
        0.0
    } else {
        corpus_good_seed_indices
            .iter()
            .map(|&i| trust[i])
            .sum::<f64>()
            / corpus_good_seed_indices.len() as f64
    };
    let tolerance = (1.25 * max_good_mass).max(0.05 * mean_good_trust);
    trust
        .iter()
        .zip(spam_mass)
        .map(|(&t, &m)| if m > tolerance { 0.0 } else { t })
        .collect()
}

impl NetworkArtifacts {
    /// [`pharmacy_spam_mass`] as a method: the spam-mass feature of every
    /// pharmacy in corpus order, given train-fold seed index sets.
    pub fn spam_mass(
        &self,
        corpus_good_seed_indices: &[usize],
        corpus_bad_seed_indices: &[usize],
        config: &TrustRankConfig,
    ) -> Vec<f64> {
        pharmacy_spam_mass(
            self,
            corpus_good_seed_indices,
            corpus_bad_seed_indices,
            config,
        )
    }
}

/// Which feature set the network-only (OPC §6.3.2) classifier uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetworkVariant {
    /// The paper's baseline: Gaussian naive Bayes on the TrustRank score.
    Trust,
    /// Trust plus the binarized Anti-TrustRank distrust feature (§7(a)).
    TrustAndDistrust,
    /// The spam-mass defense: Gaussian naive Bayes on the *defended*
    /// trust score — trust gated by a spam-mass tolerance calibrated on
    /// the trusted seeds (see [`defended_trust_scores`]).
    SpamMassDefense,
}

impl NetworkVariant {
    /// Display name for report tables.
    pub fn name(self) -> &'static str {
        match self {
            NetworkVariant::Trust => "TrustRank",
            NetworkVariant::TrustAndDistrust => "TrustRank + Anti-TrustRank",
            NetworkVariant::SpamMassDefense => "Spam-mass defense",
        }
    }
}

/// Network classification over a prebuilt (possibly extended) graph.
/// With [`NetworkVariant::Trust`] and a base graph this is exactly the
/// paper's §6.3.2 experiment (Gaussian naive Bayes on the trust score),
/// and runs the same fold loop as [`crate::classify::evaluate_network_in`].
///
/// For [`NetworkVariant::TrustAndDistrust`] the distrust feature enters
/// **binarized** (received any propagated distrust vs none). The raw
/// magnitudes are unusable downstream: a seed's score restates its
/// training label, hub fan-out dilutes test scores by orders of
/// magnitude, and the legitimate class is an exact point mass at zero —
/// each of which wrecks either a Gaussian density or a threshold split.
/// Membership in the distrusted set is the part of the signal that
/// transfers from training folds to test pharmacies.
///
/// For [`NetworkVariant::SpamMassDefense`] the single feature is the
/// defended trust score ([`defended_trust_scores`]: trust gated by the
/// seed-calibrated spam-mass tolerance) — same model shape as the
/// baseline, so off-vs-on comparisons isolate the defense itself.
pub fn evaluate_network_variant(
    corpus: &ExtractedCorpus,
    artifacts: &NetworkArtifacts,
    variant: NetworkVariant,
    cv: CvConfig,
) -> CvOutcome {
    assert!(!corpus.is_empty(), "corpus must not be empty");
    network_folds(
        corpus,
        &FoldSplit::stratified(&corpus.labels, cv.k, cv.seed),
        variant,
        |config, seeds| Arc::new(pharmacy_trust_scores(artifacts, seeds, config)),
        || artifacts,
    )
}

/// The network fold loop behind both network evaluations. Per fold, the
/// training split's legitimate members seed `trust(config, seeds)`, the
/// TrustRank feature; the distrust and spam-mass variants also rank the
/// graph `graph()` returns, seeded by the illegitimate members. Only
/// those variants call `graph`, so a store-backed caller reads no graph
/// artifact it does not use.
pub(crate) fn network_folds<G>(
    corpus: &ExtractedCorpus,
    split: &FoldSplit,
    variant: NetworkVariant,
    trust: impl Fn(&TrustRankConfig, &[usize]) -> Arc<Vec<f64>>,
    graph: impl Fn() -> G,
) -> CvOutcome
where
    G: Deref<Target = NetworkArtifacts>,
{
    let config = TrustRankConfig::default();
    let (learner, dim): (Box<dyn Learner>, usize) = match variant {
        // Feature 1 (distrust) is binarized; model it as a Bernoulli.
        NetworkVariant::TrustAndDistrust => (Box::new(HybridNaiveBayes::new([1])), 2),
        _ => (Box::new(GaussianNaiveBayes::default()), 1),
    };
    let folds = split
        .iter()
        .map(|(_, train_idx, test_idx)| {
            let (good, bad): (Vec<usize>, Vec<usize>) =
                train_idx.iter().partition(|&&i| corpus.labels[i]);
            let trust = trust(&config, &good);
            let (defended, distrust) = match variant {
                NetworkVariant::Trust => (None, None),
                NetworkVariant::TrustAndDistrust => (
                    None,
                    Some(pharmacy_distrust_scores(&graph(), &bad, &config)),
                ),
                NetworkVariant::SpamMassDefense => {
                    let mass = pharmacy_spam_mass(&graph(), &good, &bad, &config);
                    (Some(defended_trust_scores(&trust, &mass, &good)), None)
                }
            };
            let base = defended.as_deref().unwrap_or(trust.as_slice());
            let featurize = |i: usize| {
                let mut pairs = vec![(0u32, base[i])];
                if let Some(d) = &distrust {
                    pairs.push((1, if d[i] > 1e-9 { 1.0 } else { 0.0 }));
                }
                SparseVector::from_pairs(pairs)
            };
            let mut train = Dataset::new(dim);
            for &i in train_idx {
                train.push(featurize(i), corpus.labels[i]);
            }
            let model = learner.fit(&train);
            FoldOutcome::score(
                &model,
                test_idx.iter().map(|&i| (featurize(i), corpus.labels[i])),
            )
        })
        .collect();
    CvOutcome { folds }
}

/// §7(b): one classifier over the concatenation of every feature family —
/// TF-IDF term weights, the 8 N-Gram-Graph similarities, and the
/// TrustRank score. The classifier is the linear SVM (the paper's
/// strongest discriminative model); N-Gram-Graph and trust coordinates
/// are scaled into the same numeric range as the term weights.
pub fn evaluate_combined(
    corpus: &ExtractedCorpus,
    subsample: Option<usize>,
    cv: CvConfig,
) -> CvOutcome {
    let store = ArtifactStore::new();
    evaluate_combined_in(Pipeline::new(&store, corpus), subsample, cv)
}

/// [`evaluate_combined`] against a shared artifact store: every view it
/// concatenates (subsample draw, per-fold TF-IDF model, class graphs
/// with their memoized document features, link graph, TrustRank
/// vectors) is the same artifact the single-view pipelines request, so
/// the combined run costs only the final SVM fit. The folds' NGG feature
/// slots are filled together, one document graph each
/// ([`NggFoldGraphs::fill_all`]).
pub fn evaluate_combined_in(
    pipe: Pipeline<'_>,
    subsample: Option<usize>,
    cv: CvConfig,
) -> CvOutcome {
    let corpus = pipe.corpus();
    assert!(!corpus.is_empty(), "corpus must not be empty");
    let trust_config = TrustRankConfig::default();
    let split = pipe.fold_split(cv.k, cv.seed);
    let fold_graphs: Vec<_> = split
        .iter()
        .map(|(f, train_idx, _)| pipe.ngg_class_graphs(subsample, cv.seed, f, train_idx))
        .collect();
    NggFoldGraphs::fill_all(&fold_graphs);
    let mut folds = Vec::with_capacity(split.k());

    for (f, train_idx, test_idx) in split.iter() {
        // Text view.
        let tfidf = pipe.fitted_tfidf(subsample, cv.seed, Some(f), train_idx);
        let text_dim = tfidf.dim() as u32;
        // NGG view.
        let class_graphs = &fold_graphs[f];
        // Network view.
        let good_seeds: Vec<usize> = train_idx
            .iter()
            .copied()
            .filter(|&i| corpus.labels[i])
            .collect();
        let trust = pipe.trust_scores(&trust_config, &good_seeds);

        let featurize = |i: usize| -> SparseVector {
            let mut pairs: Vec<(u32, f64)> = tfidf.vector(i, TermWeighting::TfIdf).iter().collect();
            // NGG similarities and trust, scaled ×10 so the SVM margin
            // treats them on a par with tf·idf weights.
            for (k, v) in class_graphs.features(i).to_vec().iter().enumerate() {
                pairs.push((text_dim + k as u32, v * 10.0));
            }
            pairs.push((text_dim + 8, trust[i]));
            SparseVector::from_pairs(pairs)
        };
        let mut train = Dataset::new(text_dim as usize + 9);
        for &i in train_idx {
            train.push(featurize(i), corpus.labels[i]);
        }
        let model = TextLearnerKind::Svm.learner().fit(&train);
        let rows = test_idx.iter().map(|&i| (featurize(i), corpus.labels[i]));
        folds.push(FoldOutcome::score(&model, rows));
    }
    CvOutcome { folds }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::build_web_graph;
    use crate::features::extract_corpus;
    use pharmaverify_corpus::{CorpusConfig, SyntheticWeb};

    fn setup() -> (Snapshot, ExtractedCorpus) {
        let web = SyntheticWeb::generate(&CorpusConfig::small(), 42);
        let snap = web.snapshot().clone();
        let corpus = extract_corpus(&snap, &CrawlConfig::default()).expect("extracts");
        (snap, corpus)
    }

    const CV: CvConfig = CvConfig { k: 3, seed: 5 };

    #[test]
    fn portals_crawl_and_link_to_pharmacies() {
        let (snap, corpus) = setup();
        let links = portal_links(&snap, &CrawlConfig::default());
        assert_eq!(links.len(), snap.portals.len());
        assert!(!links.is_empty());
        // At least one portal links to a legitimate pharmacy domain.
        let legit: std::collections::HashSet<&str> = corpus
            .domains
            .iter()
            .zip(&corpus.labels)
            .filter(|&(_, &l)| l)
            .map(|(d, _)| d.as_str())
            .collect();
        let hits = links
            .iter()
            .flat_map(|(_, out)| out.keys())
            .filter(|d| legit.contains(d.as_str()))
            .count();
        assert!(hits > 0, "portals must list pharmacies");
    }

    #[test]
    fn extended_graph_is_superset() {
        let (snap, corpus) = setup();
        let base = build_web_graph(&corpus);
        let links = portal_links(&snap, &CrawlConfig::default());
        let extended = build_extended_web_graph(&corpus, &links);
        assert!(extended.graph.node_count() >= base.graph.node_count());
        assert!(extended.graph.edge_count() > base.graph.edge_count());
        // Pharmacy node ids are preserved.
        for (i, &node) in base.pharmacy_nodes.iter().enumerate() {
            assert_eq!(extended.pharmacy_nodes[i], node);
        }
    }

    #[test]
    fn baseline_variant_matches_paper_pipeline() {
        let (_snap, corpus) = setup();
        let artifacts = build_web_graph(&corpus);
        let variant =
            evaluate_network_variant(&corpus, &artifacts, NetworkVariant::Trust, CV).aggregate();
        let paper = crate::classify::evaluate_network(&corpus, CV).aggregate();
        assert_eq!(variant.accuracy, paper.accuracy);
        assert_eq!(variant.auc, paper.auc);
    }

    #[test]
    fn distrust_variant_runs_and_ranks_better_than_chance() {
        // Note the honest finding here (also recorded in EXPERIMENTS.md):
        // adding the distrust feature does NOT beat trust alone on this
        // corpus. Distrust only reaches affiliate-connected illegitimate
        // sites — which zero trust already flags — while the off-network
        // mimics have distrust exactly 0 and get pulled *toward* the
        // legitimate class. The assertions pin sane behaviour, not a win.
        let (_snap, corpus) = setup();
        let artifacts = build_web_graph(&corpus);
        let with_distrust =
            evaluate_network_variant(&corpus, &artifacts, NetworkVariant::TrustAndDistrust, CV)
                .aggregate();
        assert!(with_distrust.auc > 0.6, "auc {}", with_distrust.auc);
        assert!(
            with_distrust.accuracy > 0.6,
            "acc {}",
            with_distrust.accuracy
        );
        // Distrust never flows into legitimate sites on this corpus.
        assert!(
            with_distrust.illegitimate.recall > 0.6,
            "illegit recall {}",
            with_distrust.illegitimate.recall
        );
    }

    #[test]
    fn combined_features_competitive_with_text() {
        let (_snap, corpus) = setup();
        let combined = evaluate_combined(&corpus, Some(250), CV).aggregate();
        // Loose bounds: the small test corpus has only 12 legitimate
        // sites, so fold metrics are noisy.
        assert!(combined.accuracy > 0.75, "accuracy {}", combined.accuracy);
        assert!(combined.auc > 0.85, "auc {}", combined.auc);
    }

    #[test]
    fn spam_mass_is_near_zero_on_a_clean_corpus() {
        // No attack: trust and distrust occupy disjoint populations, so
        // their min is (almost) everywhere zero and the defended variant
        // collapses to the baseline.
        let (_snap, corpus) = setup();
        let artifacts = build_web_graph(&corpus);
        let (good, bad) = corpus.indices_by_class();
        let sm = artifacts.spam_mass(&good, &bad, &TrustRankConfig::default());
        assert_eq!(sm.len(), corpus.len());
        for (i, &m) in sm.iter().enumerate() {
            assert!(m >= 0.0, "{}: spam mass {m} < 0", corpus.domains[i]);
        }
        let total: f64 = sm.iter().sum();
        let trust_total: f64 =
            pharmacy_trust_scores(&artifacts, &good, &TrustRankConfig::default())
                .iter()
                .sum();
        assert!(
            total < 0.05 * trust_total,
            "clean corpus spam mass {total} vs trust {trust_total}"
        );
        let defended =
            evaluate_network_variant(&corpus, &artifacts, NetworkVariant::SpamMassDefense, CV)
                .aggregate();
        let baseline =
            evaluate_network_variant(&corpus, &artifacts, NetworkVariant::Trust, CV).aggregate();
        assert!(
            (defended.auc - baseline.auc).abs() < 0.05,
            "clean-corpus defended auc {} vs baseline {}",
            defended.auc,
            baseline.auc
        );
    }

    #[test]
    fn spam_mass_concentrates_on_link_farm_nodes() {
        use pharmaverify_corpus::{apply_attack, AttackConfig, AttackKind};
        let web = SyntheticWeb::generate(&CorpusConfig::small(), 42);
        let attacked = apply_attack(
            web.snapshot(),
            &AttackConfig::new(AttackKind::LinkFarm, 1.0),
            42,
        );
        let corpus = extract_corpus(&attacked.snapshot, &CrawlConfig::default()).expect("extracts");
        let artifacts = build_web_graph(&corpus);
        let (good, bad) = corpus.indices_by_class();
        let sm = artifacts.spam_mass(&good, &bad, &TrustRankConfig::default());
        // Spam mass measures *laundered* trust, so it concentrates on
        // the farm's laundering nodes — the hubs, which receive the
        // compromised sites' trust and forward it into the spam
        // network. Spokes have no in-links (zero trust, zero mass), and
        // the boost links deliberately inflate existing illegitimate
        // sites too, so the yardstick is hubs vs. *untouched
        // legitimate* sites.
        let hubs: std::collections::HashSet<&str> =
            attacked.hub_domains.iter().map(String::as_str).collect();
        let touched: std::collections::HashSet<&str> = attacked
            .mutated_domains
            .iter()
            .map(String::as_str)
            .collect();
        let mean_hub = {
            let idx: Vec<usize> = (0..corpus.len())
                .filter(|&i| hubs.contains(corpus.domains[i].as_str()))
                .collect();
            idx.iter().map(|&i| sm[i]).sum::<f64>() / idx.len() as f64
        };
        let mean_legit = {
            let idx: Vec<usize> = (0..corpus.len())
                .filter(|&i| corpus.labels[i] && !touched.contains(corpus.domains[i].as_str()))
                .collect();
            idx.iter().map(|&i| sm[i]).sum::<f64>() / idx.len() as f64
        };
        assert!(
            mean_hub > mean_legit,
            "farm hub mean spam mass {mean_hub} !> untouched legitimate mean {mean_legit}"
        );
        for &m in &sm {
            assert!(m >= 0.0);
        }
    }

    #[test]
    fn distrust_scores_target_affiliated_sites() {
        let (_snap, corpus) = setup();
        let artifacts = build_web_graph(&corpus);
        let bad_seeds: Vec<usize> = (0..corpus.len()).filter(|&i| !corpus.labels[i]).collect();
        let distrust =
            pharmacy_distrust_scores(&artifacts, &bad_seeds, &TrustRankConfig::default());
        let mean = |want: bool| {
            let idx: Vec<usize> = (0..corpus.len())
                .filter(|&i| corpus.labels[i] == want)
                .collect();
            idx.iter().map(|&i| distrust[i]).sum::<f64>() / idx.len() as f64
        };
        assert!(
            mean(false) > mean(true),
            "illegit mean distrust {} !> legit {}",
            mean(false),
            mean(true)
        );
    }
}
