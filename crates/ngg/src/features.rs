//! Per-document N-Gram-Graph features (the classification process of
//! Figure 2) and the Equation (3) ranking score.
//!
//! For each class a class graph is built by merging the graphs of a random
//! half of that class's training documents (§6.3.1). Every document is then
//! described by its four similarities against each class graph — an
//! 8-dimensional feature vector fed to the downstream classifiers.
//!
//! The class graphs carry one joint gram index: every gram of either
//! graph, with its id in each. A document's grams are looked up there
//! once apiece, and one walk of its rows scores both class graphs
//! ([`crate::similarity`]).

use crate::builder::NGramGraphBuilder;
use crate::graph::NGramGraph;
use crate::intern::GramTable;
use crate::merge::ClassGraph;
use crate::similarity::{compare, GraphSimilarities, ABSENT};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// The two class graphs of the binary pharmacy-verification task.
#[derive(Debug, Clone)]
pub struct NggClassGraphs {
    builder: NGramGraphBuilder,
    legitimate: NGramGraph,
    illegitimate: NGramGraph,
    index: JointIndex,
}

/// Every gram of either class graph with its `[legitimate,
/// illegitimate]` ids, [`ABSENT`] where a class lacks the gram: the
/// source of the translation table [`compare`] reads.
#[derive(Debug, Clone)]
struct JointIndex {
    grams: GramTable,
    ids: Vec<[u32; 2]>,
}

impl JointIndex {
    fn new(classes: [&NGramGraph; 2]) -> Self {
        let mut grams = GramTable::with_capacity(classes.iter().map(|g| g.node_count()).sum());
        let mut ids = Vec::new();
        for (c, graph) in classes.into_iter().enumerate() {
            for id in 0..graph.node_count() as u32 {
                let joint = grams.intern(graph.gram(id)) as usize;
                if joint == ids.len() {
                    ids.push([ABSENT; 2]);
                }
                ids[joint][c] = id;
            }
        }
        grams.shrink_to_fit();
        JointIndex { grams, ids }
    }

    /// Each of `doc`'s grams in both class id spaces.
    fn translate(&self, doc: &NGramGraph) -> Vec<[u32; 2]> {
        (0..doc.node_count() as u32)
            .map(|id| {
                self.grams
                    .get(doc.gram(id))
                    .map_or([ABSENT; 2], |joint| self.ids[joint as usize])
            })
            .collect()
    }
}

/// The 8 similarity features of one document against both class graphs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NggFeatures {
    /// Similarities against the legitimate class graph.
    pub legitimate: GraphSimilarities,
    /// Similarities against the illegitimate class graph.
    pub illegitimate: GraphSimilarities,
}

/// Human-readable names for the columns of [`NggFeatures::to_vec`].
pub fn ngg_feature_names() -> [&'static str; 8] {
    [
        "cs_legit",
        "ss_legit",
        "vs_legit",
        "nvs_legit",
        "cs_illegit",
        "ss_illegit",
        "vs_illegit",
        "nvs_illegit",
    ]
}

impl NggFeatures {
    /// The feature vector in [`ngg_feature_names`] order.
    pub fn to_vec(self) -> Vec<f64> {
        vec![
            self.legitimate.cs,
            self.legitimate.ss,
            self.legitimate.vs,
            self.legitimate.nvs,
            self.illegitimate.cs,
            self.illegitimate.ss,
            self.illegitimate.vs,
            self.illegitimate.nvs,
        ]
    }

    /// Equation (3) of the paper — the N-Gram-Graph `textRank`:
    /// the sum of the four similarities to the legitimate class graph plus
    /// one minus each similarity to the illegitimate class graph.
    /// Ranges over `[0, 8]`; higher means more legitimate.
    pub fn text_rank(self) -> f64 {
        self.legitimate.cs
            + (1.0 - self.illegitimate.cs)
            + self.legitimate.ss
            + (1.0 - self.illegitimate.ss)
            + self.legitimate.vs
            + (1.0 - self.illegitimate.vs)
            + self.legitimate.nvs
            + (1.0 - self.illegitimate.nvs)
    }
}

impl NggClassGraphs {
    /// Builds class graphs from training texts, merging a random half of
    /// each class (at least one document), selected with `seed` — the
    /// protocol of §6.3.1.
    pub fn build(
        builder: NGramGraphBuilder,
        legitimate_texts: &[&str],
        illegitimate_texts: &[&str],
        seed: u64,
    ) -> Self {
        let _span = pharmaverify_obs::global().span("ngg/class-graphs/build");
        let mut rng = SmallRng::seed_from_u64(seed);
        let legitimate = Self::merge_half(&builder, legitimate_texts, &mut rng);
        let illegitimate = Self::merge_half(&builder, illegitimate_texts, &mut rng);
        Self::new(builder, legitimate, illegitimate)
    }

    /// Builds class graphs from *all* the given texts (no sampling) —
    /// useful for small corpora and for tests.
    pub fn build_full(
        builder: NGramGraphBuilder,
        legitimate_texts: &[&str],
        illegitimate_texts: &[&str],
    ) -> Self {
        let mut legit = ClassGraph::new();
        for t in legitimate_texts {
            legit.merge(&builder.build(t));
        }
        let mut illegit = ClassGraph::new();
        for t in illegitimate_texts {
            illegit.merge(&builder.build(t));
        }
        Self::new(builder, legit.into_graph(), illegit.into_graph())
    }

    fn new(builder: NGramGraphBuilder, legitimate: NGramGraph, illegitimate: NGramGraph) -> Self {
        let index = JointIndex::new([&legitimate, &illegitimate]);
        NggClassGraphs {
            builder,
            legitimate,
            illegitimate,
            index,
        }
    }

    fn merge_half(builder: &NGramGraphBuilder, texts: &[&str], rng: &mut SmallRng) -> NGramGraph {
        let mut indices: Vec<usize> = (0..texts.len()).collect();
        indices.shuffle(rng);
        let take = (texts.len() / 2).max(1).min(texts.len());
        let mut class = ClassGraph::new();
        for &i in indices.iter().take(take) {
            class.merge(&builder.build(texts[i]));
        }
        class.into_graph()
    }

    /// The merged legitimate-class graph.
    pub fn legitimate(&self) -> &NGramGraph {
        &self.legitimate
    }

    /// The merged illegitimate-class graph.
    pub fn illegitimate(&self) -> &NGramGraph {
        &self.illegitimate
    }

    /// Extracts the 8 similarity features for one document text.
    pub fn features(&self, text: &str) -> NggFeatures {
        let doc = self.builder.build(text);
        self.features_of_graph(&doc)
    }

    /// Extracts features for an already-built document graph: equal to
    /// [`GraphSimilarities::compute`] against each class graph, in one
    /// walk of `doc`.
    pub fn features_of_graph(&self, doc: &NGramGraph) -> NggFeatures {
        let translate = self.index.translate(doc);
        let [legitimate, illegitimate] =
            compare(doc, &translate, [&self.legitimate, &self.illegitimate]);
        NggFeatures {
            legitimate,
            illegitimate,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LEGIT: &[&str] = &[
        "refill your prescription with a licensed pharmacist and insurance coverage",
        "consult our pharmacist about prescription refills and health insurance",
        "licensed pharmacy with verified prescription services and patient privacy",
    ];
    const ILLEGIT: &[&str] = &[
        "cheap viagra no prescription needed discount cialis bonus pills",
        "buy viagra cialis online no prescription required best discount",
        "no prescription viagra discount pills cheap cialis fast shipping",
    ];

    fn graphs() -> NggClassGraphs {
        NggClassGraphs::build_full(NGramGraphBuilder::default(), LEGIT, ILLEGIT)
    }

    #[test]
    fn class_graphs_nonempty() {
        let g = graphs();
        assert!(g.legitimate().edge_count() > 0);
        assert!(g.illegitimate().edge_count() > 0);
    }

    #[test]
    fn legit_doc_closer_to_legit_graph() {
        let g = graphs();
        let f = g.features("licensed pharmacist prescription refill insurance");
        assert!(
            f.legitimate.vs > f.illegitimate.vs,
            "VS: {} vs {}",
            f.legitimate.vs,
            f.illegitimate.vs
        );
        assert!(f.text_rank() > 4.0, "text_rank = {}", f.text_rank());
    }

    #[test]
    fn illegit_doc_closer_to_illegit_graph() {
        let g = graphs();
        let f = g.features("viagra cialis no prescription cheap discount pills");
        assert!(f.illegitimate.cs > f.legitimate.cs);
        assert!(f.text_rank() < 4.5, "text_rank = {}", f.text_rank());
    }

    #[test]
    fn feature_vector_layout() {
        let g = graphs();
        let f = g.features(LEGIT[0]);
        let v = f.to_vec();
        assert_eq!(v.len(), ngg_feature_names().len());
        assert_eq!(v[0], f.legitimate.cs);
        assert_eq!(v[7], f.illegitimate.nvs);
    }

    #[test]
    fn text_rank_bounds() {
        let g = graphs();
        for text in LEGIT.iter().chain(ILLEGIT) {
            let r = g.features(text).text_rank();
            assert!((0.0..=8.0).contains(&r), "out of range: {r}");
        }
    }

    #[test]
    fn sampled_build_is_deterministic() {
        let b = NGramGraphBuilder::default();
        let g1 = NggClassGraphs::build(b, LEGIT, ILLEGIT, 11);
        let g2 = NggClassGraphs::build(b, LEGIT, ILLEGIT, 11);
        assert_eq!(g1.legitimate().edge_count(), g2.legitimate().edge_count());
        let f1 = g1.features(LEGIT[0]).to_vec();
        let f2 = g2.features(LEGIT[0]).to_vec();
        assert_eq!(f1, f2);
    }

    #[test]
    fn sampled_build_uses_half() {
        let b = NGramGraphBuilder::default();
        let g = NggClassGraphs::build(b, LEGIT, ILLEGIT, 3);
        // 3 docs → half = 1 doc merged; graph must still be non-empty.
        assert!(g.legitimate().edge_count() > 0);
    }

    #[test]
    fn empty_document_features_are_zero() {
        let g = graphs();
        let f = g.features("");
        assert_eq!(f.legitimate.cs, 0.0);
        assert_eq!(f.illegitimate.vs, 0.0);
        // Equation 3 on an all-zero feature set: 0 + 1 + … = 4.
        assert_eq!(f.text_rank(), 4.0);
    }
}
