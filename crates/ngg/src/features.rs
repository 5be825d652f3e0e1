//! Per-document N-Gram-Graph features (the classification process of
//! Figure 2) and the Equation (3) ranking score.
//!
//! For each class a class graph is built by merging the graphs of a random
//! half of that class's training documents (§6.3.1). Every document is then
//! described by its four similarities against each class graph — an
//! 8-dimensional feature vector fed to the downstream classifiers.
//!
//! The two class graphs are one table: every gram of either class, and
//! one row per joint gram listing both classes' targets with both
//! counts. A document's grams are looked up there once apiece, and one
//! walk of its rows scores both classes, one binary search per edge
//! ([`crate::similarity`]).

use crate::builder::NGramGraphBuilder;
use crate::graph::{EdgeTable, NGramGraph};
use crate::intern::GramTable;
use crate::merge::{join, ClassGraph};
use crate::similarity::{compare, GraphSimilarities};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// The two class graphs of the binary pharmacy-verification task, as one
/// table whose edge sets are `[legitimate, illegitimate]`.
#[derive(Debug, Clone)]
pub struct NggClassGraphs {
    builder: NGramGraphBuilder,
    /// Joint gram ids are the legitimate class's, then the illegitimate
    /// class's grams the legitimate class lacks, each in class id order.
    classes: EdgeTable<2>,
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
        Self::new(builder, [legitimate_texts, illegitimate_texts], |texts| {
            Self::merge_half(&builder, texts, &mut rng)
        })
    }

    /// Builds class graphs from *all* the given texts (no sampling) —
    /// useful for small corpora and for tests.
    pub fn build_full(
        builder: NGramGraphBuilder,
        legitimate_texts: &[&str],
        illegitimate_texts: &[&str],
    ) -> Self {
        Self::new(builder, [legitimate_texts, illegitimate_texts], |texts| {
            let mut class = ClassGraph::new();
            for t in texts {
                class.merge(&builder.build(t));
            }
            class
        })
    }

    /// Merges the legitimate, then the illegitimate class from `texts`
    /// with `merge`, draining each into the joint gram table as soon as
    /// it is merged, so at most one class's sums are live.
    fn new(
        builder: NGramGraphBuilder,
        texts: [&[&str]; 2],
        mut merge: impl FnMut(&[&str]) -> ClassGraph,
    ) -> Self {
        let mut grams = GramTable::default();
        let classes = texts.map(|texts| merge(texts).drain_into(&mut grams));
        NggClassGraphs {
            builder,
            classes: join(grams, classes),
        }
    }

    fn merge_half(builder: &NGramGraphBuilder, texts: &[&str], rng: &mut SmallRng) -> ClassGraph {
        let mut indices: Vec<usize> = (0..texts.len()).collect();
        indices.shuffle(rng);
        let take = (texts.len() / 2).max(1).min(texts.len());
        let mut class = ClassGraph::new();
        for &i in indices.iter().take(take) {
            class.merge(&builder.build(texts[i]));
        }
        class
    }

    /// The `[legitimate, illegitimate]` class graphs' edge counts.
    pub fn edge_counts(&self) -> [usize; 2] {
        self.classes.edge_counts()
    }

    /// Number of grams of either class graph.
    pub fn node_count(&self) -> usize {
        self.classes.node_count()
    }

    /// The gram with the given joint id.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn gram(&self, id: u32) -> &str {
        self.classes.grams.gram(id)
    }

    /// Iterates the edges of either class graph as `(from_gram, to_gram,
    /// [legitimate, illegitimate])`, each weight `None` where that class
    /// lacks the edge, in `(from, to)` joint id order.
    pub fn iter_edges(&self) -> impl Iterator<Item = (&str, &str, [Option<f64>; 2])> {
        let scales = self.classes.scales();
        self.classes.iter().map(move |(from, to, counts)| {
            let weights =
                std::array::from_fn(|c| (counts[c] != 0).then(|| f64::from(counts[c]) * scales[c]));
            (self.gram(from), self.gram(to), weights)
        })
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
        let [legitimate, illegitimate] = compare(doc, &self.classes);
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
        assert!(g.edge_counts().iter().all(|&edges| edges > 0));
        let [legit, illegit] = g.edge_counts();
        let edges: Vec<_> = g.iter_edges().collect();
        assert!(edges.len() <= legit + illegit);
        assert_eq!(edges.iter().filter(|e| e.2[0].is_some()).count(), legit);
        assert_eq!(edges.iter().filter(|e| e.2[1].is_some()).count(), illegit);
        assert_eq!(g.gram(0), &LEGIT[0][..4]);
        assert!(g.node_count() > 0);
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
        assert_eq!(g1.edge_counts(), g2.edge_counts());
        let f1 = g1.features(LEGIT[0]).to_vec();
        let f2 = g2.features(LEGIT[0]).to_vec();
        assert_eq!(f1, f2);
    }

    #[test]
    fn sampled_build_uses_half() {
        let b = NGramGraphBuilder::default();
        let g = NggClassGraphs::build(b, LEGIT, ILLEGIT, 3);
        // 3 docs → half = 1 doc merged; graph must still be non-empty.
        assert!(g.edge_counts()[0] > 0);
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
