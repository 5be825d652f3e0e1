//! Property-based tests for n-gram graphs and their similarities.

use pharmaverify_ngg::{ClassGraph, GraphSimilarities, NGramGraphBuilder};
use proptest::prelude::*;

fn text() -> impl Strategy<Value = String> {
    "[a-d ]{0,60}"
}

proptest! {
    /// Graph construction never panics; node/edge counts are consistent
    /// with the text length.
    #[test]
    fn builder_counts(input in ".{0,120}") {
        let b = NGramGraphBuilder::default();
        let g = b.build(&input);
        let n_chars = input.chars().count();
        if n_chars < b.rank() {
            prop_assert!(g.is_empty());
            prop_assert_eq!(g.node_count(), 0);
        } else {
            let n_grams = n_chars - b.rank() + 1;
            prop_assert!(g.node_count() <= n_grams);
            prop_assert!(g.edge_count() <= n_grams.saturating_mul(b.window()));
        }
    }

    /// Total edge weight equals the number of in-window gram pairs.
    #[test]
    fn total_weight_counts_pairs(input in "[ab]{0,40}") {
        let b = NGramGraphBuilder::new(1, 2);
        let g = b.build(&input);
        let n = input.chars().count();
        let expected: usize = (0..n).map(|p| ((p + 2).min(n.saturating_sub(1))).saturating_sub(p)).sum();
        prop_assert!((g.total_weight() - expected as f64).abs() < 1e-9);
    }

    /// All similarity measures are bounded: CS, SS, VS in [0, 1]; NVS
    /// non-negative; and self-similarity is exactly 1 on every axis.
    #[test]
    fn similarities_bounded(a in text(), b in text()) {
        let builder = NGramGraphBuilder::new(2, 2);
        let ga = builder.build(&a);
        let gb = builder.build(&b);
        let s = GraphSimilarities::compute(&ga, &gb);
        prop_assert!((0.0..=1.0).contains(&s.cs), "cs = {}", s.cs);
        prop_assert!((0.0..=1.0).contains(&s.ss), "ss = {}", s.ss);
        prop_assert!((0.0..=1.0).contains(&s.vs), "vs = {}", s.vs);
        prop_assert!(s.nvs >= 0.0);

        let own = GraphSimilarities::compute(&ga, &ga);
        prop_assert_eq!(own.cs, 1.0);
        prop_assert_eq!(own.ss, 1.0);
        prop_assert_eq!(own.vs, 1.0);
        prop_assert_eq!(own.nvs, 1.0);
    }

    /// Size similarity is symmetric; VS ≤ CS (weight-aware overlap can
    /// never exceed pure containment on the same normalization side only
    /// when sizes are equal, so compare via the shared bound VS ≤ 1).
    #[test]
    fn ss_symmetric(a in text(), b in text()) {
        let builder = NGramGraphBuilder::new(2, 2);
        let ga = builder.build(&a);
        let gb = builder.build(&b);
        let ab = GraphSimilarities::compute(&ga, &gb);
        let ba = GraphSimilarities::compute(&gb, &ga);
        prop_assert!((ab.ss - ba.ss).abs() < 1e-12);
    }

    /// Class-graph averaging: every edge weight is the arithmetic mean of
    /// that edge's weight across the merged documents.
    #[test]
    fn class_graph_is_mean(docs in prop::collection::vec("[ab]{2,12}", 1..5)) {
        let builder = NGramGraphBuilder::new(1, 1);
        let graphs: Vec<_> = docs.iter().map(|d| builder.build(d)).collect();
        let mut class = ClassGraph::new();
        class.merge_all(graphs.iter());
        let avg = class.into_graph();
        for (f, t, w) in avg.iter_edges() {
            let mean: f64 = graphs
                .iter()
                .map(|g| g.edge_weight_by_name(f, t).unwrap_or(0.0))
                .sum::<f64>()
                / graphs.len() as f64;
            prop_assert!((w - mean).abs() < 1e-9, "{f}->{t}: {w} vs {mean}");
        }
    }
}
