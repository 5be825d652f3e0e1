//! Graph similarity measures (§4.1.2).
//!
//! With `|G|` the number of edges of graph `G`, `μ(e, G) = 1` iff edge
//! `e ∈ G`, and `wᵉᵢ` the weight of edge `e` in graph `Gᵢ`:
//!
//! * Containment Similarity `CS(Gᵢ, Gⱼ) = Σ_{e∈Gᵢ} μ(e, Gⱼ) / min(|Gᵢ|, |Gⱼ|)`
//! * Size Similarity `SS(Gᵢ, Gⱼ) = min(|Gᵢ|, |Gⱼ|) / max(|Gᵢ|, |Gⱼ|)`
//! * Value Similarity `VS(Gᵢ, Gⱼ) = Σ_{e∈Gᵢ} (min(wᵉᵢ, wᵉⱼ) / max(wᵉᵢ, wᵉⱼ)) / max(|Gᵢ|, |Gⱼ|)`
//! * Normalized Value Similarity `NVS = VS / SS`
//!
//! Degenerate cases (not defined by the paper) are pinned down here: two
//! empty graphs are identical (all similarities 1); comparing an empty
//! graph with a non-empty one yields 0.

use crate::graph::NGramGraph;

/// All four similarity values between a pair of graphs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GraphSimilarities {
    /// Containment similarity — shared-edge proportion.
    pub cs: f64,
    /// Size similarity — edge-count ratio.
    pub ss: f64,
    /// Value similarity — weight-aware shared-edge proportion.
    pub vs: f64,
    /// Normalized value similarity — `VS / SS`.
    pub nvs: f64,
}

impl GraphSimilarities {
    /// Computes all four measures between `gi` and `gj`.
    ///
    /// One pass over `gi`: its gram ids are translated into `gj`'s id
    /// space once per gram, then each of `gi`'s rows is walked in order
    /// and every edge is probed with a binary search in `gj`'s matching
    /// row. Shared edges are counted and their weight ratios summed in
    /// `gi`'s `(from, to)` edge order, which fixes the `f64` result.
    pub fn compute(gi: &NGramGraph, gj: &NGramGraph) -> Self {
        let (min, max) = (
            gi.edge_count().min(gj.edge_count()),
            gi.edge_count().max(gj.edge_count()),
        );
        if max == 0 {
            // Both empty: identical.
            return GraphSimilarities {
                cs: 1.0,
                ss: 1.0,
                vs: 1.0,
                nvs: 1.0,
            };
        }
        if min == 0 {
            // One empty: nothing shared. `vs` is the empty sum divided
            // by `max`, signed as below.
            return GraphSimilarities {
                cs: 0.0,
                ss: 0.0,
                vs: -0.0,
                nvs: 0.0,
            };
        }
        let translate: Vec<Option<u32>> = (0..gi.node_count() as u32)
            .map(|id| gj.gram_id(gi.gram(id)))
            .collect();
        let mut shared = 0usize;
        // Starting at `-0.0`, `Iterator::sum`'s f64 identity, makes VS
        // `-0.0` when no edge is shared; report bytes pin that sign.
        let mut vs_sum = -0.0f64;
        for (from, from_j) in translate.iter().enumerate() {
            let Some(from_j) = *from_j else {
                continue;
            };
            let (targets_j, weights_j) = gj.row(from_j);
            if targets_j.is_empty() {
                continue;
            }
            let (targets_i, weights_i) = gi.row(from as u32);
            for (&to, &wi) in targets_i.iter().zip(weights_i) {
                let Some(to_j) = translate[to as usize] else {
                    continue;
                };
                if let Ok(k) = targets_j.binary_search(&to_j) {
                    let wj = weights_j[k];
                    shared += 1;
                    let (lo, hi) = if wi < wj { (wi, wj) } else { (wj, wi) };
                    vs_sum += if hi == 0.0 { 0.0 } else { lo / hi };
                }
            }
        }
        let cs = shared as f64 / min as f64;
        let ss = min as f64 / max as f64;
        let vs = vs_sum / max as f64;
        let nvs = if ss == 0.0 { 0.0 } else { vs / ss };
        GraphSimilarities { cs, ss, vs, nvs }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NGramGraphBuilder;

    fn g(text: &str) -> NGramGraph {
        NGramGraphBuilder::new(1, 1).build(text)
    }

    #[test]
    fn identical_graphs_all_ones() {
        let a = g("abcabc");
        let s = GraphSimilarities::compute(&a, &a);
        assert_eq!(s.cs, 1.0);
        assert_eq!(s.ss, 1.0);
        assert_eq!(s.vs, 1.0);
        assert_eq!(s.nvs, 1.0);
    }

    #[test]
    fn disjoint_graphs_all_zero_except_ss() {
        let a = g("ab");
        let b = g("cd");
        let s = GraphSimilarities::compute(&a, &b);
        assert_eq!(s.cs, 0.0);
        assert_eq!(s.ss, 1.0); // same sizes
        assert_eq!(s.vs, 0.0);
        assert_eq!(s.nvs, 0.0);
    }

    #[test]
    fn both_empty_is_identity() {
        let e = g("");
        let s = GraphSimilarities::compute(&e, &e);
        assert_eq!((s.cs, s.ss, s.vs, s.nvs), (1.0, 1.0, 1.0, 1.0));
    }

    #[test]
    fn one_empty_is_zero() {
        let e = g("");
        let a = g("ab");
        let s = GraphSimilarities::compute(&e, &a);
        assert_eq!(s.cs, 0.0);
        assert_eq!(s.ss, 0.0);
        assert_eq!(s.vs, 0.0);
        assert_eq!(s.nvs, 0.0);
    }

    #[test]
    fn cs_normalizes_by_smaller_graph() {
        // a: edges {a→b}; b: edges {a→b, b→c, c→d}; shared = 1,
        // min = 1 ⇒ CS = 1.
        let a = g("ab");
        let b = g("abcd");
        assert_eq!(GraphSimilarities::compute(&a, &b).cs, 1.0);
        // Symmetric call: shared counted over b's edges, still 1/min=1.
        assert_eq!(GraphSimilarities::compute(&b, &a).cs, 1.0);
    }

    #[test]
    fn ss_is_symmetric_ratio() {
        let a = g("ab"); // 1 edge
        let b = g("abcd"); // 3 edges
        let ab = GraphSimilarities::compute(&a, &b);
        assert!((ab.ss - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(ab.ss, GraphSimilarities::compute(&b, &a).ss);
    }

    #[test]
    fn vs_penalizes_weight_mismatch() {
        let a = g("abab"); // a→b weight 2, b→a weight 1
        let b = g("ab"); // a→b weight 1
                         // Shared edge a→b: min/max = 1/2. max(|Gi|,|Gj|) = 2.
        assert!((GraphSimilarities::compute(&a, &b).vs - 0.25).abs() < 1e-12);
        // VS is symmetric here because the shared-edge ratio is.
        assert!((GraphSimilarities::compute(&b, &a).vs - 0.25).abs() < 1e-12);
    }

    #[test]
    fn nvs_removes_size_penalty() {
        let a = g("abab");
        let b = g("ab");
        let s = GraphSimilarities::compute(&a, &b);
        assert!((s.nvs - s.vs / s.ss).abs() < 1e-12);
        assert!(s.nvs >= s.vs);
    }

    #[test]
    fn similarities_bounded() {
        let pairs = [
            (g("pharmacy online"), g("pharmacy store")),
            (g("viagra no prescription"), g("refill your prescription")),
            (g("aaaa"), g("aaaaaaaa")),
        ];
        for (a, b) in &pairs {
            let s = GraphSimilarities::compute(a, b);
            for v in [s.cs, s.ss, s.vs] {
                assert!((0.0..=1.0).contains(&v), "out of range: {v}");
            }
            assert!(s.nvs >= 0.0);
        }
    }
}
