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
//! graph with a non-empty one yields 0 (VS is the empty sum `-0.0`).
//!
//! One routine, [`compare`], scores a document graph against any number
//! of edge sets joined in one [`EdgeTable`], in a single walk of the
//! document's rows: each document gram is translated into the table's
//! ids once, and each document edge probes the matching table row with
//! one binary search, whose one slot holds every set's count. Shared
//! edges are counted and their weight ratios summed per set in the
//! document's `(from, to)` edge order, which fixes the `f64` result, so
//! no bit depends on the table's id order. [`GraphSimilarities::compute`]
//! is its one-set case, and [`crate::NggClassGraphs`] scores both class
//! graphs in one walk.

use crate::graph::{EdgeTable, NGramGraph};

/// Marks a document gram that the table does not hold, in [`compare`]'s
/// translation. Never an issued gram id.
const ABSENT: u32 = u32::MAX;

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
    /// Computes all four measures between `gi` and `gj`: [`compare`]
    /// with `gj` as the one edge set.
    pub fn compute(gi: &NGramGraph, gj: &NGramGraph) -> Self {
        let [sims] = compare(gi, &gj.table);
        sims
    }

    /// The measures from edge counts and the shared-edge tallies, with
    /// the degenerate cases of the module docs.
    fn from_tallies(doc_edges: usize, class_edges: usize, shared: usize, vs_sum: f64) -> Self {
        let (min, max) = (doc_edges.min(class_edges), doc_edges.max(class_edges));
        if max == 0 {
            // Both empty: identical.
            return GraphSimilarities {
                cs: 1.0,
                ss: 1.0,
                vs: 1.0,
                nvs: 1.0,
            };
        }
        // With one graph empty nothing is shared: CS is pinned to 0 (its
        // denominator `min` is 0), SS and NVS come out 0, and VS is the
        // empty sum `-0.0` over `max`.
        let cs = if min == 0 {
            0.0
        } else {
            shared as f64 / min as f64
        };
        let ss = min as f64 / max as f64;
        let vs = vs_sum / max as f64;
        let nvs = if ss == 0.0 { 0.0 } else { vs / ss };
        GraphSimilarities { cs, ss, vs, nvs }
    }
}

/// The similarities of `doc` against each edge set of `classes`, in
/// one walk of `doc`'s rows.
pub(crate) fn compare<const N: usize>(
    doc: &NGramGraph,
    classes: &EdgeTable<N>,
) -> [GraphSimilarities; N] {
    let doc = &doc.table;
    let joint: Vec<u32> = (0..doc.node_count() as u32)
        .map(|id| classes.grams.find(&doc.grams, id).unwrap_or(ABSENT))
        .collect();
    let [doc_scale] = doc.scales();
    let scales = classes.scales();
    let mut shared = [0usize; N];
    // Starting at `-0.0`, `Iterator::sum`'s f64 identity, makes VS
    // `-0.0` when no edge is shared; report bytes pin that sign.
    let mut vs_sum = [-0.0f64; N];
    for (from, &joint_from) in joint.iter().enumerate() {
        if joint_from == ABSENT {
            continue;
        }
        let (targets, counts) = doc.row(from as u32);
        let (class_targets, class_counts) = classes.row(joint_from);
        if targets.is_empty() || class_targets.is_empty() {
            continue;
        }
        for (&to, &[count]) in targets.iter().zip(counts) {
            let joint_to = joint[to as usize];
            if joint_to == ABSENT {
                continue;
            }
            let Ok(k) = class_targets.binary_search(&joint_to) else {
                continue;
            };
            let wi = f64::from(count) * doc_scale;
            for (c, &class_count) in class_counts[k].iter().enumerate() {
                if class_count == 0 {
                    continue;
                }
                let wj = f64::from(class_count) * scales[c];
                shared[c] += 1;
                let (lo, hi) = if wi < wj { (wi, wj) } else { (wj, wi) };
                vs_sum[c] += if hi == 0.0 { 0.0 } else { lo / hi };
            }
        }
    }
    let [doc_edges] = doc.edge_counts();
    let class_edges = classes.edge_counts();
    std::array::from_fn(|c| {
        GraphSimilarities::from_tallies(doc_edges, class_edges[c], shared[c], vs_sum[c])
    })
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
