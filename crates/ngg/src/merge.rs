//! Class-graph construction.
//!
//! For each class the paper merges the graphs of (a random half of) the
//! training documents of that class into a single *class graph* (§4.1.2,
//! Figure 2). We use running-average merge semantics — after merging *k*
//! documents, every edge's weight equals the mean of that edge's weight
//! across the *k* documents (0 where absent). This matches the repeated
//! application of the JInsect `UpdateOperator` rule
//! `w ← w + (w_doc − w) · 1/(k+1)` over the union of edge sets, and keeps
//! class-graph weights on the same scale as document-graph weights so the
//! value similarity (VS) between a document and a class graph is
//! meaningful.
//!
//! Internally the builder accumulates plain edge-weight *sums* — merging
//! a document costs O(document edges), not O(class-graph edges) — and the
//! division by the document count happens once, when the averaged graph
//! is frozen.

use std::collections::HashMap;

use crate::graph::{edge_key, edge_of, NGramGraph};
use crate::intern::{GramHashState, GramTable};

/// A class graph built by averaging document graphs.
#[derive(Debug, Clone, Default)]
pub struct ClassGraph {
    /// Class gram ids, assigned in merge order as grams first appear in
    /// a document's edge order.
    grams: GramTable,
    /// Edge-weight sums over all merged documents, keyed by
    /// [`edge_key`] of class ids.
    sums: HashMap<u64, f64, GramHashState>,
    merged: usize,
}

impl ClassGraph {
    /// Creates an empty class graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of documents merged so far.
    pub fn merged_count(&self) -> usize {
        self.merged
    }

    /// Merges one document graph. O(edges of `doc`).
    pub fn merge(&mut self, doc: &NGramGraph) {
        // Each document gram is looked up in the class once, on first
        // use in edge order, so class ids come out as if every edge
        // endpoint were interned in turn.
        let mut class_ids: Vec<Option<u32>> = vec![None; doc.node_count()];
        let mut class_id = |grams: &mut GramTable, id: u32| {
            *class_ids[id as usize].get_or_insert_with(|| grams.intern(doc.gram(id)))
        };
        for from in 0..doc.node_count() as u32 {
            let (targets, weights) = doc.row(from);
            if targets.is_empty() {
                continue;
            }
            let class_from = class_id(&mut self.grams, from);
            for (&to, &w) in targets.iter().zip(weights) {
                let key = edge_key(class_from, class_id(&mut self.grams, to));
                *self.sums.entry(key).or_insert(0.0) += w;
            }
        }
        self.merged += 1;
    }

    /// Merges every graph in the iterator.
    pub fn merge_all<'a, I: IntoIterator<Item = &'a NGramGraph>>(&mut self, docs: I) {
        for doc in docs {
            self.merge(doc);
        }
    }

    /// Consumes the builder, returning the averaged graph: every edge
    /// weight is the mean of that edge's weight across the merged
    /// documents.
    pub fn into_graph(self) -> NGramGraph {
        let ClassGraph {
            grams,
            sums,
            merged,
        } = self;
        // lint:allow(hash-iter): drained into a Vec that is sorted by
        // edge key before anything reads it.
        let mut edges: Vec<(u64, f64)> = sums.into_iter().collect();
        edges.sort_unstable_by_key(|&(key, _)| key);
        let factor = 1.0 / merged as f64;
        NGramGraph::freeze(
            grams,
            edges.into_iter().map(|(key, sum)| {
                let (from, to) = edge_of(key);
                (from, to, if merged > 1 { sum * factor } else { sum })
            }),
        )
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
    fn merging_one_doc_copies_it() {
        let doc = g("abab");
        let mut class = ClassGraph::new();
        class.merge(&doc);
        assert_eq!(class.merged_count(), 1);
        assert_eq!(
            class.into_graph().edge_weight_by_name("a", "b"),
            doc.edge_weight_by_name("a", "b")
        );
    }

    #[test]
    fn merge_averages_shared_edges() {
        // doc1: a→b weight 2; doc2: a→b weight 4 ⇒ class weight 3.
        let doc1 = g("ababa"); // a→b x2, b→a x2
        let doc2 = g("ababababa"); // a→b x4, b→a x4
        let mut class = ClassGraph::new();
        class.merge(&doc1);
        class.merge(&doc2);
        assert_eq!(class.into_graph().edge_weight_by_name("a", "b"), Some(3.0));
    }

    #[test]
    fn merge_averages_disjoint_edges_toward_half() {
        let doc1 = g("ab"); // a→b weight 1
        let doc2 = g("cd"); // c→d weight 1
        let mut class = ClassGraph::new();
        class.merge(&doc1);
        class.merge(&doc2);
        let avg = class.into_graph();
        assert_eq!(avg.edge_weight_by_name("a", "b"), Some(0.5));
        assert_eq!(avg.edge_weight_by_name("c", "d"), Some(0.5));
    }

    #[test]
    fn weights_equal_mean_over_documents() {
        // Three docs with a→b weights 1, 0 (edge absent), 2 ⇒ mean 1.0.
        let docs = [g("ab"), g("cd"), g("abab")];
        let mut class = ClassGraph::new();
        class.merge_all(docs.iter());
        assert_eq!(class.merged_count(), 3);
        let w = class.into_graph().edge_weight_by_name("a", "b").unwrap();
        assert!((w - 1.0).abs() < 1e-12, "got {w}");
    }

    #[test]
    fn merge_order_does_not_change_result() {
        let docs = [g("abcab"), g("bcabc"), g("aabb")];
        let mut forward = ClassGraph::new();
        forward.merge_all(docs.iter());
        let mut reverse = ClassGraph::new();
        reverse.merge_all(docs.iter().rev());
        let fg = forward.into_graph();
        let rg = reverse.into_graph();
        for (f, t, w) in fg.iter_edges() {
            let rw = rg.edge_weight_by_name(f, t).unwrap();
            assert!((w - rw).abs() < 1e-9, "{f}->{t}: {w} vs {rw}");
        }
        assert_eq!(fg.edge_count(), rg.edge_count());
    }
}
