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
//! Internally the builder accumulates integer co-occurrence *sums* —
//! merging a document costs O(document edges), not O(class-graph edges)
//! — and the division by the document count is the frozen graph's one
//! scale ([`crate::graph`]). A finished class is drained into sorted
//! edges over a joint gram table, freeing its sums, and [`join`] freezes
//! the drained classes into one table: [`ClassGraph::into_graph`] is its
//! one-class case, and [`crate::NggClassGraphs`] joins the two classes.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use crate::graph::{edge_key, EdgeTable, NGramGraph};
use crate::intern::{GramHashState, GramTable};

/// An edge `(from, to)` of class gram ids, hashed as its [`edge_key`].
/// Its 4-byte alignment makes a map entry with its `u32` count 12 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct EdgeIds([u32; 2]);

impl Hash for EdgeIds {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(edge_key(self.0[0], self.0[1]));
    }
}

/// A class graph built by averaging document graphs.
#[derive(Debug, Clone, Default)]
pub struct ClassGraph {
    /// Class gram ids, assigned in merge order as grams first appear in
    /// a document's edge order.
    grams: GramTable,
    /// Co-occurrence counts summed over all merged documents, keyed by
    /// class ids.
    sums: HashMap<EdgeIds, u32, GramHashState>,
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
    ///
    /// # Panics
    /// Panics if `doc` is an average of several documents (a class
    /// graph), or if an edge's summed count overflows a `u32`.
    pub fn merge(&mut self, doc: &NGramGraph) {
        let doc = &doc.table;
        assert!(
            doc.documents()[0] <= 1,
            "only document graphs merge into a class graph"
        );
        // Each document gram is looked up in the class once, on first
        // use in edge order, so class ids come out as if every edge
        // endpoint were interned in turn.
        let mut class_ids: Vec<Option<u32>> = vec![None; doc.node_count()];
        let mut class_id = |grams: &mut GramTable, id: u32| {
            *class_ids[id as usize].get_or_insert_with(|| grams.intern_from(&doc.grams, id))
        };
        for from in 0..doc.node_count() as u32 {
            let (targets, counts) = doc.row(from);
            if targets.is_empty() {
                continue;
            }
            let class_from = class_id(&mut self.grams, from);
            for (&to, &[count]) in targets.iter().zip(counts) {
                let edge = EdgeIds([class_from, class_id(&mut self.grams, to)]);
                let sum = self.sums.entry(edge).or_insert(0);
                let (total, overflowed) = sum.overflowing_add(count);
                assert!(!overflowed, "class edge count overflows u32");
                *sum = total;
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
        let mut grams = GramTable::default();
        let edges = self.drain_into(&mut grams);
        NGramGraph {
            table: join(grams, [edges]),
        }
    }

    /// Drains the class into edges over the ids of `joint`, interning
    /// its grams there in class id order, so a class drained into an
    /// empty table keeps its ids. The sums are freed on return.
    pub(crate) fn drain_into(self, joint: &mut GramTable) -> JointEdges {
        let ids: Vec<u32> = (0..self.grams.len() as u32)
            .map(|id| joint.intern_from(&self.grams, id))
            .collect();
        let mut edges: Vec<([u32; 2], u32)> = self
            .sums
            // lint:allow(hash-iter): drained into a Vec that is sorted by
            // edge before anything reads it.
            .into_iter()
            .map(|(EdgeIds([from, to]), count)| ([ids[from as usize], ids[to as usize]], count))
            .collect();
        edges.sort_unstable_by_key(|&([from, to], _)| edge_key(from, to));
        JointEdges {
            edges,
            documents: self.merged,
        }
    }
}

/// One class's summed counts, keyed by a joint gram table's ids and
/// sorted in `(from, to)` order: 12 bytes an edge.
#[derive(Debug)]
pub(crate) struct JointEdges {
    edges: Vec<([u32; 2], u32)>,
    documents: usize,
}

/// Freezes classes drained into `grams` into one table: each row lists
/// the union of the classes' targets, ascending by joint id, with every
/// class's count (0 where it lacks the edge).
pub(crate) fn join<const N: usize>(grams: GramTable, classes: [JointEdges; N]) -> EdgeTable<N> {
    let documents = std::array::from_fn(|c| classes[c].documents);
    let classes = &classes;
    // The classes' edges merged in `(from, to)` order.
    let union = || {
        let mut next = [0usize; N];
        std::iter::from_fn(move || {
            let edge = (0..N)
                .filter_map(|c| classes[c].edges.get(next[c]))
                .map(|&(edge, _)| edge)
                .min()?;
            let counts = std::array::from_fn(|c| match classes[c].edges.get(next[c]) {
                Some(&(e, count)) if e == edge => {
                    next[c] += 1;
                    count
                }
                _ => 0,
            });
            Some((edge, counts))
        })
    };
    EdgeTable::freeze(grams, union().count(), union(), documents)
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

    #[test]
    #[should_panic(expected = "only document graphs merge")]
    fn merging_an_averaged_graph_panics() {
        let mut class = ClassGraph::new();
        class.merge_all([g("ab"), g("ba")].iter());
        let averaged = class.into_graph();
        ClassGraph::new().merge(&averaged);
    }

    #[test]
    fn join_keeps_the_first_classes_ids_and_unions_rows() {
        let mut first = ClassGraph::new();
        first.merge(&g("abc")); // a→b, b→c
        let mut second = ClassGraph::new();
        second.merge_all([g("dbc"), g("db")].iter()); // d→b ×2, b→c
        let mut grams = GramTable::default();
        let edges = [first.drain_into(&mut grams), second.drain_into(&mut grams)];
        let table = join(grams, edges);
        let names: Vec<&str> = (0..4).map(|id| table.grams.gram(id)).collect();
        assert_eq!(names, ["a", "b", "c", "d"]);
        assert_eq!(table.edge_counts(), [2, 2]);
        assert_eq!(table.documents(), [1, 2]);
        let edges: Vec<_> = table.iter().collect();
        assert_eq!(edges, [(0, 1, [1, 0]), (1, 2, [1, 1]), (3, 1, [0, 2])]);
    }
}
