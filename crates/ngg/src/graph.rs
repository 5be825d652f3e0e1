//! The frozen n-gram graph.
//!
//! Vertices are character n-grams, interned to dense `u32` ids in order
//! of first appearance. Edges are stored as rows: the out-edges of gram
//! `f` sit at `offsets[f]..offsets[f + 1]` of `targets`/`counts`,
//! sorted by target, so the edge order is `(from, to)` — deterministic,
//! because class-graph merging interns grams in edge order and the
//! similarity measures sum `f64` weights over it. A graph is immutable
//! once built; [`crate::NGramGraphBuilder`] and [`crate::ClassGraph`]
//! produce them.
//!
//! An edge stores its integer co-occurrence count, and a graph one scale
//! for all its edges: a weight is `count as f64` for a document graph
//! (or a class of one document), and `count as f64 * (1.0 / documents
//! as f64)` for a class averaged over several. Those are the bits the
//! `f64` edge store held, because a sum of document counts is an exact
//! integer. The rows are an [`EdgeTable`] of one edge set; the two class
//! graphs of [`crate::NggClassGraphs`] are one table of two sets, each
//! row listing the union of both classes' targets with both counts.
//!
//! Two constructors lay rows out. A document graph's rows are written
//! directly, already sorted, by [`crate::NGramGraphBuilder`]; class
//! graphs' edge sums are sorted once and frozen by [`crate::merge`]. An
//! edge lookup is a binary search in its source's row. Scoring a
//! document walks its rows once and probes the matching class row once
//! per edge ([`crate::similarity`]).
//!
//! Rows replaced a `BTreeMap<(u32, u32), f64>` edge store. On the
//! performance ledger's traced `fed-cold` run (medium corpus, class
//! graphs of 101k and 396k edges, 2-vCPU Xeon VM) they took the NGG
//! opinion (`ngg.fast_opinion_ms_p50`) from 3.62 ms to 0.79 ms and
//! `verify_text_only` (`core.verify_text_only_ms_p50`) from 4.28 ms to
//! 1.33 ms, and class-graph construction per `eval-small` run
//! (`ngg.class_graphs.build_s`) from 2.02 s to 0.46 s. Writing document
//! rows without a sort, and scoring both class graphs in one walk over
//! a joint gram index, then took the opinion from 1.60 ms to 1.10 ms
//! and class-graph construction from 0.76 s to 0.50 s (one traced run
//! per side, `fed-cold` seed 32 and `eval-small` seed 31, on the same VM
//! at a slower time; compare ratios, not times, across the two rounds).

use crate::intern::GramTable;

/// Packs edge `(from, to)` into one `u64` whose integer order is the
/// `(from, to)` edge order.
pub(crate) fn edge_key(from: u32, to: u32) -> u64 {
    u64::from(from) << 32 | u64::from(to)
}

/// `N` edge sets over one gram table, frozen into rows: the out-edges of
/// gram `f` in any set sit at `offsets[f]..offsets[f + 1]` of
/// `targets`/`counts`, sorted by target, and `counts[k][c]` is the
/// co-occurrence count of that edge in set `c`, 0 where set `c` lacks
/// it. A document graph is one set; [`crate::NggClassGraphs`] joins the
/// two class graphs into one table.
#[derive(Debug, Clone)]
pub(crate) struct EdgeTable<const N: usize> {
    pub(crate) grams: GramTable,
    /// Row boundaries, `node_count() + 1` of them.
    offsets: Vec<usize>,
    targets: Vec<u32>,
    counts: Vec<[u32; N]>,
    /// How many document graphs each set's counts sum over: 1 for a
    /// document graph.
    documents: [usize; N],
    /// Each set's edge count.
    edges: [usize; N],
}

impl<const N: usize> EdgeTable<N> {
    /// Freezes the `len` edges of `edges` over the grams of `grams`. The
    /// edges must come in `(from, to)` order with no edge repeated, and
    /// name interned ids only; each carries its count in every set.
    pub(crate) fn freeze(
        grams: GramTable,
        len: usize,
        edges: impl Iterator<Item = ([u32; 2], [u32; N])>,
        documents: [usize; N],
    ) -> Self {
        let n = grams.len();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(len);
        let mut counts = Vec::with_capacity(len);
        let mut set_edges = [0; N];
        offsets.push(0);
        for ([from, to], count) in edges {
            for (set, &in_set) in set_edges.iter_mut().zip(&count) {
                *set += usize::from(in_set != 0);
            }
            debug_assert!((to as usize) < n);
            while offsets.len() <= from as usize {
                offsets.push(targets.len());
            }
            debug_assert!(offsets.len() == from as usize + 1);
            targets.push(to);
            counts.push(count);
        }
        offsets.resize(n + 1, targets.len());
        Self::from_rows(grams, offsets, targets, counts, documents, set_edges)
    }

    /// Wraps rows laid out already: `offsets` holds `grams.len() + 1`
    /// row boundaries into `targets`/`counts`, each row's targets
    /// ascend, and set `c` holds `edges[c]` of the edges.
    pub(crate) fn from_rows(
        mut grams: GramTable,
        offsets: Vec<usize>,
        targets: Vec<u32>,
        counts: Vec<[u32; N]>,
        documents: [usize; N],
        edges: [usize; N],
    ) -> Self {
        debug_assert_eq!(offsets.len(), grams.len() + 1);
        debug_assert_eq!(offsets.last(), Some(&targets.len()));
        debug_assert_eq!(targets.len(), counts.len());
        debug_assert!(offsets
            .windows(2)
            .all(|w| targets[w[0]..w[1]].windows(2).all(|t| t[0] < t[1])));
        debug_assert!((0..N).all(|c| counts.iter().filter(|n| n[c] != 0).count() == edges[c]));
        grams.shrink_to_fit();
        EdgeTable {
            grams,
            offsets,
            targets,
            counts,
            documents,
            edges,
        }
    }

    /// Number of distinct n-gram vertices.
    pub(crate) fn node_count(&self) -> usize {
        self.grams.len()
    }

    /// Each set's edge count.
    pub(crate) fn edge_counts(&self) -> [usize; N] {
        self.edges
    }

    /// How many document graphs each set's counts sum over.
    pub(crate) fn documents(&self) -> [usize; N] {
        self.documents
    }

    /// Each set's weight per count: `1 / documents` for a set summed over
    /// several documents, else 1. A weight is `count as f64 * scale`,
    /// which is `count as f64` exactly when the scale is 1.
    pub(crate) fn scales(&self) -> [f64; N] {
        self.documents
            .map(|d| if d > 1 { 1.0 / d as f64 } else { 1.0 })
    }

    /// The out-edges of `from`: targets in ascending id order, and their
    /// counts in every set.
    ///
    /// # Panics
    /// Panics if `from` is out of range.
    pub(crate) fn row(&self, from: u32) -> (&[u32], &[[u32; N]]) {
        let span = self.offsets[from as usize]..self.offsets[from as usize + 1];
        (&self.targets[span.clone()], &self.counts[span])
    }

    /// The counts of the edge between two interned ids, `None` when no
    /// set holds it.
    pub(crate) fn counts(&self, from: u32, to: u32) -> Option<[u32; N]> {
        if from as usize >= self.node_count() {
            return None;
        }
        let (targets, counts) = self.row(from);
        targets.binary_search(&to).ok().map(|k| counts[k])
    }

    /// Iterates edges as interned `(from_id, to_id, counts)` in `(from,
    /// to)` id order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u32, u32, [u32; N])> + '_ {
        (0..self.node_count() as u32).flat_map(move |from| {
            let (targets, counts) = self.row(from);
            targets
                .iter()
                .zip(counts)
                .map(move |(&to, &count)| (from, to, count))
        })
    }
}

/// A weighted directed graph over interned character n-grams.
#[derive(Debug, Clone)]
pub struct NGramGraph {
    pub(crate) table: EdgeTable<1>,
}

impl NGramGraph {
    /// The weight of `count` co-occurrences in this graph.
    fn weight(&self, count: u32) -> f64 {
        let [scale] = self.table.scales();
        f64::from(count) * scale
    }

    /// The id of `gram`, if present.
    pub fn gram_id(&self, gram: &str) -> Option<u32> {
        self.table.grams.get(gram)
    }

    /// The n-gram with the given id.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn gram(&self, id: u32) -> &str {
        self.table.grams.gram(id)
    }

    /// The weight of the edge between two interned ids, `None` when
    /// absent.
    pub fn edge_weight(&self, from: u32, to: u32) -> Option<f64> {
        let [count] = self.table.counts(from, to)?;
        Some(self.weight(count))
    }

    /// The weight of the edge between two n-grams *by name*, `None` when
    /// either endpoint or the edge is absent. This is the lookup used when
    /// comparing edges across two different graphs, whose ids differ.
    pub fn edge_weight_by_name(&self, from: &str, to: &str) -> Option<f64> {
        self.edge_weight(self.gram_id(from)?, self.gram_id(to)?)
    }

    /// Number of edges — the graph cardinality `|G|` used by all the
    /// similarity measures.
    pub fn edge_count(&self) -> usize {
        let [edges] = self.table.edge_counts();
        edges
    }

    /// Number of distinct n-gram vertices.
    pub fn node_count(&self) -> usize {
        self.table.node_count()
    }

    /// True when the graph has no edges.
    pub fn is_empty(&self) -> bool {
        self.edge_count() == 0
    }

    /// Iterates edges as `(from_gram, to_gram, weight)` in `(from, to)` id
    /// order.
    pub fn iter_edges(&self) -> impl Iterator<Item = (&str, &str, f64)> {
        self.iter_edge_ids()
            .map(move |(f, t, w)| (self.gram(f), self.gram(t), w))
    }

    /// Iterates edges as interned `(from_id, to_id, weight)` triples, in
    /// the same order as [`NGramGraph::iter_edges`].
    pub fn iter_edge_ids(&self) -> impl Iterator<Item = (u32, u32, f64)> + '_ {
        self.table
            .iter()
            .map(move |(f, t, [count])| (f, t, self.weight(count)))
    }

    /// Total of all edge weights, summed in edge order.
    pub fn total_weight(&self) -> f64 {
        self.iter_edge_ids().map(|(_, _, w)| w).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `aaaa → bbbb` (3), `bbbb → aaaa` (1), `bbbb → cccc` (4), summed
    /// over two documents; `dddd` is isolated.
    fn sample() -> NGramGraph {
        let mut grams = GramTable::default();
        for g in ["aaaa", "bbbb", "cccc", "dddd"] {
            grams.intern(g);
        }
        let edges = [([0, 1], [3]), ([1, 0], [1]), ([1, 2], [4])];
        NGramGraph {
            table: EdgeTable::freeze(grams, 3, edges.into_iter(), [2]),
        }
    }

    #[test]
    fn rows_answer_lookups() {
        let g = sample();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.edge_weight(0, 1), Some(1.5));
        assert_eq!(g.edge_weight(1, 2), Some(2.0));
        assert_eq!(g.edge_weight(1, 3), None);
        assert_eq!(g.edge_weight(3, 0), None);
        assert_eq!(g.edge_weight(9, 0), None);
        assert_eq!(g.gram(2), "cccc");
        assert_eq!(g.gram_id("dddd"), Some(3));
    }

    #[test]
    fn edges_are_directed() {
        let g = sample();
        assert_eq!(g.edge_weight(2, 1), None);
        assert_eq!(g.edge_weight_by_name("bbbb", "cccc"), Some(2.0));
        assert_eq!(g.edge_weight_by_name("cccc", "bbbb"), None);
        assert_eq!(g.edge_weight_by_name("zzzz", "aaaa"), None);
    }

    #[test]
    fn iter_and_totals() {
        let g = sample();
        let edges: Vec<_> = g.iter_edges().collect();
        assert_eq!(
            edges,
            [
                ("aaaa", "bbbb", 1.5),
                ("bbbb", "aaaa", 0.5),
                ("bbbb", "cccc", 2.0)
            ]
        );
        assert_eq!(g.total_weight(), 4.0);
        assert!(!g.is_empty());
    }

    #[test]
    fn weights_scale_counts_by_one_over_the_documents() {
        // 1 / 3 rounds, so a count of 3 weighs 3 * (1 / 3), not 1.
        let third = f64::from(3u32) * (1.0 / 3.0);
        let mut grams = GramTable::default();
        grams.intern("aaaa");
        let table = EdgeTable::freeze(grams, 1, [([0, 0], [3])].into_iter(), [3]);
        assert_eq!(table.scales(), [1.0 / 3.0]);
        assert_eq!(NGramGraph { table }.edge_weight(0, 0), Some(third));
        for documents in [0, 1] {
            let mut grams = GramTable::default();
            grams.intern("aaaa");
            let edges = [([0, 0], [3])].into_iter();
            let table = EdgeTable::freeze(grams, 1, edges, [documents]);
            assert_eq!(NGramGraph { table }.edge_weight(0, 0), Some(3.0));
        }
    }

    #[test]
    fn a_table_of_two_sets_counts_each_sets_edges() {
        let mut grams = GramTable::default();
        for g in ["aaaa", "bbbb"] {
            grams.intern(g);
        }
        let edges = [([0, 1], [2, 0]), ([1, 0], [1, 5]), ([1, 1], [0, 3])];
        let table = EdgeTable::freeze(grams, 3, edges.into_iter(), [1, 2]);
        assert_eq!(table.edge_counts(), [2, 2]);
        assert_eq!(table.documents(), [1, 2]);
        assert_eq!(table.counts(1, 0), Some([1, 5]));
        assert_eq!(table.counts(0, 0), None);
        let (targets, counts) = table.row(1);
        assert_eq!((targets, counts), (&[0, 1][..], &[[1, 5], [0, 3]][..]));
    }

    #[test]
    fn empty_graph() {
        let g = NGramGraph {
            table: EdgeTable::freeze(GramTable::default(), 0, std::iter::empty(), [0]),
        };
        assert!(g.is_empty());
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.iter_edges().count(), 0);
        assert_eq!(g.edge_weight(0, 0), None);
        assert_eq!(g.total_weight(), 0.0);
    }
}
