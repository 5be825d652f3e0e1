//! The frozen n-gram graph.
//!
//! Vertices are character n-grams, interned to dense `u32` ids in order
//! of first appearance. Edges are stored as rows: the out-edges of gram
//! `f` sit at `offsets[f]..offsets[f + 1]` of `targets`/`weights`,
//! sorted by target, so the edge order is `(from, to)` — deterministic,
//! because class-graph merging interns grams in edge order and the
//! similarity measures sum `f64` weights over it. A graph is immutable
//! once built; [`crate::NGramGraphBuilder`] and [`crate::ClassGraph`]
//! produce them.
//!
//! Two constructors lay rows out. A document graph's rows are written
//! directly, already sorted, by [`crate::NGramGraphBuilder`]; a class
//! graph's edge sums are sorted once and frozen by
//! [`crate::ClassGraph`]. An edge lookup is a binary search in its
//! source's row. Scoring a document walks its rows once and probes the
//! matching rows of both class graphs per edge ([`crate::similarity`]).
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

/// Unpacks an [`edge_key`].
pub(crate) fn edge_of(key: u64) -> (u32, u32) {
    ((key >> 32) as u32, key as u32)
}

/// A weighted directed graph over interned character n-grams.
#[derive(Debug, Clone)]
pub struct NGramGraph {
    grams: GramTable,
    /// Row boundaries, `node_count() + 1` of them.
    offsets: Vec<usize>,
    targets: Vec<u32>,
    weights: Vec<f64>,
}

impl NGramGraph {
    /// Freezes `edges` over the grams of `grams` (how a class graph
    /// comes out of [`crate::ClassGraph`]). The edges must come sorted
    /// by `(from, to)` with no pair repeated, and name interned ids
    /// only.
    pub(crate) fn freeze<I>(grams: GramTable, edges: I) -> Self
    where
        I: IntoIterator<Item = (u32, u32, f64)>,
    {
        let edges = edges.into_iter();
        let n = grams.len();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(edges.size_hint().0);
        let mut weights = Vec::with_capacity(edges.size_hint().0);
        offsets.push(0);
        for (from, to, weight) in edges {
            debug_assert!((to as usize) < n);
            while offsets.len() <= from as usize {
                offsets.push(targets.len());
            }
            debug_assert!(offsets.len() == from as usize + 1);
            targets.push(to);
            weights.push(weight);
        }
        offsets.resize(n + 1, targets.len());
        targets.shrink_to_fit();
        weights.shrink_to_fit();
        Self::from_rows(grams, offsets, targets, weights)
    }

    /// Wraps rows laid out already: `offsets` holds `grams.len() + 1`
    /// row boundaries into `targets`/`weights`, and each row's targets
    /// ascend.
    pub(crate) fn from_rows(
        mut grams: GramTable,
        offsets: Vec<usize>,
        targets: Vec<u32>,
        weights: Vec<f64>,
    ) -> Self {
        debug_assert_eq!(offsets.len(), grams.len() + 1);
        debug_assert_eq!(offsets.last(), Some(&targets.len()));
        debug_assert_eq!(targets.len(), weights.len());
        debug_assert!(offsets
            .windows(2)
            .all(|w| targets[w[0]..w[1]].windows(2).all(|t| t[0] < t[1])));
        grams.shrink_to_fit();
        NGramGraph {
            grams,
            offsets,
            targets,
            weights,
        }
    }

    /// The id of `gram`, if present.
    pub fn gram_id(&self, gram: &str) -> Option<u32> {
        self.grams.get(gram)
    }

    /// The n-gram with the given id.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn gram(&self, id: u32) -> &str {
        self.grams.gram(id)
    }

    /// The out-edges of `from`: targets in ascending id order, and their
    /// weights.
    ///
    /// # Panics
    /// Panics if `from` is out of range.
    pub(crate) fn row(&self, from: u32) -> (&[u32], &[f64]) {
        let span = self.offsets[from as usize]..self.offsets[from as usize + 1];
        (&self.targets[span.clone()], &self.weights[span])
    }

    /// The weight of the edge between two interned ids, `None` when
    /// absent.
    pub fn edge_weight(&self, from: u32, to: u32) -> Option<f64> {
        if from as usize >= self.node_count() {
            return None;
        }
        let (targets, weights) = self.row(from);
        targets.binary_search(&to).ok().map(|k| weights[k])
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
        self.targets.len()
    }

    /// Number of distinct n-gram vertices.
    pub fn node_count(&self) -> usize {
        self.grams.len()
    }

    /// True when the graph has no edges.
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
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
        (0..self.node_count() as u32).flat_map(move |from| {
            let (targets, weights) = self.row(from);
            targets
                .iter()
                .zip(weights)
                .map(move |(&to, &w)| (from, to, w))
        })
    }

    /// Total of all edge weights, summed in edge order.
    pub fn total_weight(&self) -> f64 {
        self.weights.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `aaaa → bbbb` (1.5), `bbbb → aaaa` (0.5), `bbbb → cccc` (2.0);
    /// `dddd` is isolated.
    fn sample() -> NGramGraph {
        let mut grams = GramTable::default();
        for g in ["aaaa", "bbbb", "cccc", "dddd"] {
            grams.intern(g);
        }
        NGramGraph::freeze(grams, [(0, 1, 1.5), (1, 0, 0.5), (1, 2, 2.0)])
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
    fn empty_graph() {
        let g = NGramGraph::freeze(GramTable::default(), []);
        assert!(g.is_empty());
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.iter_edges().count(), 0);
        assert_eq!(g.edge_weight(0, 0), None);
        assert_eq!(g.total_weight(), 0.0);
    }
}
