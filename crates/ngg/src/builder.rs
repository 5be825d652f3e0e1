//! Document → n-gram graph extraction.
//!
//! The text is scanned as a sequence of overlapping character n-grams
//! (rank `Lmin = Lmax`). Each n-gram is connected to the n-grams that
//! start within the next `Dwin` character positions — the "sliding window"
//! co-occurrence of §4.1.2 — and each co-occurrence adds 1 to the directed
//! edge's weight.
//!
//! Construction interns the grams, collects every in-window pair as one
//! packed `u64`, sorts the pairs once and counts each run of equal pairs
//! into its edge's weight. Counts are small integers, exact in `f64`.

use crate::graph::{edge_key, edge_of, NGramGraph};
use crate::intern::GramTable;
use crate::{NGRAM_RANK, WINDOW};

/// Builds [`NGramGraph`]s from text with configurable rank and window.
///
/// # Examples
///
/// ```
/// use pharmaverify_ngg::{GraphSimilarities, NGramGraphBuilder};
///
/// let builder = NGramGraphBuilder::default(); // paper config: 4/4
/// let a = builder.build("no prescription needed");
/// let b = builder.build("no prescription required");
/// let sims = GraphSimilarities::compute(&a, &b);
/// assert!(sims.cs > 0.5); // heavily shared character structure
/// ```
#[derive(Debug, Clone, Copy)]
pub struct NGramGraphBuilder {
    rank: usize,
    window: usize,
}

impl Default for NGramGraphBuilder {
    /// The paper's configuration: `Lmin = Lmax = Dwin = 4`.
    fn default() -> Self {
        NGramGraphBuilder {
            rank: NGRAM_RANK,
            window: WINDOW,
        }
    }
}

impl NGramGraphBuilder {
    /// Creates a builder with explicit n-gram rank and window size.
    ///
    /// # Panics
    /// Panics if `rank == 0` or `window == 0`.
    pub fn new(rank: usize, window: usize) -> Self {
        assert!(rank > 0, "n-gram rank must be positive");
        assert!(window > 0, "window must be positive");
        NGramGraphBuilder { rank, window }
    }

    /// The n-gram rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// The co-occurrence window (in character positions).
    pub fn window(&self) -> usize {
        self.window
    }

    /// Builds the n-gram graph of `text`. Texts shorter than the rank
    /// produce an empty graph; a text with exactly one n-gram produces a
    /// single vertex and no edges.
    pub fn build(&self, text: &str) -> NGramGraph {
        let mut grams = GramTable::default();
        // Byte offsets of char boundaries let us slice n-grams without
        // allocating per window.
        let boundaries: Vec<usize> = text
            .char_indices()
            .map(|(i, _)| i)
            .chain(std::iter::once(text.len()))
            .collect();
        let n_chars = boundaries.len() - 1;
        if n_chars < self.rank {
            return NGramGraph::freeze(grams, []);
        }
        let n_grams = n_chars - self.rank + 1;
        let ids: Vec<u32> = (0..n_grams)
            .map(|start| grams.intern(&text[boundaries[start]..boundaries[start + self.rank]]))
            .collect();
        let mut pairs: Vec<u64> =
            Vec::with_capacity(n_grams.saturating_mul(self.window.min(n_grams)));
        for (pos, &from) in ids.iter().enumerate() {
            let end = (pos + self.window).min(n_grams - 1);
            pairs.extend(ids[pos + 1..=end].iter().map(|&to| edge_key(from, to)));
        }
        pairs.sort_unstable();
        let edges = pairs.chunk_by(|a, b| a == b).map(|run| {
            let (from, to) = edge_of(run[0]);
            (from, to, run.len() as f64)
        });
        NGramGraph::freeze(grams, edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_text_empty_graph() {
        let b = NGramGraphBuilder::default();
        assert!(b.build("abc").is_empty());
        assert!(b.build("").is_empty());
    }

    #[test]
    fn single_ngram_has_node_no_edges() {
        let b = NGramGraphBuilder::default();
        let g = b.build("abcd");
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn adjacent_ngrams_connected() {
        let b = NGramGraphBuilder::new(2, 1);
        // "abc" → grams "ab", "bc"; window 1 → edge ab→bc only.
        let g = b.build("abc");
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.edge_weight_by_name("ab", "bc"), Some(1.0));
        assert_eq!(g.edge_weight_by_name("bc", "ab"), None);
    }

    #[test]
    fn window_reaches_farther_grams() {
        let b = NGramGraphBuilder::new(2, 2);
        // "abcd" → grams ab, bc, cd. ab→bc, ab→cd, bc→cd.
        let g = b.build("abcd");
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.edge_weight_by_name("ab", "cd"), Some(1.0));
    }

    #[test]
    fn repetition_increases_weight() {
        let b = NGramGraphBuilder::new(1, 1);
        // "abab": grams a,b,a,b → edges a→b (x2), b→a (x1).
        let g = b.build("abab");
        assert_eq!(g.edge_weight_by_name("a", "b"), Some(2.0));
        assert_eq!(g.edge_weight_by_name("b", "a"), Some(1.0));
    }

    #[test]
    fn identical_texts_identical_graphs() {
        let b = NGramGraphBuilder::default();
        let g1 = b.build("no prescription needed viagra");
        let g2 = b.build("no prescription needed viagra");
        assert_eq!(g1.edge_count(), g2.edge_count());
        for (f, t, w) in g1.iter_edges() {
            assert_eq!(g2.edge_weight_by_name(f, t), Some(w));
        }
    }

    #[test]
    fn unicode_boundaries_respected() {
        let b = NGramGraphBuilder::new(2, 1);
        // Must not panic on multi-byte chars and must slice on char bounds.
        let g = b.build("naïveté");
        assert!(g.node_count() > 0);
        assert!(g.gram_id("aï").is_some());
    }

    #[test]
    fn default_is_paper_config() {
        let b = NGramGraphBuilder::default();
        assert_eq!(b.rank(), 4);
        assert_eq!(b.window(), 4);
    }

    #[test]
    #[should_panic(expected = "rank must be positive")]
    fn zero_rank_panics() {
        NGramGraphBuilder::new(0, 1);
    }
}
