//! Document → n-gram graph extraction.
//!
//! The text is scanned as a sequence of overlapping character n-grams
//! (rank `Lmin = Lmax`). Each n-gram is connected to the n-grams that
//! start within the next `Dwin` character positions — the "sliding window"
//! co-occurrence of §4.1.2 — and each co-occurrence adds 1 to the directed
//! edge's weight.
//!
//! Construction interns the grams into a table sized once from the
//! text and then writes each source's row directly, with no sort. An
//! ASCII text's grams are read by byte offset and, up to 7 bytes, found
//! by their packed bytes; any other text is cut at char boundaries. A
//! counting sort lists every gram's positions, grouped by gram id.
//! Visiting the targets in ascending id order, and for each of its
//! positions the `Dwin` positions before it, hands every source its
//! in-window pairs in ascending target order, so a source's repeated
//! target always continues its latest edge. One visit counts each
//! row's distinct targets, and a second fills the exactly sized rows,
//! adding 1 to an edge's `u32` count per repeat. Ids, edge order and
//! counts are those of sorting every packed
//! `(from, to)` pair and counting runs, without materializing the
//! pairs: scratch memory is a few words per text position and per gram.

use crate::graph::{EdgeTable, NGramGraph};
use crate::intern::{packed_words, GramTable, WORD_BYTES};
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
    ///
    /// # Panics
    /// Panics if the text holds more in-window gram pairs than a `u32`
    /// edge count can hold (over 4·10⁹).
    pub fn build(&self, text: &str) -> NGramGraph {
        let ascii = text.is_ascii();
        let n_chars = if ascii {
            text.len()
        } else {
            text.chars().count()
        };
        if n_chars < self.rank {
            let table = EdgeTable::from_rows(
                GramTable::default(),
                vec![0],
                Vec::new(),
                Vec::new(),
                [1],
                [0],
            );
            return NGramGraph { table };
        }
        let n_grams = n_chars - self.rank + 1;
        assert!(
            n_grams.saturating_mul(self.window.min(n_grams)) <= u32::MAX as usize,
            "text too long for u32 edge counts"
        );
        let mut grams = GramTable::with_capacity(n_grams);
        let ids: Vec<u32> = if ascii && self.rank <= WORD_BYTES {
            // An ASCII text's gram `k` is bytes `k..k + rank`.
            packed_words(text.as_bytes(), self.rank)
                .enumerate()
                .map(|(k, word)| grams.intern_word(word, &text[k..k + self.rank]))
                .collect()
        } else {
            // Gram `k` spans from the `k`-th char boundary to the
            // `(k + rank)`-th, the end of the text counting as the last.
            let starts = text.char_indices().map(|(i, _)| i);
            let ends = starts.clone().skip(self.rank).chain([text.len()]);
            starts
                .zip(ends)
                .map(|(start, end)| grams.intern(&text[start..end]))
                .collect()
        };
        let n = grams.len();
        // `occurrences[at[g]..at[g + 1]]`: the positions of gram `g`.
        let mut at = vec![0usize; n + 1];
        for &id in &ids {
            at[id as usize + 1] += 1;
        }
        for g in 0..n {
            at[g + 1] += at[g];
        }
        let mut occurrences = vec![0usize; n_grams];
        let mut cursor = at.clone();
        for (pos, &id) in ids.iter().enumerate() {
            occurrences[cursor[id as usize]] = pos;
            cursor[id as usize] += 1;
        }
        // `last[f]`: the target of source `f`'s latest edge so far.
        const NONE: u32 = u32::MAX;
        let mut last = vec![NONE; n];
        let mut offsets = vec![0usize; n + 1];
        for_each_pair(&ids, &occurrences, &at, self.window, |from, to| {
            if last[from] != to {
                last[from] = to;
                offsets[from + 1] += 1;
            }
        });
        for f in 0..n {
            offsets[f + 1] += offsets[f];
        }
        let edges = offsets[n];
        let mut targets = vec![0u32; edges];
        let mut counts = vec![[0u32]; edges];
        let mut end = offsets.clone();
        last.fill(NONE);
        for_each_pair(&ids, &occurrences, &at, self.window, |from, to| {
            if last[from] != to {
                last[from] = to;
                targets[end[from]] = to;
                end[from] += 1;
            }
            counts[end[from] - 1][0] += 1;
        });
        let table = EdgeTable::from_rows(grams, offsets, targets, counts, [1], [edges]);
        NGramGraph { table }
    }
}

/// Calls `visit(from, to)` for every in-window pair of gram ids,
/// grouped by target in ascending id order: for each position of `to`
/// (`occurrences[at[to]..at[to + 1]]`), the `window` positions before
/// it, in text order.
fn for_each_pair(
    ids: &[u32],
    occurrences: &[usize],
    at: &[usize],
    window: usize,
    mut visit: impl FnMut(usize, u32),
) {
    for (to, span) in at.windows(2).enumerate() {
        for &pos in &occurrences[span[0]..span[1]] {
            for &from in &ids[pos.saturating_sub(window)..pos] {
                visit(from as usize, to as u32);
            }
        }
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
