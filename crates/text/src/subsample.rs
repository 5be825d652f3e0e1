//! Term subsampling (§4.1, Summarization).
//!
//! The paper evaluates classifiers on the full summary document and on
//! random subsamples of 100, 250, 1000, and 2000 terms. Subsampling picks
//! term *occurrences* uniformly at random without replacement, preserving
//! their original order — so the subsample keeps both the relative term
//! frequencies and (for the n-gram-graph model) local term order.

use rand::rngs::SmallRng;
use rand::seq::index::sample;
use rand::SeedableRng;
use std::borrow::Cow;

/// The subsample sizes used throughout the paper's evaluation; `None`
/// denotes the full document ("All").
pub const PAPER_SUBSAMPLE_SIZES: &[Option<usize>] =
    &[Some(100), Some(250), Some(1000), Some(2000), None];

/// The positions of the term occurrences a subsample of `size` keeps of
/// a document of `len` terms, in draw order: `n` positions drawn
/// uniformly without replacement, or `None` when `size` is `None` or
/// the document has at most `n` terms and is kept whole. The one draw
/// behind [`subsample_terms`] and [`subsample_opt`], for callers that
/// only count the kept terms and need neither their order nor a copy.
pub fn subsample_indices(len: usize, size: Option<usize>, seed: u64) -> Option<Vec<usize>> {
    let n = size?;
    (len > n).then(|| sample(&mut SmallRng::seed_from_u64(seed), len, n).into_vec())
}

/// Returns `n` term occurrences of `tokens` chosen uniformly at random
/// without replacement, in original document order. If the document has at
/// most `n` terms it is returned unchanged, as a borrow.
pub fn subsample_terms(tokens: &[String], n: usize, seed: u64) -> Cow<'_, [String]> {
    let Some(mut indices) = subsample_indices(tokens.len(), Some(n), seed) else {
        return Cow::Borrowed(tokens);
    };
    indices.sort_unstable();
    Cow::Owned(indices.into_iter().map(|i| tokens[i].clone()).collect())
}

/// Applies [`subsample_terms`] when `size` is `Some(n)`, otherwise returns
/// the full document as a borrow — mirroring the "#Terms ∈ {100, …, All}"
/// axis of the paper's tables.
pub fn subsample_opt(tokens: &[String], size: Option<usize>, seed: u64) -> Cow<'_, [String]> {
    match size {
        Some(n) => subsample_terms(tokens, n, seed),
        None => Cow::Borrowed(tokens),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("t{i}")).collect()
    }

    #[test]
    fn short_documents_unchanged() {
        let d = doc(5);
        assert_eq!(*subsample_terms(&d, 10, 1), d);
        assert_eq!(*subsample_terms(&d, 5, 1), d);
    }

    #[test]
    fn exact_size_returned() {
        let d = doc(100);
        assert_eq!(subsample_terms(&d, 25, 7).len(), 25);
    }

    #[test]
    fn preserves_document_order() {
        let d = doc(50);
        let s = subsample_terms(&d, 20, 3);
        let positions: Vec<usize> = s.iter().map(|t| t[1..].parse::<usize>().unwrap()).collect();
        assert!(positions.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn deterministic_per_seed() {
        let d = doc(200);
        assert_eq!(subsample_terms(&d, 40, 9), subsample_terms(&d, 40, 9));
        assert_ne!(subsample_terms(&d, 40, 9), subsample_terms(&d, 40, 10));
    }

    #[test]
    fn without_replacement() {
        let d = doc(30);
        let mut s = subsample_terms(&d, 30, 2).into_owned();
        s.sort();
        s.dedup();
        assert_eq!(s.len(), 30);
    }

    #[test]
    fn opt_none_is_identity() {
        let d = doc(10);
        assert_eq!(*subsample_opt(&d, None, 1), d);
        assert_eq!(subsample_opt(&d, Some(3), 1).len(), 3);
    }

    #[test]
    fn indices_are_the_kept_positions() {
        let d = doc(40);
        assert_eq!(subsample_indices(40, None, 3), None);
        assert_eq!(subsample_indices(40, Some(40), 3), None);
        let mut indices = subsample_indices(40, Some(12), 3).unwrap();
        indices.sort_unstable();
        let kept: Vec<String> = indices.iter().map(|&i| d[i].clone()).collect();
        assert_eq!(*subsample_terms(&d, 12, 3), kept);
    }
}
