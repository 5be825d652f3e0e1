//! Property-based tests for the text pipeline.

use pharmaverify_text::{
    is_stopword, preprocess, subsample_terms, tokenize, SparseVector, TfIdfModel, Vocabulary,
};
use proptest::prelude::*;

fn tokens(max: usize) -> impl Strategy<Value = Vec<String>> {
    prop::collection::vec("[a-z]{1,8}", 0..max)
}

proptest! {
    /// Tokens are always lowercase, non-empty, and purely alphabetic.
    #[test]
    fn tokenize_invariants(input in ".{0,300}") {
        for token in tokenize(&input) {
            prop_assert!(!token.is_empty());
            prop_assert!(token.chars().all(|c| c.is_alphabetic()));
            // Lowercasing is a fixed point (some uppercase letters, e.g.
            // 𝔸, have no lowercase mapping and pass through unchanged).
            prop_assert_eq!(&token.to_lowercase(), &token);
        }
    }

    /// Preprocessing output is a subsequence of tokenization output with
    /// no stop words.
    #[test]
    fn preprocess_is_filtered_tokenize(input in "[a-zA-Z .,]{0,200}") {
        let processed = preprocess(&input);
        let raw = tokenize(&input);
        prop_assert!(processed.len() <= raw.len());
        prop_assert!(processed.iter().all(|t| !is_stopword(t)));
        // Subsequence check.
        let mut it = raw.iter();
        for p in &processed {
            prop_assert!(it.any(|r| r == p), "{p} not in order");
        }
    }

    /// Subsampling returns exactly min(n, len) terms, in document order,
    /// each a copy of some original occurrence.
    #[test]
    fn subsample_size_and_membership(doc in tokens(80), n in 0usize..100, seed in any::<u64>()) {
        let sample = subsample_terms(&doc, n, seed);
        prop_assert_eq!(sample.len(), n.min(doc.len()));
        // Every sampled term occurs at least as often in the original.
        for term in sample.iter() {
            let in_sample = sample.iter().filter(|t| *t == term).count();
            let in_doc = doc.iter().filter(|t| *t == term).count();
            prop_assert!(in_sample <= in_doc);
        }
    }

    /// Vocabulary ids round-trip for every fitted term.
    #[test]
    fn vocabulary_round_trip(docs in prop::collection::vec(tokens(20), 0..8)) {
        let vocab = Vocabulary::build(&docs);
        for (id, term) in vocab.iter() {
            prop_assert_eq!(vocab.id(term), Some(id));
        }
        // Document frequency never exceeds the number of documents.
        for (id, _) in vocab.iter() {
            prop_assert!(vocab.doc_freq(id) as usize <= vocab.n_docs());
        }
    }

    /// TF-IDF vectors only contain non-negative weights over the fitted
    /// vocabulary, and the normalized variant has norm ≤ 1 + ε.
    #[test]
    fn tfidf_invariants(
        train in prop::collection::vec(tokens(20), 1..8),
        probe in tokens(20),
    ) {
        let model = TfIdfModel::fit(&train);
        let v = model.transform(&probe);
        for (i, w) in v.iter() {
            prop_assert!(w > 0.0);
            prop_assert!((i as usize) < model.vocabulary().len());
        }
        let n = model.transform_normalized(&probe).norm();
        prop_assert!(n == 0.0 || (n - 1.0).abs() < 1e-9);
    }

    /// Sparse vector algebra agrees with the dense reference
    /// implementation.
    #[test]
    fn sparse_matches_dense(
        a in prop::collection::vec(-5.0f64..5.0, 0..12),
        b in prop::collection::vec(-5.0f64..5.0, 0..12),
    ) {
        let dim = a.len().max(b.len());
        let mut ad = a.clone();
        ad.resize(dim, 0.0);
        let mut bd = b.clone();
        bd.resize(dim, 0.0);
        let sa = SparseVector::from_dense(&ad);
        let sb = SparseVector::from_dense(&bd);

        let dot_ref: f64 = ad.iter().zip(&bd).map(|(x, y)| x * y).sum();
        prop_assert!((sa.dot(&sb) - dot_ref).abs() < 1e-9);

        let dist_ref: f64 = ad.iter().zip(&bd).map(|(x, y)| (x - y) * (x - y)).sum();
        prop_assert!((sa.distance_sq(&sb) - dist_ref).abs() < 1e-9);

        let sum = sa.add(&sb);
        for j in 0..dim {
            prop_assert!((sum.get(j as u32) - (ad[j] + bd[j])).abs() < 1e-9);
        }

        let norm_ref = ad.iter().map(|x| x * x).sum::<f64>().sqrt();
        prop_assert!((sa.norm() - norm_ref).abs() < 1e-9);
    }

    /// Counting occurrences builds the vector that summing one
    /// `(index, 1.0)` pair per occurrence builds, bit for bit.
    #[test]
    fn occurrence_counts_match_pairs_of_ones(indices in prop::collection::vec(0u32..24, 0..80)) {
        let ones: Vec<(u32, f64)> = indices.iter().map(|&i| (i, 1.0)).collect();
        prop_assert_eq!(
            SparseVector::from_occurrences(indices),
            SparseVector::from_pairs(ones)
        );
    }
}
