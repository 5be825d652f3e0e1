//! Differential test of the served text vector against the path it
//! replaced: copy the subsample in document order, then count or
//! transform it. The served path counts the borrowed tokens at the drawn
//! positions, in draw order ([`subsample_indices`] and
//! [`TfIdfModel::count_terms`]). Term counts and TF-IDF weights must be
//! equal to the bit. CI runs this file at `PROPTEST_CASES=1000`.

use pharmaverify_text::subsample::subsample_indices;
use pharmaverify_text::{SparseVector, TfIdfModel};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::seq::index::sample;
use rand::SeedableRng;

/// `n` occurrences drawn without replacement and copied in document
/// order, or a copy of the whole document when it has at most `n` (or
/// `None`).
fn reference_subsample(tokens: &[String], size: Option<usize>, seed: u64) -> Vec<String> {
    match size {
        Some(n) if tokens.len() > n => {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut indices = sample(&mut rng, tokens.len(), n).into_vec();
            indices.sort_unstable();
            indices.into_iter().map(|i| tokens[i].clone()).collect()
        }
        _ => tokens.to_vec(),
    }
}

/// The served counts: the borrowed tokens at the drawn positions, or the
/// whole document.
fn served_counts(
    model: &TfIdfModel,
    tokens: &[String],
    size: Option<usize>,
    seed: u64,
) -> SparseVector {
    match subsample_indices(tokens.len(), size, seed) {
        Some(kept) => model.count_terms(kept.into_iter().map(|i| tokens[i].as_str())),
        None => model.term_counts(tokens),
    }
}

fn bits(v: &SparseVector) -> Vec<(u32, u64)> {
    v.iter().map(|(i, x)| (i, x.to_bits())).collect()
}

/// Terms over a small alphabet, so documents repeat terms and the
/// training documents miss some of them.
fn document(max: usize) -> impl Strategy<Value = Vec<String>> {
    prop::collection::vec("[a-f]{1,3}", 0..max)
}

proptest! {
    #[test]
    fn served_counts_and_weights_match_the_copied_subsample(
        training in prop::collection::vec(document(40), 1..6),
        doc in document(90),
        below in 0usize..8,
        seed in any::<u64>(),
    ) {
        let model = TfIdfModel::fit(&training);
        // Sizes around the document's length: below it, at it, above it.
        let n = doc.len().saturating_sub(below);
        for size in [None, Some(n), Some(doc.len()), Some(doc.len() + 1), Some(n / 2)] {
            let reference = reference_subsample(&doc, size, seed);
            let counts = served_counts(&model, &doc, size, seed);
            prop_assert_eq!(bits(&counts), bits(&model.term_counts(&reference)));
            prop_assert_eq!(
                bits(&model.weigh(counts.iter())),
                bits(&model.transform(&reference))
            );
        }
    }
}
