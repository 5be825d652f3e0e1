//! Differential tests of text preparation against small reference
//! implementations kept here.
//!
//! `tokenize` classifies ASCII characters with byte tests and
//! `is_stopword` rejects long terms before its binary search; the
//! references classify every character with `char::is_alphabetic`,
//! lowercase it with `char::to_lowercase`, and look stop words up by a
//! linear scan. `subsample_opt` borrows a document it leaves whole; the
//! reference always draws or copies. Every token and subsample must be
//! equal. CI runs this file at `PROPTEST_CASES=1000`.

use pharmaverify_text::stopwords::ENGLISH_STOP_WORDS;
use pharmaverify_text::subsample::subsample_opt;
use pharmaverify_text::{preprocess, tokenize};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::seq::index::sample;
use rand::SeedableRng;
use std::borrow::Cow;

/// Lowercased maximal runs of alphabetic characters, char by char.
fn reference_tokenize(text: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut current = String::new();
    for ch in text.chars() {
        if ch.is_alphabetic() {
            current.extend(ch.to_lowercase().filter(|c| c.is_alphabetic()));
        } else if !current.is_empty() {
            tokens.push(std::mem::take(&mut current));
        }
    }
    if !current.is_empty() {
        tokens.push(current);
    }
    tokens
}

/// The reference tokens without the stop words, found by linear scan.
fn reference_preprocess(text: &str) -> Vec<String> {
    let mut tokens = reference_tokenize(text);
    tokens.retain(|t| !ENGLISH_STOP_WORDS.contains(&t.as_str()));
    tokens
}

/// `n` occurrences drawn without replacement in document order, or a
/// copy of the whole document when it has at most `n` (or `None`).
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

/// Fragments the mixed inputs are built from: ASCII letters in both
/// cases, the punctuation next to the letter ranges, digits, every ASCII
/// whitespace (U+000B and U+000C too), U+0085 and U+00A0, letters whose
/// lowercase is not one char of the same length (`İ`, `ß`, `𝔸`), and
/// stop words and near stop words in mixed case.
const FRAGMENTS: &[&str] = &[
    "a", "Z", "q", "Viagra", "mG", "FDA", "0", "7", "100", "-", "'", ".", ",", "!", "@", "[", "`",
    "{", "_", "~", "\u{7f}", " ", "\t", "\n", "\r", "\u{0B}", "\u{0C}", "\u{85}", "\u{A0}", "İ",
    "ß", "𝔸", "é", "The", "THEIR", "tHeSe", "A", "Into", "wilL", "such", "thEre", "theirs", "thes",
    "WITH",
];

/// Strings of fragments and arbitrary ASCII characters (controls too).
fn mixed_text() -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..FRAGMENTS.len() + 128, 0..80).prop_map(|picks| {
        picks
            .into_iter()
            .map(|p| match FRAGMENTS.get(p) {
                Some(fragment) => (*fragment).to_string(),
                None => char::from((p - FRAGMENTS.len()) as u8).to_string(),
            })
            .collect()
    })
}

fn tokens(max: usize) -> impl Strategy<Value = Vec<String>> {
    prop::collection::vec("[a-z]{1,8}", 0..max)
}

proptest! {
    #[test]
    fn tokenize_matches_reference(input in mixed_text()) {
        prop_assert_eq!(tokenize(&input), reference_tokenize(&input));
    }

    #[test]
    fn tokenize_matches_reference_on_any_text(input in ".{0,300}") {
        prop_assert_eq!(tokenize(&input), reference_tokenize(&input));
    }

    #[test]
    fn preprocess_matches_reference(input in mixed_text()) {
        prop_assert_eq!(preprocess(&input), reference_preprocess(&input));
    }

    /// A document the subsample leaves whole is the caller's slice; any
    /// other subsample is the reference draw.
    #[test]
    fn subsample_borrows_whole_documents(
        doc in tokens(60),
        n in 0usize..80,
        seed in any::<u64>(),
    ) {
        for size in [None, Some(n)] {
            let sample = subsample_opt(&doc, size, seed);
            let whole = size.is_none_or(|n| doc.len() <= n);
            match &sample {
                Cow::Borrowed(slice) => {
                    prop_assert!(whole, "a draw of {size:?} from {} terms borrowed", doc.len());
                    prop_assert!(std::ptr::eq(*slice, doc.as_slice()));
                }
                Cow::Owned(_) => prop_assert!(!whole, "a whole document was copied"),
            }
            let reference = reference_subsample(&doc, size, seed);
            prop_assert_eq!(&*sample, reference.as_slice());
        }
    }
}

#[test]
fn fragments_cover_the_inputs_the_fast_path_must_route() {
    let joined: String = FRAGMENTS.concat();
    for ch in ['\u{0B}', '\u{0C}', '\u{85}', '\u{A0}', 'İ', 'ß', '𝔸'] {
        assert!(joined.contains(ch), "{ch:?} missing from the fragments");
    }
    assert_eq!(reference_tokenize("İß𝔸 \u{A0}x"), tokenize("İß𝔸 \u{A0}x"));
    assert_eq!(preprocess("THEIR theirs The"), vec!["theirs"]);
}
