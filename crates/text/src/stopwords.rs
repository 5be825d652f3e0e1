//! English stop words.
//!
//! The exact stop set of Lucene's `StopAnalyzer.ENGLISH_STOP_WORDS_SET`
//! (the analyzer family the original system used in version 3.4): 33 words.

/// Lucene `StopAnalyzer` English stop words, sorted for binary search.
pub const ENGLISH_STOP_WORDS: &[&str] = &[
    "a", "an", "and", "are", "as", "at", "be", "but", "by", "for", "if", "in", "into", "is", "it",
    "no", "not", "of", "on", "or", "such", "that", "the", "their", "then", "there", "these",
    "they", "this", "to", "was", "will", "with",
];

/// The length in bytes of the longest stop word ("their", "there",
/// "these"): a longer term is no stop word, whatever its letters.
const MAX_STOP_WORD_LEN: usize = 5;

/// True when `term` (already lowercased) is in the stop set. A term
/// longer than [`MAX_STOP_WORD_LEN`] bytes is rejected before the
/// binary search.
pub fn is_stopword(term: &str) -> bool {
    term.len() <= MAX_STOP_WORD_LEN && ENGLISH_STOP_WORDS.binary_search(&term).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stop_set_is_sorted_and_unique() {
        for w in ENGLISH_STOP_WORDS.windows(2) {
            assert!(w[0] < w[1], "{} !< {}", w[0], w[1]);
        }
    }

    #[test]
    fn recognizes_stop_words() {
        for w in ["the", "a", "with", "will", "into"] {
            assert!(is_stopword(w), "{w} should be a stop word");
        }
    }

    #[test]
    fn content_words_pass() {
        for w in ["viagra", "prescription", "pharmacy", "fda", "refill"] {
            assert!(!is_stopword(w), "{w} should not be a stop word");
        }
    }

    #[test]
    fn has_exactly_33_words() {
        assert_eq!(ENGLISH_STOP_WORDS.len(), 33);
    }

    #[test]
    fn length_gate_is_the_longest_stop_word() {
        let longest = ENGLISH_STOP_WORDS.iter().map(|w| w.len()).max();
        assert_eq!(longest, Some(MAX_STOP_WORD_LEN));
        for w in ENGLISH_STOP_WORDS {
            assert!(is_stopword(w), "{w} should pass the length gate");
        }
    }
}
