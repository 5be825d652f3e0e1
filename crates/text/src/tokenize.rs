//! Letter tokenization with lowercasing.
//!
//! The original system preprocesses with Apache Lucene 3.4 (§4.1); its
//! `StopAnalyzer` is a `LetterTokenizer` + `LowerCaseFilter` + stop filter.
//! A letter tokenizer emits maximal runs of alphabetic characters, so
//! `"FDA-approved 100mg"` tokenizes to `["fda", "approved", "mg"]`.

/// Splits `text` into lowercased maximal runs of alphabetic characters.
///
/// ASCII characters are classified by byte tests: a letter is pushed as
/// its ASCII lowercase and any other ASCII character ends the token. On
/// ASCII, `char::is_alphabetic` and `char::to_lowercase` agree with
/// those tests, so the fast path changes no token. Every other character
/// takes the Unicode path.
pub fn tokenize(text: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut current = String::new();
    for ch in text.chars() {
        if ch.is_ascii_alphabetic() {
            current.push(ch.to_ascii_lowercase());
        } else if !ch.is_ascii() && ch.is_alphabetic() {
            // Some lowercase expansions contain non-alphabetic combining
            // marks (İ → "i\u{307}"); drop those so tokens stay purely
            // alphabetic.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_on_non_letters() {
        assert_eq!(
            tokenize("FDA-approved 100mg pills!"),
            vec!["fda", "approved", "mg", "pills"]
        );
    }

    #[test]
    fn empty_input() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("123 456 !!!").is_empty());
    }

    #[test]
    fn lowercases() {
        assert_eq!(tokenize("Viagra CIALIS"), vec!["viagra", "cialis"]);
    }

    #[test]
    fn handles_unicode_letters() {
        assert_eq!(tokenize("naïve café"), vec!["naïve", "café"]);
    }

    #[test]
    fn trailing_token_emitted() {
        assert_eq!(tokenize("prescription"), vec!["prescription"]);
    }

    #[test]
    fn apostrophes_split() {
        // LetterTokenizer splits on apostrophes too.
        assert_eq!(tokenize("don't"), vec!["don", "t"]);
    }
}
