//! The Term Vector model with TF-IDF weighting (§4.1.1).
//!
//! Each document is a vector over the fitted vocabulary. The weight of term
//! *t* in document *d* is `tf(t, d) · idf(t)`, with
//! `idf(t) = ln((1 + N) / (1 + df(t))) + 1` — the smoothed variant, which
//! is defined even for terms present in every document and never produces a
//! zero weight for a present term.
//!
//! [`TfIdfModel::transform`] keeps raw `tf · idf` magnitudes (as Weka's
//! `StringToWordVector` does by default): the multinomial naive Bayes
//! treats the weights as fractional occurrence counts, so shrinking them
//! with a norm would let the Laplace smoothing swamp the evidence. The
//! paper's term subsampling makes documents equal-length, so unnormalized
//! vectors are comparable across documents; an explicitly L2-normalized
//! variant is available as [`TfIdfModel::transform_normalized`].

use crate::sparse::SparseVector;
use crate::vocab::Vocabulary;

/// A fitted TF-IDF vectorizer.
///
/// # Examples
///
/// ```
/// use pharmaverify_text::{preprocess, TfIdfModel};
///
/// let docs: Vec<Vec<String>> = [
///     "cheap viagra no prescription",
///     "licensed pharmacist refills your prescription",
/// ]
/// .iter()
/// .map(|t| preprocess(t))
/// .collect();
/// let model = TfIdfModel::fit(&docs);
/// let v = model.transform(&preprocess("viagra without prescription"));
/// assert!(v.nnz() >= 2);
/// ```
#[derive(Debug, Clone)]
pub struct TfIdfModel {
    vocab: Vocabulary,
    idf: Vec<f64>,
}

impl TfIdfModel {
    /// Fits vocabulary and IDF weights on tokenized training documents.
    pub fn fit<D: AsRef<[String]>>(docs: &[D]) -> Self {
        let _span = pharmaverify_obs::global().span("text/tfidf/fit");
        let vocab = Vocabulary::build(docs);
        let n = vocab.n_docs() as f64;
        let idf = (0..vocab.len() as u32)
            .map(|id| ((1.0 + n) / (1.0 + vocab.doc_freq(id) as f64)).ln() + 1.0)
            .collect();
        TfIdfModel { vocab, idf }
    }

    /// The fitted vocabulary.
    pub fn vocabulary(&self) -> &Vocabulary {
        &self.vocab
    }

    /// IDF weight of the term with id `id`.
    pub fn idf(&self, id: u32) -> f64 {
        self.idf[id as usize]
    }

    /// Transforms a tokenized document into a raw `tf · idf` vector.
    /// Terms unseen at fit time are dropped (the standard convention for a
    /// fitted vectorizer applied to test data).
    pub fn transform(&self, doc: &[String]) -> SparseVector {
        self.weigh(self.term_counts(doc).iter())
    }

    /// Weighs a document's [`TfIdfModel::term_counts`], given as
    /// `(term id, count)` pairs, by idf: the `tf · idf` vector
    /// [`TfIdfModel::transform`] returns, for callers that keep a
    /// document's counts.
    pub fn weigh(&self, counts: impl IntoIterator<Item = (u32, f64)>) -> SparseVector {
        counts
            .into_iter()
            .map(|(id, tf)| (id, tf * self.idf[id as usize]))
            .collect()
    }

    /// [`TfIdfModel::transform`] followed by L2 normalization, for
    /// scale-sensitive consumers on variable-length documents.
    pub fn transform_normalized(&self, doc: &[String]) -> SparseVector {
        self.transform(doc).normalized()
    }

    /// Raw term-occurrence counts over the fitted vocabulary — the input
    /// representation for the multinomial naive Bayes classifier.
    pub fn term_counts(&self, doc: &[String]) -> SparseVector {
        self.count_terms(doc.iter().map(String::as_str))
    }

    /// [`TfIdfModel::term_counts`] of a document holding `terms`, in any
    /// order: counts do not depend on where a term occurs, so a caller
    /// can count a borrowed subsample in draw order without copying it.
    pub fn count_terms<'a>(&self, terms: impl IntoIterator<Item = &'a str>) -> SparseVector {
        SparseVector::from_occurrences(terms.into_iter().filter_map(|t| self.vocab.id(t)).collect())
    }

    /// Transforms a whole corpus.
    pub fn transform_all<D: AsRef<[String]>>(&self, docs: &[D]) -> Vec<SparseVector> {
        docs.iter().map(|d| self.transform(d.as_ref())).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn rare_terms_outweigh_common_terms() {
        let docs = vec![
            toks("viagra cheap cheap"),
            toks("cheap refill"),
            toks("cheap pharmacy"),
        ];
        let model = TfIdfModel::fit(&docs);
        let v = model.transform(&toks("viagra cheap"));
        let viagra = v.get(model.vocabulary().id("viagra").unwrap());
        let cheap = v.get(model.vocabulary().id("cheap").unwrap());
        assert!(
            viagra > cheap,
            "df=1 term should outweigh df=3 term: {viagra} vs {cheap}"
        );
    }

    #[test]
    fn normalized_vectors_are_unit_length() {
        let docs = vec![toks("a b c"), toks("a d")];
        let model = TfIdfModel::fit(&docs);
        for d in &docs {
            assert!((model.transform_normalized(d).norm() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn transform_scales_with_term_frequency() {
        let docs = vec![toks("a b"), toks("a c")];
        let model = TfIdfModel::fit(&docs);
        let once = model.transform(&toks("a"));
        let thrice = model.transform(&toks("a a a"));
        let id = model.vocabulary().id("a").unwrap();
        assert!((thrice.get(id) - 3.0 * once.get(id)).abs() < 1e-12);
    }

    #[test]
    fn unseen_terms_dropped() {
        let model = TfIdfModel::fit(&[toks("a b")]);
        let v = model.transform(&toks("zzz qqq"));
        assert!(v.is_empty());
    }

    #[test]
    fn term_counts_are_raw_occurrences() {
        let model = TfIdfModel::fit(&[toks("a b a")]);
        let counts = model.term_counts(&toks("a a b zzz"));
        assert_eq!(counts.get(model.vocabulary().id("a").unwrap()), 2.0);
        assert_eq!(counts.get(model.vocabulary().id("b").unwrap()), 1.0);
        assert_eq!(counts.sum(), 3.0); // zzz dropped
    }

    #[test]
    fn idf_is_positive_and_monotone_in_rarity() {
        let docs = vec![toks("a b"), toks("a c"), toks("a d")];
        let model = TfIdfModel::fit(&docs);
        let idf_a = model.idf(model.vocabulary().id("a").unwrap());
        let idf_b = model.idf(model.vocabulary().id("b").unwrap());
        assert!(idf_a > 0.0);
        assert!(idf_b > idf_a);
    }

    #[test]
    fn transform_all_matches_transform() {
        let docs = vec![toks("a b"), toks("b c")];
        let model = TfIdfModel::fit(&docs);
        let all = model.transform_all(&docs);
        assert_eq!(all[0], model.transform(&docs[0]));
        assert_eq!(all[1], model.transform(&docs[1]));
    }
}
