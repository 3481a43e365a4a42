//! Document scoring functions.
//!
//! The paper scores documents "using a standard tf-idf score function
//! with document length normalization" (§5.1, citing Baeza-Yates &
//! Ribeiro-Neto) and stores term scores "in the posting lists as
//! integers, scaled by 10⁶ and rounded" (§5.2). The overall document
//! score is the plain sum of its per-term scores (§2):
//! `score(D, q) = Σᵢ ts(D, tᵢ)`.

use crate::types::{CorpusStats, DocId, TermId};

/// Integer scale factor applied to floating-point term scores (§5.2).
pub const SCORE_SCALE: f64 = 1_000_000.0;

/// A per-term document scoring function producing the integer term
/// scores `ts(D, tᵢ)` that are stored in posting lists.
///
/// A score factors into a part that depends on the term alone and a
/// part that depends on the document alone, so an index build computes
/// each once and only [`combine`](Scorer::combine)s per posting.
pub trait Scorer: Send + Sync {
    /// Integer term score of a document for one term, computed from
    /// scratch: the reference the factored form must equal bit for bit.
    ///
    /// * `tf` — frequency of the term in the document (≥ 1),
    /// * `doc` — document id (used for length lookup),
    /// * `term` — term id (used for document-frequency lookup).
    fn term_score(&self, tf: u32, doc: DocId, term: TermId, stats: &CorpusStats) -> u32;

    /// The factor that depends on the term alone.
    fn term_factor(&self, term: TermId, stats: &CorpusStats) -> f64;

    /// The factor that depends on the document alone.
    fn doc_factor(&self, doc: DocId, stats: &CorpusStats) -> f64;

    /// A posting's score from its `tf` and the two factors; equal to
    /// [`term_score`](Scorer::term_score) bit for bit.
    fn combine(&self, tf: u32, term_factor: f64, doc_factor: f64) -> u32;

    /// Human-readable scorer name for logs and experiment records.
    fn name(&self) -> &'static str;
}

/// Classic tf-idf with cosine-style document length normalization:
///
/// ```text
/// ts(D, t) = round( SCALE · (1 + ln tf) · ln(1 + N / df(t)) / sqrt(dl(D) / avgdl) )
/// ```
///
/// The `(1 + ln tf)` dampening, idf and `sqrt`-of-length pivot are the
/// standard components of the Lucene-era tf-idf family the paper's
/// preprocessing pipeline produces. The term factor is the idf, the
/// document factor the length norm.
#[derive(Debug, Clone, Copy, Default)]
pub struct TfIdfScorer;

impl Scorer for TfIdfScorer {
    fn term_score(&self, tf: u32, doc: DocId, term: TermId, stats: &CorpusStats) -> u32 {
        debug_assert!(tf >= 1, "a posting implies at least one occurrence");
        let df = f64::from(stats.df(term)).max(1.0);
        let n = stats.num_docs as f64;
        let dl = f64::from(stats.dl(doc)).max(1.0);
        let avgdl = stats.avg_doc_len.max(1.0);
        let tf_part = 1.0 + f64::from(tf).ln();
        let idf = (1.0 + n / df).ln();
        let norm = (dl / avgdl).sqrt();
        let score = SCORE_SCALE * tf_part * idf / norm;
        // Clamp into u32; real scores are ~1e6–1e8, far below the limit.
        score.round().clamp(1.0, f64::from(u32::MAX)) as u32
    }

    fn term_factor(&self, term: TermId, stats: &CorpusStats) -> f64 {
        let df = f64::from(stats.df(term)).max(1.0);
        let n = stats.num_docs as f64;
        (1.0 + n / df).ln()
    }

    fn doc_factor(&self, doc: DocId, stats: &CorpusStats) -> f64 {
        let dl = f64::from(stats.dl(doc)).max(1.0);
        let avgdl = stats.avg_doc_len.max(1.0);
        (dl / avgdl).sqrt()
    }

    fn combine(&self, tf: u32, idf: f64, norm: f64) -> u32 {
        debug_assert!(tf >= 1, "a posting implies at least one occurrence");
        let tf_part = 1.0 + f64::from(tf).ln();
        let score = SCORE_SCALE * tf_part * idf / norm;
        score.round().clamp(1.0, f64::from(u32::MAX)) as u32
    }

    fn name(&self) -> &'static str {
        "tfidf"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> CorpusStats {
        let mut s = CorpusStats {
            doc_freq: vec![100, 2, 50],
            doc_len: vec![100, 400, 25],
            ..Default::default()
        };
        s.num_docs = 1000; // pretend there are more docs than we track lengths for
        s.avg_doc_len = 100.0;
        s
    }

    #[test]
    fn rarer_terms_score_higher() {
        let s = stats();
        let sc = TfIdfScorer;
        let common = sc.term_score(1, 0, 0, &s); // df=100
        let rare = sc.term_score(1, 0, 1, &s); // df=2
        assert!(rare > common, "idf must favour rare terms");
    }

    #[test]
    fn higher_tf_scores_higher() {
        let s = stats();
        let sc = TfIdfScorer;
        assert!(sc.term_score(10, 0, 0, &s) > sc.term_score(1, 0, 0, &s));
    }

    #[test]
    fn longer_docs_are_normalized_down() {
        let s = stats();
        let sc = TfIdfScorer;
        let short = sc.term_score(1, 2, 0, &s); // dl=25
        let long = sc.term_score(1, 1, 0, &s); // dl=400
        assert!(short > long, "length normalization must penalize long docs");
    }

    #[test]
    fn scores_are_positive_integers() {
        let s = stats();
        for tf in [1, 3, 100] {
            for (doc, term) in [(0u32, 0u32), (1, 1), (2, 2)] {
                assert!(TfIdfScorer.term_score(tf, doc, term, &s) >= 1);
            }
        }
    }

    #[test]
    fn factored_scores_equal_the_reference() {
        let s = stats();
        for tf in [1, 2, 3, 7, 100] {
            for doc in [0, 1, 2, 9999] {
                for term in [0, 1, 2, 9999] {
                    let (idf, norm) = (
                        TfIdfScorer.term_factor(term, &s),
                        TfIdfScorer.doc_factor(doc, &s),
                    );
                    assert_eq!(
                        TfIdfScorer.combine(tf, idf, norm),
                        TfIdfScorer.term_score(tf, doc, term, &s)
                    );
                }
            }
        }
    }

    #[test]
    fn unknown_term_and_doc_do_not_panic() {
        let s = stats();
        // df() and dl() return 0 for out-of-range ids; the scorer must
        // degrade gracefully (df clamped to 1, dl clamped to 1).
        let v = TfIdfScorer.term_score(1, 9999, 9999, &s);
        assert!(v >= 1);
    }
}
