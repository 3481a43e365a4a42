//! Exhaustive ground truth for recall measurement.
//!
//! Recall is "the fraction of L included in A" where L is the exact
//! top-k list (§2). The oracle computes L by brute force: it
//! accumulates every posting of every query term into a dense
//! per-document score table and selects the top k. O(N + Σ df(tᵢ))
//! time, O(N) space — far too slow to serve queries, exactly right
//! for verifying the algorithms that do.

#![expect(
    clippy::disallowed_types,
    reason = "ground truth for recall, never on a measured path"
)]

use crate::result::{finalize_hits, SearchHit};
use sparta_collections::BoundedTopK;
use sparta_corpus::types::{DocId, Query};
use sparta_index::Index;

/// Ground truth for one query: full scores of all matching documents
/// plus the exact top-k.
pub struct Oracle {
    k: usize,
    /// Dense accumulator: full score per document id.
    scores: Vec<u64>,
    topk: Vec<SearchHit>,
}

impl Oracle {
    /// Computes ground truth by exhaustively scoring `query` against
    /// `index`.
    pub fn compute(index: &dyn Index, query: &Query, k: usize) -> Self {
        let mut scores = vec![0u64; index.num_docs() as usize];
        for &t in &query.terms {
            let mut c = index.doc_cursor(t);
            while let Some(d) = c.doc() {
                scores[d as usize] += u64::from(c.score());
                c.advance();
            }
        }
        let mut heap = BoundedTopK::new(k.max(1));
        for (d, &s) in scores.iter().enumerate() {
            if s > 0 {
                heap.offer(s, d as DocId);
            }
        }
        let topk = finalize_hits(
            heap.into_sorted_vec()
                .into_iter()
                .map(|e| SearchHit {
                    doc: e.item,
                    score: e.score,
                })
                .collect(),
            k,
        );
        Self { k, scores, topk }
    }

    /// The exact top-k, in rank order.
    pub fn topk(&self) -> &[SearchHit] {
        &self.topk
    }

    /// k.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The true full score of a document (0 if it matches no term).
    pub fn score(&self, doc: DocId) -> u64 {
        self.scores.get(doc as usize).copied().unwrap_or(0)
    }

    /// The k-th best score (the exact threshold); 0 when fewer than k
    /// documents match.
    pub fn kth_score(&self) -> u64 {
        if self.topk.len() == self.k {
            self.topk.last().map_or(0, |h| h.score)
        } else {
            0
        }
    }

    /// Tie-aware recall of a result set: the fraction of `k` covered
    /// by returned documents whose *true* score is at least the k-th
    /// best true score. Tie-awareness matters with integer scores —
    /// any document tied at the boundary is as good as the one the
    /// oracle happened to keep.
    pub fn recall(&self, docs: &[DocId]) -> f64 {
        if self.topk.is_empty() {
            return 1.0;
        }
        let kth = self.topk.last().map_or(0, |h| h.score);
        let denom = self.topk.len() as f64;
        let mut seen = std::collections::HashSet::new();
        let good = docs
            .iter()
            .filter(|&&d| seen.insert(d) && self.score(d) >= kth && self.score(d) > 0)
            .count() as f64;
        (good / denom).min(1.0)
    }

    /// Strict set recall: |A ∩ L| / |L| (ignores ties). Provided for
    /// comparison with the tie-aware measure.
    pub fn strict_recall(&self, docs: &[DocId]) -> f64 {
        if self.topk.is_empty() {
            return 1.0;
        }
        let truth: std::collections::HashSet<DocId> = self.topk.iter().map(|h| h.doc).collect();
        let hit = docs.iter().filter(|d| truth.contains(d)).count();
        hit as f64 / truth.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparta_index::{InMemoryIndex, Posting};
    use std::sync::Arc;

    fn index() -> Arc<InMemoryIndex> {
        // doc scores for query {0,1}:
        //   doc0: 10+5=15, doc1: 20, doc2: 7+7=14, doc3: 1
        let t0 = vec![Posting::new(0, 10), Posting::new(1, 20), Posting::new(2, 7)];
        let t1 = vec![Posting::new(0, 5), Posting::new(2, 7), Posting::new(3, 1)];
        Arc::new(InMemoryIndex::from_term_postings(vec![t0, t1], 10))
    }

    #[test]
    fn computes_exact_topk() {
        let ix = index();
        let o = Oracle::compute(ix.as_ref(), &Query::new(vec![0, 1]), 2);
        assert_eq!(
            o.topk(),
            &[
                SearchHit { doc: 1, score: 20 },
                SearchHit { doc: 0, score: 15 }
            ]
        );
        assert_eq!(o.kth_score(), 15);
        assert_eq!(o.score(2), 14);
        assert_eq!(o.score(9), 0);
    }

    #[test]
    fn recall_measures_overlap() {
        let ix = index();
        let o = Oracle::compute(ix.as_ref(), &Query::new(vec![0, 1]), 2);
        assert_eq!(o.recall(&[1, 0]), 1.0);
        assert_eq!(o.recall(&[1, 2]), 0.5);
        assert_eq!(o.recall(&[3, 2]), 0.0);
        assert_eq!(o.strict_recall(&[1, 2]), 0.5);
    }

    #[test]
    fn recall_is_tie_aware() {
        // Two docs tied at the k-th score: either counts.
        let t0 = vec![
            Posting::new(0, 10),
            Posting::new(1, 10),
            Posting::new(2, 30),
        ];
        let ix = InMemoryIndex::from_term_postings(vec![t0], 5);
        let o = Oracle::compute(&ix, &Query::new(vec![0]), 2);
        // Truth keeps {2, one of 0/1}; both {2,0} and {2,1} are perfect.
        assert_eq!(o.recall(&[2, 0]), 1.0);
        assert_eq!(o.recall(&[2, 1]), 1.0);
        // Strict recall disagrees on one of them — that is why the
        // tie-aware measure exists.
        let strict_sum = o.strict_recall(&[2, 0]) + o.strict_recall(&[2, 1]);
        assert_eq!(strict_sum, 1.5);
    }

    #[test]
    fn duplicate_docs_counted_once() {
        let ix = index();
        let o = Oracle::compute(ix.as_ref(), &Query::new(vec![0, 1]), 2);
        assert_eq!(o.recall(&[1, 1]), 0.5);
    }

    #[test]
    fn fewer_matches_than_k() {
        let ix = index();
        let o = Oracle::compute(ix.as_ref(), &Query::new(vec![1]), 100);
        assert_eq!(o.topk().len(), 3, "only 3 docs match term 1");
        assert_eq!(o.kth_score(), 0);
        assert_eq!(o.recall(&[0, 2, 3]), 1.0);
    }
}
