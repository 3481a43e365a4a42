//! RAM-resident index implementation.
//!
//! Posting lists are plain contiguous arrays ("Posting lists are
//! stored as contiguous uncompressed arrays", §5.2) in both score
//! order and doc order, plus block-max metadata. Random access is a
//! binary search over the doc-ordered list — the in-memory analogue of
//! the paper's secondary docid→position index.

use crate::cursor::{DocCursor, RandomAccess, ScoreCursor, SliceScoreCursor};
use crate::posting::{self, BlockMeta, Posting, DEFAULT_BLOCK_SIZE};
use crate::{Index, IoStats};
use sparta_corpus::types::{DocId, TermId};
use std::sync::{Arc, OnceLock};

/// Per-term data: both orders plus block metadata.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TermData {
    /// Postings in decreasing-score order.
    pub score_order: Arc<Vec<Posting>>,
    /// Postings in increasing-doc order.
    pub doc_order: Arc<Vec<Posting>>,
    /// Block-max metadata over `doc_order`.
    pub blocks: Arc<Vec<BlockMeta>>,
    /// List-wide maximum score.
    pub max_score: u32,
}

impl TermData {
    /// Builds per-term data from postings in any order.
    pub fn from_postings(mut postings: Vec<Posting>, block_size: usize) -> Self {
        posting::sort_doc_order(&mut postings);
        let blocks = posting::build_blocks(&postings, block_size);
        let max_score = postings.iter().map(|p| p.score).max().unwrap_or(0);
        let mut score_order = postings.clone();
        posting::sort_score_order(&mut score_order);
        Self {
            score_order: Arc::new(score_order),
            doc_order: Arc::new(postings),
            blocks: Arc::new(blocks),
            max_score,
        }
    }
}

/// An entirely RAM-resident [`Index`].
pub struct InMemoryIndex {
    terms: Vec<TermData>,
    num_docs: u64,
    block_size: usize,
}

impl InMemoryIndex {
    /// Assembles an index from per-term posting vectors (any order).
    /// `terms[t]` becomes the posting list of term `t`; `num_docs` is a
    /// floor, raised to cover every id ([`Index::num_docs`]).
    pub fn from_term_postings(terms: Vec<Vec<Posting>>, num_docs: u64) -> Self {
        Self::with_block_size(terms, num_docs, DEFAULT_BLOCK_SIZE)
    }

    /// As [`from_term_postings`](Self::from_term_postings) with an
    /// explicit block size.
    pub fn with_block_size(terms: Vec<Vec<Posting>>, num_docs: u64, block_size: usize) -> Self {
        let terms = terms
            .into_iter()
            .map(|p| TermData::from_postings(p, block_size))
            .collect();
        Self::from_term_data(terms, num_docs, block_size)
    }

    /// Assembles an index from term data built with `block_size`;
    /// `num_docs` is a floor, as for
    /// [`from_term_postings`](Self::from_term_postings).
    pub(crate) fn from_term_data(terms: Vec<TermData>, num_docs: u64, block_size: usize) -> Self {
        let last_docs = terms
            .iter()
            .filter_map(|t| t.doc_order.last().map(|p| p.doc));
        Self {
            num_docs: crate::num_docs_covering(num_docs, last_docs),
            terms,
            block_size,
        }
    }

    /// Block size used for block-max metadata.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Direct access to a term's data (`None` for unknown terms; the
    /// [`Index`] methods serve those as empty lists).
    pub fn term_data(&self, term: TermId) -> Option<&TermData> {
        self.terms.get(term as usize)
    }

    /// A term's data, or the shared empty list for unknown terms.
    fn term_or_empty(&self, term: TermId) -> &TermData {
        static EMPTY: OnceLock<TermData> = OnceLock::new();
        self.term_data(term)
            .unwrap_or_else(|| EMPTY.get_or_init(TermData::default))
    }
}

impl Index for InMemoryIndex {
    fn num_docs(&self) -> u64 {
        self.num_docs
    }

    fn num_terms(&self) -> u32 {
        self.terms.len() as u32
    }

    fn doc_freq(&self, term: TermId) -> u64 {
        self.term_data(term).map_or(0, |t| t.doc_order.len() as u64)
    }

    fn score_cursor(&self, term: TermId) -> Box<dyn ScoreCursor> {
        let t = self.term_or_empty(term);
        Box::new(SliceScoreCursor::new(Arc::clone(&t.score_order)))
    }

    fn doc_cursor(&self, term: TermId) -> Box<dyn DocCursor> {
        let t = self.term_or_empty(term);
        Box::new(SliceDocCursor::new(t, self.block_size))
    }

    fn random_access(&self) -> Option<&dyn RandomAccess> {
        Some(self)
    }

    fn io_stats(&self) -> Option<&IoStats> {
        None
    }

    fn footprint(&self) -> Option<crate::IndexFootprint> {
        let mut f = crate::IndexFootprint::default();
        for t in &self.terms {
            // Both orders at 8 bytes per posting.
            f.posting_bytes += (t.score_order.len() + t.doc_order.len()) as u64 * 8;
            // Block directory + the list-wide max.
            f.metadata_bytes += t.blocks.len() as u64 * 8 + 4;
        }
        Some(f)
    }
}

impl RandomAccess for InMemoryIndex {
    fn term_score(&self, term: TermId, doc: DocId) -> u32 {
        match self.term_data(term) {
            Some(t) => match t.doc_order.binary_search_by_key(&doc, |p| p.doc) {
                Ok(i) => t.doc_order[i].score,
                Err(_) => 0,
            },
            None => 0,
        }
    }
}

/// A [`DocCursor`] over a term's shared doc-ordered postings and block
/// metadata.
pub(crate) struct SliceDocCursor {
    postings: Arc<Vec<Posting>>,
    blocks: Arc<Vec<BlockMeta>>,
    block_size: usize,
    max_score: u32,
    pos: usize,
}

impl SliceDocCursor {
    /// Opens a cursor on the first posting of `term`.
    pub(crate) fn new(term: &TermData, block_size: usize) -> Self {
        debug_assert!(posting::is_doc_ordered(&term.doc_order));
        debug_assert_eq!(term.blocks.len(), term.doc_order.len().div_ceil(block_size));
        Self {
            postings: Arc::clone(&term.doc_order),
            blocks: Arc::clone(&term.blocks),
            block_size,
            max_score: term.max_score,
            pos: 0,
        }
    }

    #[inline]
    fn block_idx(&self) -> usize {
        self.pos / self.block_size
    }
}

impl DocCursor for SliceDocCursor {
    #[inline]
    fn doc(&self) -> Option<DocId> {
        self.postings.get(self.pos).map(|p| p.doc)
    }

    #[inline]
    fn score(&self) -> u32 {
        self.postings.get(self.pos).map_or(0, |p| p.score)
    }

    fn advance(&mut self) -> Option<DocId> {
        if self.pos < self.postings.len() {
            self.pos += 1;
        }
        self.doc()
    }

    fn seek(&mut self, target: DocId) -> Option<DocId> {
        if let Some(d) = self.doc() {
            if d >= target {
                return Some(d);
            }
        } else {
            return None;
        }
        // Use block metadata to find the block, then binary search in it.
        let bi = self.blocks[self.block_idx()..].partition_point(|b| b.last_doc < target)
            + self.block_idx();
        if bi >= self.blocks.len() {
            self.pos = self.postings.len();
            return None;
        }
        let start = (bi * self.block_size).max(self.pos);
        let end = ((bi + 1) * self.block_size).min(self.postings.len());
        let inner = self.postings[start..end].partition_point(|p| p.doc < target);
        self.pos = start + inner;
        debug_assert!(self.pos < self.postings.len());
        self.doc()
    }

    fn block_at(&self, target: DocId) -> Option<(DocId, u32)> {
        if self.pos >= self.postings.len() {
            return None;
        }
        let from = self.block_idx();
        let bi = from + self.blocks[from..].partition_point(|b| b.last_doc < target);
        self.blocks.get(bi).map(|b| (b.last_doc, b.max_score))
    }

    fn max_score(&self) -> u32 {
        self.max_score
    }

    fn len(&self) -> u64 {
        self.postings.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index() -> InMemoryIndex {
        // term 0: docs 0,2,4,...,18 score = 100 - doc
        // term 1: docs 0..5 score = 10*doc+1
        let t0: Vec<Posting> = (0..10u32)
            .map(|i| Posting::new(2 * i, 100 - 2 * i))
            .collect();
        let t1: Vec<Posting> = (0..5u32).map(|i| Posting::new(i, 10 * i + 1)).collect();
        InMemoryIndex::with_block_size(vec![t0, t1], 20, 4)
    }

    #[test]
    fn dictionary_stats() {
        let ix = index();
        assert_eq!(ix.num_docs(), 20);
        assert_eq!(ix.num_terms(), 2);
        assert_eq!(ix.doc_freq(0), 10);
        assert_eq!(ix.doc_freq(1), 5);
        assert_eq!(ix.doc_freq(7), 0, "unknown term");
        assert_eq!(ix.doc_cursor(0).max_score(), 100);
        assert_eq!(ix.doc_cursor(1).max_score(), 41);
    }

    /// A declared count is a floor: lists holding ids `0..3000` behind
    /// a declaration of 10 report 3 000 documents on both in-memory
    /// backends, so everything sized from `num_docs` covers every id a
    /// cursor yields.
    #[test]
    fn num_docs_covers_the_largest_id() {
        let lists = || vec![(0..3000u32).map(|d| Posting::new(d, d % 501 + 1)).collect()];
        assert_eq!(
            InMemoryIndex::from_term_postings(lists(), 10).num_docs(),
            3000
        );
        assert_eq!(
            InMemoryIndex::from_term_postings(lists(), 5000).num_docs(),
            5000
        );
        let compressed = crate::CompressedIndex::from_term_postings(lists(), 10);
        assert_eq!(compressed.num_docs(), 3000);
        let extreme = vec![vec![Posting::new(u32::MAX, 1)]];
        assert_eq!(
            InMemoryIndex::from_term_postings(extreme, u64::MAX).num_docs(),
            1 << 32
        );
    }

    #[test]
    fn score_cursor_is_descending() {
        let ix = index();
        let mut c = ix.score_cursor(1);
        let mut last = u32::MAX;
        while let Some(p) = c.next() {
            assert!(p.score <= last);
            last = p.score;
        }
        assert_eq!(last, 1);
    }

    #[test]
    fn doc_cursor_advance_and_seek() {
        let ix = index();
        let mut c = ix.doc_cursor(0);
        assert_eq!(c.doc(), Some(0));
        assert_eq!(c.advance(), Some(2));
        assert_eq!(c.seek(9), Some(10));
        assert_eq!(c.score(), 90);
        assert_eq!(c.seek(10), Some(10), "seek to current is a no-op");
        assert_eq!(c.seek(18), Some(18));
        assert_eq!(c.seek(19), None, "past the end");
        assert_eq!(c.doc(), None);
    }

    #[test]
    fn random_access_lookup() {
        let ix = index();
        let ra = ix.random_access().unwrap();
        assert_eq!(ra.term_score(0, 4), 96);
        assert_eq!(ra.term_score(0, 5), 0, "doc absent from list");
        assert_eq!(ra.term_score(1, 3), 31);
        assert_eq!(ra.term_score(9, 3), 0, "unknown term");
        let full = |doc| ra.term_score(0, doc) + ra.term_score(1, doc);
        assert_eq!(full(4), 96 + 41);
        assert_eq!(full(3), 31, "term 0 contributes nothing");
    }
}
