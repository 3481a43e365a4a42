//! Cursor traits: the three index access paths of §3.

use crate::posting::Posting;
use sparta_corpus::types::{DocId, TermId};
use std::sync::Arc;

/// Sequential traversal of one posting list in decreasing term-score
/// order ("score-order" / "impact-order" access, §3.1). Used by the TA
/// family (RA, NRA, Sparta) and JASS.
pub trait ScoreCursor: Send {
    /// Returns the next posting, or `None` at the end of the list.
    fn next(&mut self) -> Option<Posting>;

    /// Total length of the underlying list.
    fn len(&self) -> u64;

    /// Whether the list is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Replaces `out`'s contents with the next up to `n` postings (a
    /// segment) and returns how many it delivered. Sparta, pNRA and
    /// pJASS traverse lists in segments of `segSize` (§4.2); delivering
    /// a whole segment per call amortizes per-posting dispatch.
    ///
    /// Contract: the deliveries concatenate to exactly what `next()`
    /// would have returned from the same position, and the two may be
    /// mixed freely. A delivery shorter than `n` happens only at the
    /// end of the list, and every later call delivers 0 — so a short
    /// delivery is how a caller learns the list is exhausted. Any `n`,
    /// `usize::MAX` included, is valid.
    fn next_segment(&mut self, n: usize, out: &mut Vec<Posting>) -> usize {
        out.clear();
        for _ in 0..n {
            match self.next() {
                Some(p) => out.push(p),
                None => break,
            }
        }
        out.len()
    }
}

/// Traversal of one posting list in increasing document-id order with
/// block-max metadata — the access path of document-order algorithms
/// (pBMW's Block-Max WAND; §3.1).
///
/// The cursor is positioned *on* a posting; a freshly opened cursor is
/// on the first posting. `doc() == None` means the list is exhausted.
pub trait DocCursor: Send {
    /// Current document id, or `None` if exhausted.
    fn doc(&self) -> Option<DocId>;

    /// Term score of the current posting. Undefined after exhaustion.
    fn score(&self) -> u32;

    /// Moves to the next posting. Returns the new current doc.
    fn advance(&mut self) -> Option<DocId>;

    /// Moves to the first posting with `doc >= target` (no-op if
    /// already there). Returns the new current doc. Implementations
    /// use block metadata / binary search to skip efficiently.
    fn seek(&mut self, target: DocId) -> Option<DocId>;

    /// Block metadata for the block that would contain `target`
    /// (i.e. the first block at/after the current position whose
    /// `last_doc >= target`), *without moving the cursor* — BMW's
    /// "shallow" probe. Returns `(last_doc, max_score)` of that block,
    /// or `None` when `target` lies beyond the list. Block metadata is
    /// RAM-resident in every implementation, so this never performs
    /// I/O.
    fn block_at(&self, target: DocId) -> Option<(DocId, u32)>;

    /// List-wide maximum term score (the WAND pivot's upper bound).
    fn max_score(&self) -> u32;

    /// Total list length.
    fn len(&self) -> u64;

    /// Whether the list is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Random access to term scores by document id, backed by a secondary
/// index (§3.2 RA: "given a document id, we can use random access in
/// order to obtain all its term scores"). Costly by design: each probe
/// models an I/O request plus cache miss on disk-resident indexes.
///
/// Two probes: one document, or a batch of documents in ascending id
/// order. pRA claims a score-ordered batch of postings, sorts the
/// claimed documents by id and makes one [`term_scores`] call per other
/// query term, so a backend can walk each list forward once instead of
/// searching it from the top per document. pRA then offers every claimed
/// document to its heap, even those past a stop in mid-batch: a claim
/// means no other worker will score the document.
///
/// [`term_scores`]: RandomAccess::term_scores
pub trait RandomAccess: Send + Sync {
    /// The term score `ts(doc, term)`, or 0 when the document does not
    /// contain the term.
    fn term_score(&self, term: TermId, doc: DocId) -> u32;

    /// Writes `ts(docs[i], term)` to `out[i]`: exactly what
    /// [`term_score`](Self::term_score) returns for each document.
    ///
    /// Contract: `docs` is ascending and `out` is as long as `docs`.
    /// Accounting is the per-document path's: a backend that counts
    /// probes in [`crate::IoStats`] adds the same `random_accesses` and
    /// `bytes_read` as one `term_score` call per document would. The
    /// default makes those calls, so the disk backend keeps one block
    /// read and one latency charge per probe.
    fn term_scores(&self, term: TermId, docs: &[DocId], out: &mut [u32]) {
        debug_assert_eq!(docs.len(), out.len());
        for (o, &doc) in out.iter_mut().zip(docs) {
            *o = self.term_score(term, doc);
        }
    }
}

/// A [`ScoreCursor`] over a shared score-ordered posting list — the
/// in-memory index's score order and sNRA's materialized shards.
pub struct SliceScoreCursor {
    postings: Arc<Vec<Posting>>,
    pos: usize,
}

impl SliceScoreCursor {
    /// Wraps a score-ordered posting list.
    pub fn new(postings: Arc<Vec<Posting>>) -> Self {
        debug_assert!(crate::posting::is_score_ordered(&postings));
        Self { postings, pos: 0 }
    }
}

impl ScoreCursor for SliceScoreCursor {
    #[inline]
    fn next(&mut self) -> Option<Posting> {
        let p = self.postings.get(self.pos).copied();
        if p.is_some() {
            self.pos += 1;
        }
        p
    }

    fn len(&self) -> u64 {
        self.postings.len() as u64
    }

    fn next_segment(&mut self, n: usize, out: &mut Vec<Posting>) -> usize {
        out.clear();
        // `pos + n` would overflow for a huge `n`; the rest cannot.
        let delivered = n.min(self.postings.len() - self.pos);
        out.extend_from_slice(&self.postings[self.pos..self.pos + delivered]);
        self.pos += delivered;
        delivered
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_cursor_traverses_in_order() {
        let postings = vec![
            Posting::new(1, 30),
            Posting::new(2, 20),
            Posting::new(3, 10),
        ];
        let mut c = SliceScoreCursor::new(Arc::new(postings));
        assert_eq!(c.len(), 3);
        assert_eq!(c.next(), Some(Posting::new(1, 30)));
        assert_eq!(c.next(), Some(Posting::new(2, 20)));
        assert_eq!(c.next(), Some(Posting::new(3, 10)));
        assert_eq!(c.next(), None);
    }

    #[test]
    fn slice_cursor_segments() {
        let postings: Vec<Posting> = (0..10u32).map(|i| Posting::new(i, 100 - i)).collect();
        let mut c = SliceScoreCursor::new(Arc::new(postings));
        let mut seg = Vec::new();
        assert_eq!(c.next_segment(4, &mut seg), 4);
        assert_eq!(seg.len(), 4);
        assert_eq!(seg[0].doc, 0);
        assert_eq!(c.next_segment(4, &mut seg), 4);
        assert_eq!(c.next_segment(4, &mut seg), 2, "final partial segment");
        assert_eq!(c.next_segment(4, &mut seg), 0);
        // `pos + n` overflowed once a posting had been read.
        assert_eq!(c.next_segment(usize::MAX, &mut seg), 0);
    }
}
