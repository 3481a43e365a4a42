//! A first-wins claim set over the doc-id space: one bit per document.
//!
//! pRA (§5.2.2) lets several workers meet the same document and
//! "allows only the first to take effect". That is one bit of shared
//! state per document, which a locked hash map would buy with a mutex
//! and a growing insert on every posting. [`DocBitset`] is the bit
//! itself:
//!
//! * `⌈docs/64⌉` atomic words allocated once, at construction — 12.5 KB
//!   for 100 000 documents;
//! * [`claim`](DocBitset::claim) is one `fetch_or`, and its returned
//!   old word says whether the caller was [`First`](Claim::First) or
//!   the document was [`Seen`](Claim::Seen) already;
//! * a document id beyond the sized range is answered
//!   [`OutOfRange`](Claim::OutOfRange), never a panic — an index's
//!   `num_docs` is only declared, never validated, so the caller
//!   starts over with a set that covers the id, as a
//!   [`DocTable`](crate::DocTable) user does on
//!   [`Lookup::Full`](crate::Lookup::Full);
//! * no per-claim counter: [`len`](DocBitset::len) is a population
//!   count over the words.
//!
//! Everything after construction is allocation-free (enforced by
//! `sparta-lint`'s `alloc` rule on this file).

use std::sync::atomic::{AtomicU64, Ordering};

/// Outcome of [`DocBitset::claim`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Claim {
    /// The caller set the document's bit: it is the document's first —
    /// and only — claimant.
    First,
    /// The bit was already set (possibly by a racing thread a moment
    /// ago).
    Seen,
    /// The document id is beyond the range the set was sized for;
    /// nothing was recorded.
    OutOfRange,
}

/// Concurrent claim set over document ids `0..capacity`; see the
/// module docs.
///
/// ```
/// use sparta_collections::{Claim, DocBitset};
/// let seen = DocBitset::with_capacity(100);
/// assert_eq!(seen.claim(7), Claim::First);
/// assert_eq!(seen.claim(7), Claim::Seen);
/// assert_eq!(seen.claim(100), Claim::OutOfRange);
/// assert_eq!(seen.len(), 1);
/// ```
pub struct DocBitset {
    words: Box<[AtomicU64]>,
    /// Document ids covered: `0..capacity`.
    capacity: usize,
}

impl DocBitset {
    /// Creates an empty set covering document ids `0..docs`.
    pub fn with_capacity(docs: usize) -> Self {
        // lint: allow(alloc): the set's one allocation, at construction
        let words: Box<[AtomicU64]> = (0..docs.div_ceil(64)).map(|_| AtomicU64::new(0)).collect();
        Self {
            words,
            capacity: docs,
        }
    }

    /// Claims `doc`. Of any number of racing claims of one document
    /// exactly one is answered [`Claim::First`].
    #[inline]
    pub fn claim(&self, doc: u32) -> Claim {
        let doc = doc as usize;
        if doc >= self.capacity {
            return Claim::OutOfRange;
        }
        let bit = 1u64 << (doc % 64);
        // ordering: Relaxed — the bit is an identity, not a publication: (model: doc_bitset_claim)
        // the first claimant does the document's work itself and a
        // later one only skips it, so neither needs the other's
        // writes. Exactly-one-first and no lost neighbouring bit come
        // from the read-modify-write's atomicity alone.
        let old = self.words[doc / 64].fetch_or(bit, Ordering::Relaxed);
        if old & bit == 0 {
            Claim::First
        } else {
            Claim::Seen
        }
    }

    /// Documents claimed so far: exact once the claimants are
    /// quiescent, a lower bound while they run.
    pub fn len(&self) -> usize {
        self.words
            .iter()
            // ordering: Relaxed — a statistic, read after the claimants are done (model: doc_bitset_claim)
            .map(|w| w.load(Ordering::Relaxed).count_ones() as usize)
            .sum()
    }

    /// Whether no document has been claimed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl std::fmt::Debug for DocBitset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DocBitset")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_then_seen_across_word_boundaries() {
        let s = DocBitset::with_capacity(130);
        for doc in [0, 63, 64, 127, 128, 129] {
            assert_eq!(s.claim(doc), Claim::First, "doc {doc}");
            assert_eq!(s.claim(doc), Claim::Seen, "doc {doc}");
        }
        assert_eq!(s.len(), 6);
        // A claim sets its own bit only.
        assert_eq!(s.claim(1), Claim::First);
        assert_eq!(s.claim(126), Claim::First);
        assert_eq!(s.len(), 8);
    }

    #[test]
    fn out_of_range_is_reported_and_records_nothing() {
        // 70 documents need two words; the second word's unused bits
        // are not claimable.
        let s = DocBitset::with_capacity(70);
        assert_eq!(s.claim(69), Claim::First);
        for doc in [70, 127, 128, u32::MAX] {
            assert_eq!(s.claim(doc), Claim::OutOfRange, "doc {doc}");
        }
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn an_empty_set_claims_nothing() {
        let s = DocBitset::with_capacity(0);
        assert_eq!(s.claim(0), Claim::OutOfRange);
        assert!(s.is_empty());
    }

    /// Miri-sized: two threads, two words, every id contested.
    #[test]
    fn racing_claims_have_one_first_each() {
        let s = DocBitset::with_capacity(100);
        let firsts: usize = std::thread::scope(|sc| {
            let workers: Vec<_> = (0..2)
                .map(|_| sc.spawn(|| (0..100).filter(|&d| s.claim(d) == Claim::First).count()))
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).sum()
        });
        assert_eq!(firsts, 100);
        assert_eq!(s.len(), 100);
    }
}
