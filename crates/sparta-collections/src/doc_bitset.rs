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
//!   old word says first or seen — there is no out-of-range answer:
//!   pRA sizes the set from `num_docs`, which bounds every doc id an
//!   index yields (a claim past the last word panics);
//! * no per-claim counter: [`len`](DocBitset::len) is a population
//!   count over the words.
//!
//! Everything after construction is allocation-free (enforced by
//! `sparta-lint`'s `alloc` rule on this file).

use std::sync::atomic::{AtomicU64, Ordering};

/// Concurrent claim set over document ids `0..docs`; see the module docs.
///
/// ```
/// use sparta_collections::DocBitset;
/// let seen = DocBitset::with_capacity(100);
/// assert!(seen.claim(7), "first");
/// assert!(!seen.claim(7), "seen");
/// assert_eq!(seen.len(), 1);
/// ```
pub struct DocBitset {
    words: Box<[AtomicU64]>,
}

impl DocBitset {
    /// Creates an empty set covering document ids `0..docs`.
    pub fn with_capacity(docs: usize) -> Self {
        // lint: allow(alloc): the set's one allocation, at construction
        let words: Box<[AtomicU64]> = (0..docs.div_ceil(64)).map(|_| AtomicU64::new(0)).collect();
        Self { words }
    }

    /// Claims `doc` (an id the set was sized for): `true` for its one
    /// first claimant among any number of racing claims, else `false`.
    #[inline]
    pub fn claim(&self, doc: u32) -> bool {
        let doc = doc as usize;
        let bit = 1u64 << (doc % 64);
        // ordering: Relaxed — the bit is an identity, not a publication: (model: doc_bitset_claim)
        // the first claimant does the document's work itself and a
        // later one only skips it, so neither needs the other's
        // writes. Exactly-one-first and no lost neighbouring bit come
        // from the read-modify-write's atomicity alone.
        self.words[doc / 64].fetch_or(bit, Ordering::Relaxed) & bit == 0
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
            .field("words", &self.words.len())
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
        assert!(s.is_empty());
        for doc in [0, 63, 64, 127, 128, 129] {
            assert!(s.claim(doc), "doc {doc} first");
            assert!(!s.claim(doc), "doc {doc} seen");
        }
        assert_eq!(s.len(), 6);
        // A claim sets its own bit only.
        assert!(s.claim(1));
        assert!(s.claim(126));
        assert_eq!(s.len(), 8);
    }

    /// Miri-sized: two threads, two words, every id contested.
    #[test]
    fn racing_claims_have_one_first_each() {
        let s = DocBitset::with_capacity(100);
        let firsts: usize = std::thread::scope(|sc| {
            let workers: Vec<_> = (0..2)
                .map(|_| sc.spawn(|| (0..100).filter(|&d| s.claim(d)).count()))
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).sum()
        });
        assert_eq!(firsts, 100);
        assert_eq!(s.len(), 100);
    }
}
