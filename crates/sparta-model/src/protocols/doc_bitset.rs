//! The `DocBitset` first-wins claim
//! (`sparta-collections/src/doc_bitset.rs`): pRA's "allow only the
//! first \[worker\] to take effect" (§5.2.2) is one bit per document,
//! and a claim is `word.fetch_or(bit, Relaxed)` — the worker whose
//! returned old value has the bit clear is the document's first.
//!
//! The `// ordering:` comments claim Relaxed suffices because the bit
//! is an identity, not a publication: the claimant scores the document
//! itself and hands the result to a mutex-guarded heap, so nothing it
//! wrote needs to be visible to a worker that merely learns "already
//! seen". What the protocol does need is the read-modify-write's
//! atomicity, twice over — 64 documents share a word:
//!
//! * **Exactly one first claimant per bit**, however many workers claim it.
//! * **No lost neighbour**: a claim of one bit never erases a
//!   concurrent claim of another bit of the same word (the final word
//!   holds every claimed bit, so `len` counts every document).
//!
//! As with the tag allocator, an acquire/release flip has nothing to
//! weaken here; the dangerous mutation is splitting the RMW into a
//! load and a store ([`Rmw::SplitLoadStore`]), which breaks both.

use crate::{MemOrder, Model};

/// How a claim sets its bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rmw {
    /// The shipped `fetch_or(bit, Relaxed)`.
    Atomic,
    /// The mutation: a Relaxed load followed by a Relaxed store of
    /// `old | bit` — no longer one indivisible read-modify-write.
    SplitLoadStore,
}

/// The contested document's bit and its neighbour's, in one word.
const SHARED: u64 = 1 << 3;
const NEIGHBOUR: u64 = 1 << 4;

/// Two workers claim the same document; the second then claims the
/// neighbouring document of the same word. Invariants: one first claim for
/// the shared bit, one for the neighbour, and the word ends holding
/// both.
pub fn model(rmw: Rmw) -> Model {
    let mut m = Model::new("doc_bitset_claim");
    let word = m.atomic_u64("word", 0);

    let claim = move |t: &crate::ThreadCtx, bit: u64| -> bool {
        let old = match rmw {
            Rmw::Atomic => word.fetch_or(t, bit, MemOrder::Relaxed),
            Rmw::SplitLoadStore => {
                let old = word.load(t, MemOrder::Relaxed);
                word.store(t, old | bit, MemOrder::Relaxed);
                old
            }
        };
        old & bit == 0
    };
    m.thread("worker_a", move |t| {
        t.observe("shared_first", u64::from(claim(t, SHARED)));
    });
    m.thread("worker_b", move |t| {
        t.observe("shared_first", u64::from(claim(t, SHARED)));
        t.observe("neighbour_first", u64::from(claim(t, NEIGHBOUR)));
    });

    m.invariant(move |leaf| {
        let firsts: u64 = leaf.observed("shared_first").iter().sum();
        if firsts != 1 {
            return Err(format!("{firsts} workers were first to one document"));
        }
        if leaf.observed("neighbour_first") != [1] {
            return Err("the neighbour's only claimant was not its first".to_string());
        }
        if leaf.value(word) != SHARED | NEIGHBOUR {
            return Err(format!(
                "a claimed bit was lost: word = {:#b}",
                leaf.value(word)
            ));
        }
        Ok(())
    });
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shipped_fetch_or_claims_each_bit_once() {
        let report = model(Rmw::Atomic).check();
        report.assert_clean();
        assert!(report.executions > 1);
    }
}
