//! The `DocSlab` record protocol Sparta's cleaner — and pNRA's stop
//! checker — lean on (`sparta-core/src/sparta/doc_slab.rs`,
//! `bounds.rs`): a record's term word holds a group's known-mask in its
//! low bits and the sum of its known scores above them. The owner of
//! term i scores a document with one `word.fetch_add((sᵢ << 27) | bitᵢ,
//! AcqRel)`, and publishes `UB[i]` (Release) at the end of the segment,
//! when every later posting of its list scores ≤ that value. The
//! cleaner snapshots `UB[i]` (Acquire) *first*, then loads the word
//! (Acquire), and computes `UB(D) = sum + (bitᵢ seen ? 0 : UB[i])`.
//! pNRA stores `UB[i]` on every posting, before scoring it: the same
//! protocol with segments one posting long.
//!
//! The DESIGN.md §10 claim under test: **the cleaner never
//! under-estimates `UB(D)`** — whatever it races with, the bound it
//! prunes on is at least the document's true final score. One word
//! carries score and bit, so a bit seen is an exact score; a bit not
//! seen lets `UB[i]` stand in for `sᵢ`. The pre-segment bound is ≥ `sᵢ`
//! (scores descend along the list); the post-segment bound may be
//! smaller, but its Release store follows the record write, so a
//! reader that snapshotted it sees the bit. That needs the snapshot
//! taken before any record is read.

use super::Mutation;
use crate::{MemOrder, Model};

/// Term i's score for the modelled document.
const SCORE: u64 = 7;
/// `UB[i]` while the segment holding the document is in flight.
const UB_BEFORE: u64 = 9;
/// `UB[i]` published at that segment's end (later postings score less).
const UB_AFTER: u64 = 5;
/// Known-bits below the sum, as in the record's term word.
const SHIFT: u32 = 27;
const BIT: u64 = 1;

/// One owner scoring a document and finishing its segment, one cleaner
/// bounding the document. Mutations: `AcquireToRelaxed` flips the
/// cleaner's `UB[i]` snapshot load; `ReleaseToRelaxed` flips the
/// owner's `UB[i]` store.
pub fn model(mutation: Mutation) -> Model {
    let (store, load) = match mutation {
        Mutation::None => (MemOrder::Release, MemOrder::Acquire),
        Mutation::AcquireToRelaxed => (MemOrder::Release, MemOrder::Relaxed),
        Mutation::ReleaseToRelaxed => (MemOrder::Relaxed, MemOrder::Acquire),
    };
    build(Model::new("doc_slab_publish"), store, load, true)
}

/// The protocol with the given `UB[i]` orderings; `bound_first` is the
/// cleaner's read order.
fn build(mut m: Model, ub_store: MemOrder, ub_load: MemOrder, bound_first: bool) -> Model {
    let word = m.atomic_u64("rec.word", 0);
    let ub = m.atomic_u64("ub[i]", UB_BEFORE);

    m.thread("owner", move |t| {
        // Record::set_score(), then SharedUb::set() at segment end.
        word.fetch_add(t, (SCORE << SHIFT) | BIT, MemOrder::AcqRel);
        ub.store(t, UB_AFTER, ub_store);
    });

    m.thread("cleaner", move |t| {
        // SharedUb::snapshot_into() before any record is read, then
        // Record::ub().
        let (bound, w) = if bound_first {
            let bound = ub.load(t, ub_load);
            (bound, word.load(t, MemOrder::Acquire))
        } else {
            let w = word.load(t, MemOrder::Acquire);
            (ub.load(t, ub_load), w)
        };
        let unknown = if w & BIT != 0 { 0 } else { bound };
        t.observe("ub_of_doc", (w >> SHIFT) + unknown);
    });

    m.invariant(
        move |leaf| match leaf.observed("ub_of_doc").iter().find(|&&v| v < SCORE) {
            None => Ok(()),
            Some(v) => Err(format!(
                "cleaner bounded the document at {v}, below its true score {SCORE}"
            )),
        },
    );
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shipped_record_protocol_never_underestimates() {
        let report = model(Mutation::None).check();
        report.assert_clean();
        assert!(report.executions > 10);
    }

    /// The order of the cleaner's two loads is the protocol: reading
    /// the record before the bound lets a whole segment slip in
    /// between.
    #[test]
    fn reading_the_record_before_the_bound_is_caught() {
        let m = build(
            Model::new("doc_slab_publish_bound_read_last"),
            MemOrder::Release,
            MemOrder::Acquire,
            false,
        );
        assert!(m.check().violations > 0);
    }
}
