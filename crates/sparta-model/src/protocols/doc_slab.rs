//! The `DocSlab` record protocol Sparta's cleaner — and pNRA's stop
//! checker — lean on (`sparta-core/src/sparta/doc_slab.rs`,
//! `bounds.rs`): a record is
//! `⟨id, sum, known-mask⟩`; the owner of term i scores a document with
//! `sum.fetch_add(sᵢ, AcqRel)` **then** `mask.fetch_or(bitᵢ, AcqRel)`,
//! and publishes `UB[i]` (Release) at the end of the segment, when
//! every later posting of its list scores ≤ that value. The cleaner
//! snapshots `UB[i]` (Acquire) *first*, then loads a record's mask
//! (Acquire), then its sum (Acquire), and computes
//! `UB(D) = sum + (bitᵢ seen ? 0 : UB[i])`. pNRA stores `UB[i]` on
//! every posting, before scoring it: the same protocol with segments
//! one posting long.
//!
//! The DESIGN.md §10 claim under test: **the cleaner never
//! under-estimates `UB(D)`** — whatever it races with, the bound it
//! prunes on is at least the document's true final score.
//!
//! * Bit seen ⇒ the mask's release/acquire edge makes `sᵢ` visible in
//!   the sum (sum-then-mask on the writer, mask-then-sum on the
//!   reader).
//! * Bit not seen ⇒ `UB[i]` stands in for `sᵢ`. The pre-segment bound
//!   is ≥ `sᵢ` (scores descend along the list); the post-segment bound
//!   may be smaller, but its Release store follows the record writes,
//!   so a reader that snapshotted it would have seen the bit.
//! * Sum seen, bit not yet (the reverse race) counts `sᵢ` twice — an
//!   over-estimate, which is safe.

use super::Mutation;
use crate::{MemOrder, Model};

/// Term i's score for the modelled document.
const SCORE: u64 = 7;
/// `UB[i]` while the segment holding the document is in flight.
const UB_BEFORE: u64 = 9;
/// `UB[i]` published at that segment's end (later postings score less).
const UB_AFTER: u64 = 5;
const BIT: u64 = 1;

/// One owner scoring a document and finishing its segment, one cleaner
/// bounding the document. Mutations: `AcquireToRelaxed` flips the
/// cleaner's mask load; `ReleaseToRelaxed` drops the release half of
/// the owner's `mask.fetch_or` (AcqRel → Acquire).
pub fn model(mutation: Mutation) -> Model {
    let mut m = Model::new("doc_slab_publish");
    let sum = m.atomic_u64("rec.sum", 0);
    let mask = m.atomic_u64("rec.mask", 0);
    let ub = m.atomic_u64("ub[i]", UB_BEFORE);

    let or_ord = match mutation {
        Mutation::ReleaseToRelaxed => MemOrder::Acquire,
        _ => MemOrder::AcqRel,
    };
    m.thread("owner", move |t| {
        // Record::set_score(): sum first, then the known bit.
        sum.fetch_add(t, SCORE, MemOrder::AcqRel);
        mask.fetch_or(t, BIT, or_ord);
        // SharedUb::set() at segment end.
        ub.store(t, UB_AFTER, MemOrder::Release);
    });

    let mask_ord = match mutation {
        Mutation::AcquireToRelaxed => MemOrder::Relaxed,
        _ => MemOrder::Acquire,
    };
    m.thread("cleaner", move |t| {
        // SharedUb::snapshot_into() before any record is read…
        let bound = ub.load(t, MemOrder::Acquire);
        // …then Record::ub(): mask, then sum.
        let known = mask.load(t, mask_ord);
        let s = sum.load(t, MemOrder::Acquire);
        let unknown = if known & BIT != 0 { 0 } else { bound };
        t.observe("ub_of_doc", s + unknown);
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

    /// The order of the cleaner's first two loads is part of the
    /// protocol: reading the record before the bound lets a whole
    /// segment slip in between.
    #[test]
    fn reading_the_record_before_the_bound_is_caught() {
        let mut m = Model::new("doc_slab_publish_bound_read_last");
        let sum = m.atomic_u64("rec.sum", 0);
        let mask = m.atomic_u64("rec.mask", 0);
        let ub = m.atomic_u64("ub[i]", UB_BEFORE);
        m.thread("owner", move |t| {
            sum.fetch_add(t, SCORE, MemOrder::AcqRel);
            mask.fetch_or(t, BIT, MemOrder::AcqRel);
            ub.store(t, UB_AFTER, MemOrder::Release);
        });
        m.thread("cleaner", move |t| {
            let known = mask.load(t, MemOrder::Acquire);
            let s = sum.load(t, MemOrder::Acquire);
            let bound = ub.load(t, MemOrder::Acquire);
            let unknown = if known & BIT != 0 { 0 } else { bound };
            t.observe("ub_of_doc", s + unknown);
        });
        m.invariant(move |leaf| {
            if leaf.observed("ub_of_doc").iter().all(|&v| v >= SCORE) {
                Ok(())
            } else {
                Err("under-estimate".to_string())
            }
        });
        assert!(m.check().violations > 0);
    }
}
