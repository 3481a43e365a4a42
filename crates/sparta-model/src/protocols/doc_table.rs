//! The `DocTable` admission protocol
//! (`sparta-collections/src/doc_table.rs` with
//! `sparta-core/src/sparta/doc_slab.rs`): a worker that finds a
//! document's slot empty *stages* a record — stores the document id
//! into its id word, Relaxed — and then claims the slot with
//! `compare_exchange(0, doc << 32 | handle + 1, AcqRel, Acquire)`.
//! Lookups are `slot.load(Acquire)`. A CAS loser re-reads the slot
//! from the failure value and adopts the winner's handle; its own
//! staged record is never published.
//!
//! Claims under test (DESIGN.md §10):
//!
//! * **One handle per document**: both racing admitters end up holding
//!   the same handle.
//! * **A handle implies its id**: any thread that obtained a handle —
//!   from a lookup, from winning, or from losing — reads the right
//!   document id out of the record with a *Relaxed* load, because the
//!   slot's release/acquire edge covers the staging store.
//!
//! `DenseDocTable` (`sparta-collections/src/dense_doc_table.rs`) runs
//! the same protocol on a slot of its own per document: the document
//! is implied by the slot's index, so the word is `handle + 1` alone.
//! [`Slot::Dense`] is that port, the `dense_slot_claim` model, under
//! the same claims and mutations.

use super::Mutation;
use crate::{MemOrder, Model, ModelAtomicU64};

const DOC: u64 = 42;

/// Which table's slot word the admitters claim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    /// `DocTable`: `doc << 32 | handle + 1` (`doc_table_claim`).
    Hashed,
    /// `DenseDocTable`: `handle + 1` in the document's own slot
    /// (`dense_slot_claim`).
    Dense,
}

/// Two admitters racing for one document's slot, one reader looking it
/// up. Each admitter stages its own record (handles 0 and 1, slot
/// words `handle + 1`, tagged with the document on a hashed slot).
/// Mutations: `AcquireToRelaxed` flips the reader's slot load;
/// `ReleaseToRelaxed` drops the release half of the claim CAS
/// (AcqRel → Acquire).
pub fn model(kind: Slot, mutation: Mutation) -> Model {
    let (mut m, tag) = match kind {
        Slot::Hashed => (Model::new("doc_table_claim"), DOC << 32),
        Slot::Dense => (Model::new("dense_slot_claim"), 0),
    };
    let slot = m.atomic_u64("slot", 0);
    let ids = [m.atomic_u64("rec0.id", 0), m.atomic_u64("rec1.id", 0)];

    let claim_ord = match mutation {
        Mutation::ReleaseToRelaxed => MemOrder::Acquire,
        _ => MemOrder::AcqRel,
    };
    let id_of = move |t: &crate::ThreadCtx, ids: [ModelAtomicU64; 2], word: u64| {
        // Record::id(): Relaxed, through the handle the slot held.
        ids[(word as u32 - 1) as usize].load(t, MemOrder::Relaxed)
    };
    for (name, own) in [("admitter_a", 0usize), ("admitter_b", 1usize)] {
        m.thread(name, move |t| {
            // DocSlab::stage(): id word first, Relaxed.
            ids[own].store(t, DOC, MemOrder::Relaxed);
            let word = tag | (own as u64 + 1);
            let held = match slot.compare_exchange(t, 0, word, claim_ord, MemOrder::Acquire) {
                Ok(_) => word,
                Err(winner) => winner, // adopt the winner's handle
            };
            t.observe("handle_held", held);
            t.observe("id_via_handle", id_of(t, ids, held));
        });
    }

    let get_ord = match mutation {
        Mutation::AcquireToRelaxed => MemOrder::Relaxed,
        _ => MemOrder::Acquire,
    };
    m.thread("reader", move |t| {
        let word = slot.load(t, get_ord);
        if word != 0 {
            t.observe("id_via_handle", id_of(t, ids, word));
        }
    });

    m.invariant(move |leaf| {
        let held = leaf.observed("handle_held");
        if held.windows(2).any(|w| w[0] != w[1]) {
            return Err(format!("two live records for one document: {held:?}"));
        }
        if leaf.value(slot) != held[0] {
            return Err("the slot does not hold the adopted handle".to_string());
        }
        if !leaf.observed("id_via_handle").iter().all(|&v| v == DOC) {
            return Err("a handle was read out of the slot but its record's \
                 id word was not visible"
                .to_string());
        }
        Ok(())
    });
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shipped_claim_protocol_is_clean() {
        for kind in [Slot::Hashed, Slot::Dense] {
            let report = model(kind, Mutation::None).check();
            report.assert_clean();
            assert!(report.executions > 10, "{kind:?}");
        }
    }
}
