//! A doc-indexed `doc id → record handle` table: one slot per document.
//!
//! [`DocTable`](crate::DocTable) hashes each id into a slot array
//! sized for the documents a query can admit; that pays 8 bytes a slot
//! at load ≤ ½, a multiply and a probe per lookup. When the corpus is
//! no larger than that array in 4-byte slots — a long query over a
//! corpus of a few hundred thousand documents — the id itself is the
//! slot, and [`DenseDocTable`] is the table:
//!
//! * one `AtomicU32` per document, holding `handle + 1`, `0` = empty —
//!   400 KB for 100 000 documents;
//! * a lookup is one `Acquire` load of the document's own slot: no
//!   hash, no probe window and never [`Lookup::Full`], so the caller
//!   never restarts;
//! * admission is one compare-and-swap on that slot; a loser adopts
//!   the winner's handle, exactly as in `DocTable`;
//! * no removal: Sparta's cleaner builds a pruned replacement privately
//!   ([`DenseDocTable::from_entries`], plain stores) and publishes it
//!   whole, as it does a `DocTable`.
//!
//! Ids must lie below the document count the table was made for (an
//! index's `num_docs` bounds every id it yields); a lookup past the
//! end panics. Length is batched by the caller through
//! [`add_len`](DenseDocTable::add_len), as in `DocTable`.
//!
//! Everything after construction is allocation-free (enforced by
//! `sparta-lint`'s `alloc` rule on this file).

use crate::Lookup;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};

/// Concurrent `doc id → handle` array over ids `0..docs`; see the
/// module docs.
///
/// ```
/// use sparta_collections::{DenseDocTable, Lookup};
/// let t = DenseDocTable::with_capacity(100);
/// assert_eq!(t.get_or_try_insert_with(7, false, || 0), Lookup::Absent);
/// assert_eq!(t.get_or_try_insert_with(7, true, || 3), Lookup::Inserted(3));
/// assert_eq!(t.get_or_try_insert_with(7, true, || 9), Lookup::Found(3));
/// assert_eq!(t.get(7), Some(3));
/// ```
pub struct DenseDocTable {
    slots: Box<[AtomicU32]>,
    /// Built by [`from_entries`](Self::from_entries): complete and
    /// closed to further insertion.
    sealed: bool,
    len: AtomicUsize,
}

/// The slot word for `handle`: `handle + 1` keeps an occupied slot
/// nonzero, so the largest storable handle is `u32::MAX − 1`.
#[inline]
fn pack(handle: u32) -> u32 {
    assert!(handle < u32::MAX, "DenseDocTable handle out of range");
    handle + 1
}

impl DenseDocTable {
    /// Bytes of the slot array for ids `0..docs`: what the table costs
    /// against a `DocTable` for the same query.
    pub fn footprint(docs: usize) -> usize {
        docs * std::mem::size_of::<AtomicU32>()
    }

    fn with_slots(docs: usize, sealed: bool) -> Self {
        // lint: allow(alloc): the table's one allocation, at construction
        let slots: Box<[AtomicU32]> = (0..docs).map(|_| AtomicU32::new(0)).collect();
        Self {
            slots,
            sealed,
            len: AtomicUsize::new(0),
        }
    }

    /// Creates an open, empty table over document ids `0..docs`.
    pub fn with_capacity(docs: usize) -> Self {
        Self::with_slots(docs, false)
    }

    /// Builds a complete, sealed table over ids `0..docs` from
    /// `(doc, handle)` pairs with plain stores — no other thread can
    /// see the table yet. A repeated document keeps its first handle.
    pub fn from_entries<I>(docs: usize, entries: I) -> Self
    where
        I: IntoIterator<Item = (u32, u32)>,
    {
        let mut table = Self::with_slots(docs, true);
        let mut len = 0;
        for (doc, handle) in entries {
            let slot = table.slots[doc as usize].get_mut();
            if *slot == 0 {
                *slot = pack(handle);
                len += 1;
            }
        }
        *table.len.get_mut() = len;
        table
    }

    /// Entries reported so far: exact for a sealed table, the sum of
    /// [`add_len`](Self::add_len) batches for an open one.
    #[inline]
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// Whether no entry has been reported.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reports `n` insertions the caller made and counted locally.
    #[inline]
    pub fn add_len(&self, n: usize) {
        if n > 0 {
            self.len.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// The handle stored for `doc`, if any. One load.
    #[inline]
    pub fn get(&self, doc: u32) -> Option<u32> {
        // ordering: pairs with the claim's release half below, so the (model: dense_slot_claim)
        // record behind the handle is visible to its reader.
        match self.slots[doc as usize].load(Ordering::Acquire) {
            0 => None,
            word => Some(word - 1),
        }
    }

    /// Looks `doc` up; if it is absent and `allow_insert` holds (and
    /// the table is not sealed), claims its slot for `make()`. `make`
    /// runs at most once, *before* the claim, so whatever it
    /// initialises is visible to every thread that later reads the
    /// handle out of the slot. Never [`Lookup::Full`].
    #[inline]
    pub fn get_or_try_insert_with<F: FnOnce() -> u32>(
        &self,
        doc: u32,
        allow_insert: bool,
        make: F,
    ) -> Lookup {
        let slot = &self.slots[doc as usize];
        // ordering: Acquire, as in `get`: a found handle's record is visible (model: dense_slot_claim)
        let seen = slot.load(Ordering::Acquire);
        if seen != 0 {
            return Lookup::Found(seen - 1);
        }
        if !allow_insert || self.sealed {
            return Lookup::Absent;
        }
        let word = pack(make());
        // ordering: the claim's release half publishes whatever `make` (model: dense_slot_claim)
        // initialised (Sparta: the staged record's id word) to every
        // later Acquire reader of this slot; Acquire on failure lets
        // the loser use the winner's record through the handle it
        // adopts.
        match slot.compare_exchange(0, word, Ordering::AcqRel, Ordering::Acquire) {
            Ok(_) => Lookup::Inserted(word - 1),
            Err(winner) => Lookup::Found(winner - 1),
        }
    }
}

impl std::fmt::Debug for DenseDocTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DenseDocTable")
            .field("slots", &self.slots.len())
            .field("len", &self.len())
            .field("sealed", &self.sealed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_ids_and_handles_roundtrip() {
        let t = DenseDocTable::with_capacity(10);
        // Handle 0 is the word 1, not "empty".
        assert_eq!(t.get_or_try_insert_with(0, true, || 0), Lookup::Inserted(0));
        assert_eq!(
            t.get_or_try_insert_with(9, true, || u32::MAX - 1),
            Lookup::Inserted(u32::MAX - 1)
        );
        assert_eq!(t.get(0), Some(0));
        assert_eq!(t.get(9), Some(u32::MAX - 1));
        assert_eq!(t.get(1), None);
        assert_eq!(DenseDocTable::footprint(10), 40);
    }

    #[test]
    fn refuses_when_not_allowed_and_never_runs_the_factory() {
        let t = DenseDocTable::with_capacity(16);
        let got = t.get_or_try_insert_with(9, false, || panic!("factory ran"));
        assert_eq!(got, Lookup::Absent);
        assert_eq!(t.get_or_try_insert_with(9, true, || 5), Lookup::Inserted(5));
        let got = t.get_or_try_insert_with(9, false, || panic!("factory ran"));
        assert_eq!(got, Lookup::Found(5));
    }

    #[test]
    fn every_id_fits_and_len_is_batched_by_the_caller() {
        let t = DenseDocTable::with_capacity(100);
        for d in 0..100u32 {
            let got = t.get_or_try_insert_with(d, true, || 99 - d);
            assert_eq!(got, Lookup::Inserted(99 - d), "a full table is never Full");
        }
        assert_eq!(t.len(), 0, "insertion itself never touches len");
        t.add_len(100);
        assert_eq!(t.len(), 100);
        assert!((0..100).all(|d| t.get(d) == Some(99 - d)));
    }

    #[test]
    fn from_entries_is_sealed_exact_and_deduplicated() {
        let t = DenseDocTable::from_entries(8, vec![(5, 50), (6, 60), (5, 51)]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(5), Some(50), "first handle wins");
        assert_eq!(t.get(6), Some(60));
        assert_eq!(
            t.get_or_try_insert_with(7, true, || panic!("sealed")),
            Lookup::Absent
        );
        assert!(DenseDocTable::from_entries(8, Vec::new()).is_empty());
    }

    /// Miri-sized: two threads admit overlapping ids, each offering its
    /// own handles; every id ends with one handle, and both threads
    /// were told it.
    #[test]
    fn racing_admissions_agree_on_one_handle() {
        let t = DenseDocTable::with_capacity(24);
        let told: Vec<Vec<(u32, u32)>> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..2u32)
                .map(|w| {
                    let t = &t;
                    s.spawn(move || {
                        (w * 8..w * 8 + 16)
                            .map(
                                |d| match t.get_or_try_insert_with(d, true, || w * 100 + d) {
                                    Lookup::Inserted(h) | Lookup::Found(h) => (d, h),
                                    other => panic!("doc {d}: {other:?}"),
                                },
                            )
                            .collect()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        for &(d, h) in told.iter().flatten() {
            assert_eq!(t.get(d), Some(h), "doc {d}: a thread holds a stale handle");
            assert_eq!(h % 100, d, "doc {d}: handle offered for another doc");
        }
    }

    #[test]
    #[should_panic(expected = "handle out of range")]
    fn handle_u32_max_is_rejected() {
        let t = DenseDocTable::with_capacity(2);
        t.get_or_try_insert_with(1, true, || u32::MAX);
    }

    #[test]
    #[should_panic]
    fn an_id_past_the_end_panics() {
        DenseDocTable::with_capacity(4).get(4);
    }
}
