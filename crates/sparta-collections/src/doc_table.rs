//! An insert-only, lock-free `doc id → record handle` table.
//!
//! Sparta's shared `docMap` is read on every posting and written only
//! when a document is first seen. A lock per bucket (the paper's
//! §4.3) pays a lock acquire and release — two locked read-modify-writes
//! on a cache line the other core just wrote — for both, so a second
//! worker makes every lookup slower. [`DocTable`] is the shape the
//! access pattern actually needs:
//!
//! * one `AtomicU64` per slot, `doc << 32 | handle + 1`, `0` = empty —
//!   the key and the value travel in one word, so a lookup is a probe
//!   of plain `Acquire` loads that leaves the line in Shared state;
//! * open addressing with linear probing over a power-of-two slot
//!   array sized **once**, at construction, for the number of distinct
//!   keys the caller can bound (the table never grows or rehashes; an
//!   insertion that finds its probe window occupied reports
//!   [`Lookup::Full`] and the caller starts over with a bigger table);
//! * admission is a single compare-and-swap on an empty slot; a loser
//!   re-reads the slot and, if the winner claimed it for the same
//!   document, adopts the winner's handle;
//! * no in-place removal. Sparta's cleaner never deletes from the live
//!   map — it builds a pruned replacement privately
//!   ([`DocTable::from_entries`], plain stores) and publishes it with
//!   one [`SwapCell`](crate::SwapCell) pointer swing, so tombstones,
//!   epochs and hazard pointers are all unnecessary.
//!
//! Length is *not* maintained by insertion: a shared counter bumped per
//! admission is exactly the cache-line ping-pong this type removes.
//! Inserters count locally and report in batches through
//! [`add_len`](DocTable::add_len); a table built by
//! [`from_entries`](DocTable::from_entries) knows its length exactly.
//!
//! Everything after construction is allocation-free (enforced by
//! `sparta-lint`'s `alloc` rule on this file).

use crate::fast_hash::PHI64;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Smallest slot array: keeps the `shift` arithmetic in range and
/// costs 128 bytes.
const MIN_SLOTS: usize = 16;

/// Slots an open table examines from a document's home. At the sized
/// half load a probe this long does not happen; in a table given more
/// documents than it was sized for it bounds the cost of finding out.
const PROBE_LIMIT: usize = 128;

/// Outcome of [`DocTable::get_or_try_insert_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// The document was already present (possibly claimed by a racing
    /// thread a moment ago); this is its handle. A handle the caller's
    /// factory produced, if it ran, was **not** consumed.
    Found(u32),
    /// The caller's factory ran and its handle is now the document's.
    Inserted(u32),
    /// Absent, and insertion was not allowed (or the table is sealed).
    Absent,
    /// Absent, insertion was allowed, and documents sharing its home
    /// left no empty slot in the probe window. The factory did not run.
    Full,
}

/// Insert-only concurrent `u32 → u32` table; see the module docs.
///
/// ```
/// use sparta_collections::{DocTable, Lookup};
/// let t = DocTable::with_capacity(100);
/// assert_eq!(t.get_or_try_insert_with(7, false, || 0), Lookup::Absent);
/// assert_eq!(t.get_or_try_insert_with(7, true, || 3), Lookup::Inserted(3));
/// assert_eq!(t.get_or_try_insert_with(7, true, || 9), Lookup::Found(3));
/// assert_eq!(t.get(7), Some(3));
/// ```
pub struct DocTable {
    slots: Box<[AtomicU64]>,
    /// `64 − log2(slots.len())`: the hash is the top bits of a
    /// multiplicative mix.
    shift: u32,
    /// Built by [`from_entries`](Self::from_entries): complete, exactly
    /// sized, and closed to further insertion.
    sealed: bool,
    /// Longest probe: [`PROBE_LIMIT`] for an open table (no insertion
    /// lands further from home, so no lookup needs to go further), the
    /// whole array for a sealed one.
    probe_limit: usize,
    len: AtomicUsize,
}

/// The slot word for `doc → handle`. `handle + 1` keeps every occupied
/// slot nonzero (doc 0 with handle 0 is the word `1`), which is why
/// the largest storable handle is `u32::MAX − 1`.
#[inline]
fn pack(doc: u32, handle: u32) -> u64 {
    assert!(handle < u32::MAX, "DocTable handle out of range");
    u64::from(doc) << 32 | (u64::from(handle) + 1)
}

#[inline]
fn unpack(word: u64) -> (u32, u32) {
    ((word >> 32) as u32, (word as u32).wrapping_sub(1))
}

impl DocTable {
    /// Slots for `entries` documents. At most half full: linear probing
    /// stays at ~1.5 probes per hit and an absent key always reaches an
    /// empty slot.
    fn slots_for(entries: usize) -> usize {
        entries
            .checked_mul(2)
            .expect("DocTable capacity overflow")
            .next_power_of_two()
            .max(MIN_SLOTS)
    }

    /// Bytes of the slot array a table sized for `entries` documents
    /// allocates: what a [`DenseDocTable`](crate::DenseDocTable) is
    /// weighed against.
    pub fn footprint(entries: usize) -> usize {
        Self::slots_for(entries) * std::mem::size_of::<AtomicU64>()
    }

    fn with_slots(entries: usize, sealed: bool) -> Self {
        let n = Self::slots_for(entries);
        // lint: allow(alloc): the table's one allocation, at construction
        let slots: Box<[AtomicU64]> = (0..n).map(|_| AtomicU64::new(0)).collect();
        Self {
            slots,
            shift: 64 - n.trailing_zeros(),
            sealed,
            probe_limit: if sealed { n } else { PROBE_LIMIT.min(n) },
            len: AtomicUsize::new(0),
        }
    }

    /// Creates an open table sized for at most `entries` distinct
    /// documents. Sparta's candidates pass `min(Σ doc_freq, num_docs)`,
    /// a true bound since `num_docs` bounds every doc id an index
    /// yields. Ids sharing a [`home`](Self::home) can still crowd its
    /// probe window ([`Lookup::Full`]) long before the table fills.
    pub fn with_capacity(entries: usize) -> Self {
        Self::with_slots(entries, false)
    }

    /// Builds a complete, sealed table from `(doc, handle)` pairs with
    /// plain stores — no other thread can see the table yet, so no
    /// atomics are needed. A repeated document keeps its first handle.
    pub fn from_entries<I>(entries: I) -> Self
    where
        I: IntoIterator<Item = (u32, u32)>,
        I::IntoIter: ExactSizeIterator,
    {
        let entries = entries.into_iter();
        let mut table = Self::with_slots(entries.len(), true);
        let mask = table.slots.len() - 1;
        let mut len = 0;
        for (doc, handle) in entries {
            let mut i = table.home(doc);
            loop {
                let slot = table.slots[i].get_mut();
                if *slot == 0 {
                    *slot = pack(doc, handle);
                    len += 1;
                    break;
                }
                if unpack(*slot).0 == doc {
                    break;
                }
                i = (i + 1) & mask;
            }
        }
        *table.len.get_mut() = len;
        table
    }

    /// `doc`'s first probe slot. Fibonacci hashing: one multiply, and
    /// the *high* bits of the product are well mixed even for the dense
    /// sequential ids an index hands out.
    #[inline]
    pub fn home(&self, doc: u32) -> usize {
        (u64::from(doc).wrapping_mul(PHI64) >> self.shift) as usize
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

    /// The handle stored for `doc`, if any. Loads only.
    #[inline]
    pub fn get(&self, doc: u32) -> Option<u32> {
        match self.get_or_try_insert_with(doc, false, || unreachable!("insertion not allowed")) {
            Lookup::Found(h) => Some(h),
            _ => None,
        }
    }

    /// Looks `doc` up; if it is absent and `allow_insert` holds (and
    /// the table is not sealed), claims the first empty slot of its
    /// probe sequence for `make()`. `make` runs at most once, *before*
    /// the claim, so whatever it initialises is visible to every
    /// thread that later reads the handle out of the slot.
    #[inline]
    pub fn get_or_try_insert_with<F: FnOnce() -> u32>(
        &self,
        doc: u32,
        allow_insert: bool,
        make: F,
    ) -> Lookup {
        let mask = self.slots.len() - 1;
        let mut make = Some(make);
        let mut word = 0;
        let mut i = self.home(doc);
        for _ in 0..self.probe_limit {
            let slot = &self.slots[i];
            let mut seen = slot.load(Ordering::Acquire);
            if seen == 0 {
                if !allow_insert || self.sealed {
                    return Lookup::Absent;
                }
                if let Some(make) = make.take() {
                    word = pack(doc, make());
                }
                // ordering: the claim's release half publishes whatever (model: doc_table_claim)
                // `make` initialised (Sparta: the staged record's id
                // word) to every later Acquire reader of this slot;
                // Acquire on failure lets the loser use the winner's
                // record through the handle it adopts.
                match slot.compare_exchange(0, word, Ordering::AcqRel, Ordering::Acquire) {
                    Ok(_) => return Lookup::Inserted(unpack(word).1),
                    // Lost the slot: fall through and treat the
                    // winner's word like any other occupied slot.
                    Err(winner) => seen = winner,
                }
            }
            let (d, h) = unpack(seen);
            if d == doc {
                return Lookup::Found(h);
            }
            i = (i + 1) & mask;
        }
        if allow_insert && !self.sealed {
            Lookup::Full
        } else {
            Lookup::Absent
        }
    }
}

impl std::fmt::Debug for DocTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DocTable")
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
    fn edge_keys_and_handles_roundtrip() {
        let t = DocTable::with_capacity(4);
        // Doc 0 with handle 0 is the word 1, not "empty".
        assert_eq!(t.get_or_try_insert_with(0, true, || 0), Lookup::Inserted(0));
        assert_eq!(
            t.get_or_try_insert_with(u32::MAX, true, || u32::MAX - 1),
            Lookup::Inserted(u32::MAX - 1)
        );
        assert_eq!(t.get(0), Some(0));
        assert_eq!(t.get(u32::MAX), Some(u32::MAX - 1));
        assert_eq!(t.get(1), None);
    }

    #[test]
    fn refuses_when_not_allowed_and_never_runs_the_factory() {
        let t = DocTable::with_capacity(4);
        let got = t.get_or_try_insert_with(9, false, || panic!("factory ran"));
        assert_eq!(got, Lookup::Absent);
        assert_eq!(t.get_or_try_insert_with(9, true, || 5), Lookup::Inserted(5));
        // Present entries are returned regardless of the flag, and the
        // factory stays unused.
        let got = t.get_or_try_insert_with(9, false, || panic!("factory ran"));
        assert_eq!(got, Lookup::Found(5));
    }

    #[test]
    fn sized_for_half_load_and_fills_to_it() {
        let t = DocTable::with_capacity(1000);
        assert_eq!(t.slots.len(), 2048);
        assert_eq!(DocTable::footprint(1000), 2048 * 8);
        assert_eq!(DocTable::footprint(0), MIN_SLOTS * 8);
        for d in 0..1000u32 {
            assert_eq!(
                t.get_or_try_insert_with(d * 7919, true, || d),
                Lookup::Inserted(d)
            );
        }
        for d in 0..1000u32 {
            assert_eq!(t.get(d * 7919), Some(d));
        }
        assert_eq!(t.get(3), None, "absent key still terminates at full load");
    }

    #[test]
    fn len_is_batched_by_the_caller() {
        let t = DocTable::with_capacity(8);
        t.get_or_try_insert_with(1, true, || 1);
        assert_eq!(t.len(), 0, "insertion itself never touches len");
        t.add_len(1);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    fn from_entries_is_sealed_exact_and_deduplicated() {
        let t = DocTable::from_entries(vec![(5, 50), (6, 60), (5, 51)]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(5), Some(50), "first handle wins");
        assert_eq!(t.get(6), Some(60));
        assert_eq!(
            t.get_or_try_insert_with(7, true, || panic!("sealed")),
            Lookup::Absent
        );
        assert_eq!(DocTable::from_entries(Vec::new()).len(), 0);
    }

    #[test]
    fn overfilling_reports_full_and_loses_nothing() {
        let t = DocTable::with_capacity(1);
        for d in 0..MIN_SLOTS as u32 {
            assert_eq!(t.get_or_try_insert_with(d, true, || d), Lookup::Inserted(d));
        }
        let extra = MIN_SLOTS as u32;
        let got = t.get_or_try_insert_with(extra, true, || panic!("factory ran"));
        assert_eq!(got, Lookup::Full);
        assert_eq!(t.get(extra), None);
        assert_eq!(t.get_or_try_insert_with(3, true, || 99), Lookup::Found(3));
    }

    #[test]
    fn a_crowded_window_is_full_long_before_the_table_is() {
        // 4096 slots, nearly all empty, and one home slot's worth of
        // colliding documents.
        let t = DocTable::with_capacity(2048);
        let home = t.home(0);
        let mut same_home = (0..=u32::MAX).filter(|&d| t.home(d) == home);
        for n in 0..PROBE_LIMIT as u32 {
            let d = same_home.next().unwrap();
            assert_eq!(t.get_or_try_insert_with(d, true, || n), Lookup::Inserted(n));
        }
        let d = same_home.next().unwrap();
        assert_eq!(t.get_or_try_insert_with(d, true, || 0), Lookup::Full);
        assert_eq!(t.get(d), None);
    }

    #[test]
    #[should_panic(expected = "handle out of range")]
    fn handle_u32_max_is_rejected() {
        let t = DocTable::with_capacity(1);
        t.get_or_try_insert_with(1, true, || u32::MAX);
    }
}
