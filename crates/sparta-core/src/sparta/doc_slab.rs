//! A per-query arena of candidate records, 16 bytes each up to 27 terms.
//!
//! NRA never needs a candidate's individual term scores — only their
//! sum and *which* terms are known: `UB(D) = sum + Σ_{i ∉ known} UB[i]`,
//! and a worker's term-local map wants exactly the candidates whose
//! bit for its term is clear. So a record is an id word plus one term
//! word per group of `GROUP` = 27 terms, holding the group's
//! known-mask in its low 27 bits and the sum of its known scores above
//! them:
//!
//! ```text
//! ┌────────┬─────────────┬───────────────┐
//! │   id   │ Σsᵢ ‹63…27› │ known ‹26…0›  │ × ⌈m/27⌉    16 bytes for m ≤ 27
//! └────────┴─────────────┴───────────────┘
//! ```
//!
//! Scoring a posting is one `fetch_add` of `(sᵢ << 27) | bitᵢ`, so a
//! reader sees a score exactly when it sees its bit, and the
//! per-posting work touches one word. (The lazily refreshed lower
//! bound lives in the heap's own entries; see `heap.rs`.)
//!
//! Records are addressed by [`DocHandle`], a `Copy` 4-byte index, and
//! are never freed individually: the slab drops wholesale with the
//! query (pruned records merely become unreachable from `docMap`).
//! Blocks grow geometrically (`BASE_CAP << block_index`), so a query
//! admitting N documents performs **at most one allocation per slab
//! block**, O(log N) in all — asserted by the slab-accounting test via
//! [`DocSlab::blocks_allocated`] — and block addresses are stable once
//! published (a `OnceLock` per slot), so handles are dereferenced
//! without any lock while other workers admit documents.
//!
//! Admission does not bump a shared counter per document. A writer
//! reserves a [`SlabRun`] of [`RUN`] consecutive indices with one
//! `fetch_add` and fills it privately, so the records on a freshly
//! written cache line belong to one worker. A run's unused tail (and a
//! record staged for an admission that lost its `docMap` race) is
//! never scored, and [`DocSlab::for_each_scored`] — the cleaner's
//! first-pass walk — skips exactly those.

use super::bounds::UbSnapshot;
use sparta_corpus::types::DocId;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Records in block 0; block b holds `BASE_CAP << b`.
const BASE_CAP: usize = 256;
/// Enough blocks to cover every representable `DocHandle` index
/// (cumulative capacity `BASE_CAP · (2^NUM_BLOCKS − 1)` > `u32::MAX`).
const NUM_BLOCKS: usize = 25;

/// Terms per term word: the known-mask takes the low `GROUP` bits, the
/// sum the 37 above. 27·(2³² − 1) < 2³⁷, so a group's u32 scores never
/// carry out of the word, and a bit added once never carries into the
/// sum.
const GROUP: usize = 27;
const MASK: u64 = (1 << GROUP) - 1;

/// Record indices a writer reserves at a time. Divides `BASE_CAP`, so
/// a run never straddles two blocks; 32 records are 8 cache lines,
/// and a query wastes at most one run's tail per posting list.
pub const RUN: usize = 32;

/// A `Copy` reference to one record in a [`DocSlab`] — what Sparta's
/// `docMap`, `termMap`s and heap store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DocHandle(u32);

impl DocHandle {
    /// The record index, as stored in a `DocTable` slot.
    #[inline]
    pub fn index(self) -> u32 {
        self.0
    }

    /// Rebuilds a handle from [`index`](Self::index).
    #[inline]
    pub fn from_index(index: u32) -> Self {
        Self(index)
    }
}

/// A run of record indices reserved by — and private to — one writer
/// (Sparta keeps one in each posting list's recycled job box).
#[derive(Debug, Default)]
pub struct SlabRun {
    next: u32,
    end: u32,
    /// Commits not yet reported (`Candidates::flush` takes them).
    pub(crate) committed: usize,
}

impl SlabRun {
    /// Consumes the record last returned by [`DocSlab::stage`]: the
    /// next `stage` moves on to a fresh one.
    #[inline]
    pub fn commit(&mut self) {
        debug_assert!(self.next < self.end, "commit without a staged record");
        self.next += 1;
        self.committed += 1;
    }
}

/// A grow-only arena of `⟨id, term words⟩` records.
///
/// Concurrency contract (§4.3): term i's score is added — once per
/// record — only by the worker owning term i, by a commuting
/// `fetch_add` on its group's word. Any thread may read anything.
pub struct DocSlab {
    m: usize,
    /// Words per record: `1 + ⌈m/GROUP⌉`.
    stride: usize,
    /// Record indices handed out to runs so far.
    reserved: AtomicUsize,
    blocks: Box<[OnceLock<Box<[AtomicU64]>>]>,
    /// Blocks actually allocated — the slab's entire allocation count
    /// (excluding the fixed-size slab struct itself).
    blocks_allocated: AtomicUsize,
}

/// A borrowed view of one record: locate once, then operate.
#[derive(Clone, Copy)]
pub struct Record<'a> {
    id: &'a AtomicU64,
    terms: &'a [AtomicU64],
}

impl Record<'_> {
    fn new(words: &[AtomicU64]) -> Record<'_> {
        let (id, terms) = words.split_first().expect("a record has an id word");
        Record { id, terms }
    }

    /// The record's document id.
    #[inline]
    pub fn id(&self) -> DocId {
        // ordering: the id is stored once in stage() before the handle (model: doc_table_claim)
        // escapes through the docMap slot CAS, whose release/acquire
        // pair orders that store before any reader holding the handle;
        // the cleaner's walk only looks at records it has seen scored,
        // and scoring needs the handle too.
        self.id.load(Ordering::Relaxed) as DocId
    }

    /// Records term i's score (owner of term i only, once per record)
    /// and returns the running sum including it.
    #[inline]
    pub fn set_score(&self, i: usize, score: u32) -> u64 {
        let (g, bit) = (i / GROUP, 1u64 << (i % GROUP));
        // ordering: score and bit land in one RMW, so a reader sees (model: doc_slab_publish)
        // both or neither; the owner's later Release store of UB[i]
        // covers the write for a cleaner that snapshots UB first.
        let before = self.terms[g].fetch_add((u64::from(score) << GROUP) | bit, Ordering::AcqRel);
        debug_assert_eq!(before & bit, 0, "term {i} scored twice");
        let mut sum = (before >> GROUP) + u64::from(score);
        for (_, w) in self.terms.iter().enumerate().filter(|&(h, _)| h != g) {
            sum += w.load(Ordering::Acquire) >> GROUP;
        }
        sum
    }

    /// Whether term i's score is known (in the sum).
    #[inline]
    pub fn knows(&self, i: usize) -> bool {
        self.terms[i / GROUP].load(Ordering::Acquire) & (1 << (i % GROUP)) != 0
    }

    /// Sum of the known term scores — the record's lower bound.
    #[inline]
    pub fn current_sum(&self) -> u64 {
        self.terms
            .iter()
            .map(|w| w.load(Ordering::Acquire) >> GROUP)
            .sum()
    }

    /// Whether any term has scored this record. False for a run's
    /// unused tail and for a staged record that lost its admission.
    #[inline]
    fn is_scored(&self) -> bool {
        self.terms.iter().any(|w| w.load(Ordering::Acquire) != 0)
    }

    /// `UB(D) = sum + Σ_{i ∉ mask} bounds[i]` (Table 1) against one
    /// pass's private copy of the bounds, taken before this read.
    #[inline]
    pub fn ub(&self, bounds: &UbSnapshot) -> u64 {
        let mut ub = bounds.total();
        for (g, w) in self.terms.iter().enumerate() {
            let word = w.load(Ordering::Acquire);
            ub += word >> GROUP;
            let mut bits = word & MASK;
            while bits != 0 {
                ub -= bounds.get(g * GROUP + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
        ub
    }
}

impl DocSlab {
    /// Creates an empty slab for records of `m`-term queries.
    pub fn new(m: usize) -> Self {
        Self {
            m,
            stride: 1 + m.div_ceil(GROUP).max(1),
            reserved: AtomicUsize::new(0),
            blocks: (0..NUM_BLOCKS).map(|_| OnceLock::new()).collect(),
            blocks_allocated: AtomicUsize::new(0),
        }
    }

    /// Record indices handed out to runs so far — an upper bound on
    /// the records in use (runs have unused tails).
    pub fn reserved(&self) -> usize {
        self.reserved.load(Ordering::Acquire)
    }

    /// Blocks allocated so far — the slab's total heap-allocation
    /// count, asserted to be O(log reserved) by the accounting test.
    pub fn blocks_allocated(&self) -> usize {
        self.blocks_allocated.load(Ordering::Acquire)
    }

    /// Splits a record index into (block, word offset within block).
    #[inline]
    fn locate(&self, idx: usize) -> (usize, usize) {
        // Block b spans indices [BASE_CAP·(2^b − 1), BASE_CAP·(2^(b+1) − 1)).
        let n = idx / BASE_CAP + 1;
        let b = (usize::BITS - 1 - n.leading_zeros()) as usize;
        let start = ((1usize << b) - 1) * BASE_CAP;
        (b, (idx - start) * self.stride)
    }

    #[inline]
    fn block(&self, b: usize) -> &[AtomicU64] {
        self.blocks[b].get_or_init(|| {
            self.blocks_allocated.fetch_add(1, Ordering::AcqRel);
            let words = (BASE_CAP << b) * self.stride;
            (0..words).map(|_| AtomicU64::new(0)).collect()
        })
    }

    /// Prepares the next record of `run` for `id` — reserving a fresh
    /// run with one shared `fetch_add` if this one is spent — *without*
    /// consuming it: a caller whose admission loses its race simply
    /// stages again for the next document; the winner calls
    /// [`SlabRun::commit`].
    pub fn stage(&self, run: &mut SlabRun, id: DocId) -> DocHandle {
        if run.next == run.end {
            let start = self.reserved.fetch_add(RUN, Ordering::AcqRel);
            // `u32::MAX` itself is not a handle: DocTable stores
            // `handle + 1` in 32 bits.
            assert!(start + RUN <= u32::MAX as usize, "DocSlab overflow");
            run.next = start as u32;
            run.end = (start + RUN) as u32;
        }
        let (b, off) = self.locate(run.next as usize);
        // ordering: the handle only reaches another thread through the (model: doc_table_claim)
        // docMap slot CAS (or, in tests, a lock) that follows; its
        // release edge publishes this store.
        self.block(b)[off].store(u64::from(id), Ordering::Relaxed);
        DocHandle(run.next)
    }

    /// The record `h` refers to.
    #[inline]
    pub fn record(&self, h: DocHandle) -> Record<'_> {
        let (b, off) = self.locate(h.0 as usize);
        let block = self.blocks[b].get().expect("handle into unallocated block");
        Record::new(&block[off..off + self.stride])
    }

    /// Visits, in index order, every record some term has scored —
    /// everything admitted, minus unused run tails and staged records
    /// that lost their admission. (A record admitted but not yet
    /// scored is skipped too; once `UBStop` holds such a record has
    /// `UB(D) = Σ UB[i] ≤ Θ` and could never qualify anyway.)
    pub fn for_each_scored<F: FnMut(DocHandle, Record<'_>)>(&self, mut f: F) {
        let mut remaining = self.reserved();
        let mut idx = 0u32;
        for (b, slot) in self.blocks.iter().enumerate() {
            if remaining == 0 {
                break;
            }
            let in_block = remaining.min(BASE_CAP << b);
            remaining -= in_block;
            // A block whose runs are all reserved-but-unstaged may not
            // exist yet.
            if let Some(block) = slot.get() {
                for (r, words) in block.chunks_exact(self.stride).take(in_block).enumerate() {
                    let rec = Record::new(words);
                    if rec.is_scored() {
                        f(DocHandle(idx + r as u32), rec);
                    }
                }
            }
            idx += in_block as u32;
        }
    }
}

impl std::fmt::Debug for DocSlab {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DocSlab")
            .field("m", &self.m)
            .field("reserved", &self.reserved())
            .field("blocks_allocated", &self.blocks_allocated())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparta::SharedUb;
    use std::sync::Arc;

    /// Admits a record outright: stage, then commit.
    fn alloc(slab: &DocSlab, run: &mut SlabRun, id: DocId) -> DocHandle {
        let h = slab.stage(run, id);
        run.commit();
        h
    }

    fn snapshot(ub: &SharedUb, gamma: f64) -> UbSnapshot {
        let mut s = UbSnapshot::default();
        ub.snapshot_into(gamma, &mut s);
        s
    }

    #[test]
    fn record_is_an_id_word_plus_one_word_per_27_terms() {
        let record_bytes = |m| DocSlab::new(m).stride * std::mem::size_of::<AtomicU64>();
        for (m, bytes) in [(1, 16), (12, 16), (27, 16), (28, 24), (70, 32)] {
            assert_eq!(record_bytes(m), bytes, "m = {m}");
        }
    }

    #[test]
    fn a_full_group_at_u32_max_sums_exactly() {
        let m = GROUP;
        let ub = SharedUb::new(m);
        let slab = DocSlab::new(m);
        let rec = slab.record(alloc(&slab, &mut SlabRun::default(), 1));
        let max = u64::from(u32::MAX);
        for i in 0..m {
            assert_eq!(rec.set_score(i, u32::MAX), (i as u64 + 1) * max);
        }
        assert_eq!(rec.current_sum(), m as u64 * max);
        assert!((0..m).all(|i| rec.knows(i)), "full mask");
        // Every term known: UB(D) is the sum, whatever the bounds.
        assert_eq!(rec.ub(&snapshot(&ub, 1.0)), m as u64 * max);
    }

    #[test]
    fn terms_straddling_a_word_boundary_do_not_bleed() {
        let m = 70;
        let ub = SharedUb::new(m);
        for i in 0..m {
            ub.set(i, 100);
        }
        let slab = DocSlab::new(m);
        for pair in [[26, 27], [53, 54]] {
            for i in pair {
                let rec = slab.record(alloc(&slab, &mut SlabRun::default(), 1));
                assert_eq!(rec.set_score(i, u32::MAX), u64::from(u32::MAX));
                for j in 0..m {
                    assert_eq!(rec.knows(j), j == i, "scored {i}, asked {j}");
                }
                let ub_d = u64::from(u32::MAX) + (m as u64 - 1) * 100;
                assert_eq!(rec.ub(&snapshot(&ub, 1.0)), ub_d, "scored {i}");
            }
        }
    }

    #[test]
    fn record_roundtrip() {
        let slab = DocSlab::new(3);
        let mut run = SlabRun::default();
        let h = alloc(&slab, &mut run, 57);
        let rec = slab.record(h);
        assert_eq!(rec.id(), 57);
        assert_eq!(rec.current_sum(), 0);
        assert_eq!(rec.set_score(0, 11), 11);
        assert_eq!(rec.set_score(2, 41), 52);
        assert!(rec.knows(0) && !rec.knows(1) && rec.knows(2));
        assert_eq!(rec.current_sum(), 52);
    }

    #[test]
    fn figure_1_ub() {
        // UB = [38, 32, 41]; D57 knows terms 2 and 3 (40, 41).
        let ub = SharedUb::new(3);
        ub.set(0, 38);
        ub.set(1, 32);
        ub.set(2, 41);
        let slab = DocSlab::new(3);
        let h = alloc(&slab, &mut SlabRun::default(), 57);
        let rec = slab.record(h);
        rec.set_score(1, 40);
        rec.set_score(2, 41);
        assert_eq!(rec.ub(&snapshot(&ub, 1.0)), 38 + 40 + 41);
        // γ-scaled: the one unknown term is discounted.
        assert_eq!(rec.ub(&snapshot(&ub, 0.5)), 19 + 40 + 41);
    }

    #[test]
    fn three_term_words_for_wide_queries() {
        let m = 70;
        let ub = SharedUb::new(m);
        for i in 0..m {
            ub.set(i, 10);
        }
        let slab = DocSlab::new(m);
        let h = alloc(&slab, &mut SlabRun::default(), 1);
        let rec = slab.record(h);
        rec.set_score(3, 5);
        rec.set_score(64, 6);
        rec.set_score(69, 7);
        assert!(rec.knows(64) && rec.knows(69) && !rec.knows(63) && !rec.knows(65));
        assert_eq!(rec.ub(&snapshot(&ub, 1.0)), 18 + 67 * 10);
    }

    #[test]
    fn geometric_blocks_cover_many_records() {
        let slab = DocSlab::new(2);
        let n = 10_000usize;
        let mut run = SlabRun::default();
        let handles: Vec<DocHandle> = (0..n).map(|i| alloc(&slab, &mut run, i as DocId)).collect();
        assert_eq!(slab.reserved(), n.next_multiple_of(RUN));
        for (i, &h) in handles.iter().enumerate() {
            assert_eq!(slab.record(h).id() as usize, i, "stable address for {i}");
        }
        // 10_000 records with BASE_CAP=256 fit in blocks 0..=5
        // (256·(2^6−1) = 16_128 ≥ 10_000): O(log n) allocations.
        assert!(
            slab.blocks_allocated() <= 6,
            "blocks = {}",
            slab.blocks_allocated()
        );
    }

    #[test]
    fn locate_block_boundaries() {
        let slab = DocSlab::new(1);
        // First index of each block: BASE_CAP·(2^b − 1).
        for b in 0..5usize {
            let first = ((1usize << b) - 1) * BASE_CAP;
            assert_eq!(slab.locate(first), (b, 0), "first index of block {b}");
            if b > 0 {
                let last_prev = first - 1;
                let (pb, poff) = slab.locate(last_prev);
                assert_eq!(pb, b - 1, "last index of block {}", b - 1);
                assert_eq!(poff / slab.stride, (BASE_CAP << (b - 1)) - 1);
            }
        }
    }

    #[test]
    fn staged_but_lost_records_are_reused_and_never_walked() {
        let slab = DocSlab::new(2);
        let mut run = SlabRun::default();
        let a = alloc(&slab, &mut run, 10);
        slab.record(a).set_score(0, 1);
        // Staged for doc 11, lost the race: not committed…
        let lost = slab.stage(&mut run, 11);
        // …so the same record serves the next admission.
        let b = alloc(&slab, &mut run, 12);
        assert_eq!(lost, b);
        assert_eq!(slab.record(b).id(), 12);
        slab.record(b).set_score(1, 2);
        // A final staged-and-lost record plus the run's tail stay
        // unscored and are never visited.
        slab.stage(&mut run, 13);
        let mut walked = Vec::new();
        slab.for_each_scored(|h, rec| walked.push((h, rec.id())));
        assert_eq!(walked, vec![(a, 10), (b, 12)]);
        assert_eq!(slab.reserved(), RUN);
    }

    #[test]
    fn concurrent_admission_and_owner_writes() {
        let slab = Arc::new(DocSlab::new(4));
        // 4 workers admit disjoint documents from their own runs and
        // each scores its own term — the §4.3 contract.
        let handles: Arc<parking_lot::Mutex<Vec<DocHandle>>> =
            Arc::new(parking_lot::Mutex::new(Vec::new()));
        std::thread::scope(|s| {
            for w in 0..4u32 {
                let slab = Arc::clone(&slab);
                let handles = Arc::clone(&handles);
                s.spawn(move || {
                    let mut run = SlabRun::default();
                    for i in 0..500u32 {
                        let h = alloc(&slab, &mut run, w * 500 + i);
                        slab.record(h).set_score(w as usize, w + 1);
                        handles.lock().push(h);
                    }
                });
            }
        });
        let handles = handles.lock();
        let mut ids: Vec<DocId> = handles.iter().map(|&h| slab.record(h).id()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 2000, "no two handles share a record");
        let total: u64 = handles.iter().map(|&h| slab.record(h).current_sum()).sum();
        assert_eq!(total, 500 * (1 + 2 + 3 + 4));
        let mut walked = 0;
        slab.for_each_scored(|_, _| walked += 1);
        assert_eq!(walked, 2000, "the walk sees admissions, not run tails");
    }
}
