//! The candidate substrate Sparta, pNRA, pJASS and sequential NRA (so
//! each sNRA shard) share (DESIGN.md §10): a run's records in a
//! [`DocSlab`] behind one open [`CandidateMap`] (Alg. 1's first
//! `docMap`). The map is a [`DenseDocTable`] — one 4-byte slot per
//! document, a lookup is one load — whenever that array is no larger
//! than the [`DocTable`] sized `min(Σ df, num_docs)` (a true bound, as
//! `num_docs` bounds every doc id) would be; otherwise it is that
//! hashed table. Sparta's cleaner rebuilds each pruned map by the same
//! rule. On the hashed path only, ids sharing a home slot can fill its
//! 128-slot probe window; that admission abandons the run, and
//! [`until_fits`] restarts at `max(2·cap, Σ df)`.
//! Admission is allocation-free (`sparta-lint`'s `alloc` rule).
//!
//! Their segment jobs read a list a [`Segment`] at a time: one
//! `next_segment` fetch, then a *resolve pass* that looks every posting
//! up with loads only. The lookups are independent of one another, so
//! their cache misses overlap; the per-posting pass that follows admits
//! only the misses, in list order.

use super::doc_slab::{DocHandle, DocSlab, SlabRun};
use sparta_collections::{DenseDocTable, DocTable, Lookup};
use sparta_corpus::types::{DocId, Query};
use sparta_index::{Index, Posting, ScoreCursor};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// One `docMap` version's `doc id → handle` table: doc-indexed when
/// the array is no larger than the hashed table for the same entries.
/// A derived choice, not a setting.
pub(crate) enum CandidateMap {
    /// One slot per document id below `num_docs`.
    Dense(DenseDocTable),
    /// Open addressing, sized for the entries; the corpus is much
    /// larger than they are.
    Hashed(DocTable),
}

impl CandidateMap {
    /// Whether `cap` entries over ids below `num_docs` take the dense
    /// table: `4 · num_docs ≤ 8 · next_pow2(max(2 · cap, 16))`.
    fn dense_fits(num_docs: u64, cap: usize) -> bool {
        let dense = DenseDocTable::footprint(num_docs as usize);
        dense <= DocTable::footprint(cap)
    }

    /// An open, empty map for up to `cap` documents below `num_docs`.
    fn open(num_docs: u64, cap: u64) -> Self {
        let cap = cap.min(u64::from(u32::MAX)) as usize;
        if Self::dense_fits(num_docs, cap) {
            Self::Dense(DenseDocTable::with_capacity(num_docs as usize))
        } else {
            Self::Hashed(DocTable::with_capacity(cap))
        }
    }

    /// A complete, sealed map holding exactly `entries` (distinct
    /// documents below `num_docs`), built privately: Sparta's rebuilt
    /// `docMap`.
    pub(crate) fn from_entries<I>(num_docs: u64, entries: I) -> Self
    where
        I: IntoIterator<Item = (DocId, u32)>,
        I::IntoIter: ExactSizeIterator,
    {
        let entries = entries.into_iter();
        if Self::dense_fits(num_docs, entries.len()) {
            Self::Dense(DenseDocTable::from_entries(num_docs as usize, entries))
        } else {
            Self::Hashed(DocTable::from_entries(entries))
        }
    }

    /// `doc`'s handle, if admitted. Loads only.
    #[inline]
    pub(crate) fn get(&self, doc: DocId) -> Option<DocHandle> {
        match self {
            Self::Dense(t) => t.get(doc),
            Self::Hashed(t) => t.get(doc),
        }
        .map(DocHandle::from_index)
    }

    /// Entries reported so far (see `DocTable::len`).
    #[inline]
    pub(crate) fn len(&self) -> usize {
        match self {
            Self::Dense(t) => t.len(),
            Self::Hashed(t) => t.len(),
        }
    }

    #[inline]
    fn get_or_try_insert_with(
        &self,
        doc: DocId,
        allow: bool,
        make: impl FnOnce() -> u32,
    ) -> Lookup {
        match self {
            Self::Dense(t) => t.get_or_try_insert_with(doc, allow, make),
            Self::Hashed(t) => t.get_or_try_insert_with(doc, allow, make),
        }
    }

    #[inline]
    fn add_len(&self, n: usize) {
        match self {
            Self::Dense(t) => t.add_len(n),
            Self::Hashed(t) => t.add_len(n),
        }
    }
}

/// One query run's candidates. Aligned: every posting reads the table
/// header and `done`, which must not share a line with the heap's
/// per-update writes.
#[repr(align(128))]
pub(crate) struct Candidates {
    /// The run's record arena, shared with whatever ranks the records.
    pub(crate) slab: Arc<DocSlab>,
    /// The open map; insert only through [`admit`](Self::admit).
    pub(crate) table: CandidateMap,
    /// The index's document count: every id is below it.
    pub(crate) num_docs: u64,
    /// The run is over: its algorithm stopped it, or it was abandoned.
    done: AtomicBool,
    /// An admission found its probe window full: the run is abandoned.
    full: AtomicBool,
}

impl Candidates {
    /// Empty candidates for an `m`-term query over ids below
    /// `num_docs`, the map sized for `cap` distinct documents.
    pub(crate) fn new(m: usize, cap: u64, num_docs: u64) -> Self {
        Self {
            // lint: allow(alloc): the run's slab, once per run
            slab: Arc::new(DocSlab::new(m)),
            table: CandidateMap::open(num_docs, cap),
            num_docs,
            done: AtomicBool::new(false),
            full: AtomicBool::new(false),
        }
    }

    /// `doc`'s record, admitted from `run` if absent and `allow` holds
    /// (a lost race adopts the winner's). `None` if not admitted, or if
    /// a hashed map's probe window is full, which abandons the run.
    #[inline]
    pub(crate) fn admit(&self, run: &mut SlabRun, doc: DocId, allow: bool) -> Option<DocHandle> {
        let make = || self.slab.stage(run, doc).index();
        match self.table.get_or_try_insert_with(doc, allow, make) {
            Lookup::Found(h) => Some(DocHandle::from_index(h)),
            Lookup::Inserted(h) => {
                run.commit();
                Some(DocHandle::from_index(h))
            }
            Lookup::Absent => None,
            Lookup::Full => {
                self.full.store(true, Ordering::Relaxed);
                self.stop();
                None
            }
        }
    }

    /// Reports `run`'s admissions since its last flush: one shared RMW
    /// per segment.
    #[inline]
    pub(crate) fn flush(&self, run: &mut SlabRun) {
        self.table.add_len(std::mem::take(&mut run.committed));
    }

    /// Whether the run is over (stopped or abandoned).
    #[inline]
    pub(crate) fn is_done(&self) -> bool {
        self.done.load(Ordering::Acquire)
    }

    /// Ends the run: the algorithm's own stop (Eq. 2, Δ, the p-budget).
    pub(crate) fn stop(&self) {
        self.done.store(true, Ordering::Release);
    }
}

/// One segment job's scratch: its current segment's postings, and the
/// record the resolve pass found for each. Made with the job box and
/// refilled in place, so fetching and resolving allocate nothing.
pub(crate) struct Segment {
    postings: Vec<Posting>,
    found: Vec<Option<DocHandle>>,
}

impl Segment {
    /// Scratch for segments of up to `seg_size` postings of `cursor`'s
    /// list — no larger than the list, whatever `seg_size` is.
    pub(crate) fn new(cursor: &dyn ScoreCursor, seg_size: usize) -> Self {
        let cap = usize::try_from(cursor.len()).map_or(seg_size, |len| len.min(seg_size));
        Self {
            // lint: allow(alloc): the job's scratch, once per job
            postings: Vec::with_capacity(cap),
            // lint: allow(alloc): the job's scratch, once per job
            found: Vec::with_capacity(cap),
        }
    }

    /// Fetches the next up to `n` postings from `cursor` and resolves
    /// each in `map` with loads only: a miss is left to the caller's
    /// per-posting pass, and a handle found is what an admission would
    /// return, as the map is insert-only. The representation is matched
    /// once per segment, not per posting. Returns whether the list is
    /// exhausted — a short delivery (the `next_segment` contract).
    #[inline]
    pub(crate) fn fetch(
        &mut self,
        cursor: &mut dyn ScoreCursor,
        n: usize,
        map: &CandidateMap,
    ) -> bool {
        match map {
            CandidateMap::Dense(t) => {
                self.fetch_with(cursor, n, |d| t.get(d).map(DocHandle::from_index))
            }
            CandidateMap::Hashed(t) => {
                self.fetch_with(cursor, n, |d| t.get(d).map(DocHandle::from_index))
            }
        }
    }

    /// [`fetch`](Self::fetch), resolving through `lookup`, which must
    /// only load (Sparta's `termMap`).
    #[inline]
    pub(crate) fn fetch_with(
        &mut self,
        cursor: &mut dyn ScoreCursor,
        n: usize,
        lookup: impl Fn(DocId) -> Option<DocHandle>,
    ) -> bool {
        let delivered = cursor.next_segment(n, &mut self.postings);
        self.found.clear();
        self.found
            .extend(self.postings.iter().map(|p| lookup(p.doc)));
        delivered < n
    }

    /// The segment's postings in list order, each with what the resolve
    /// pass found.
    #[inline]
    pub(crate) fn iter(&self) -> impl Iterator<Item = (Posting, Option<DocHandle>)> + '_ {
        self.postings
            .iter()
            .copied()
            .zip(self.found.iter().copied())
    }
}

/// Σ df over `query`'s terms: every posting a run over `index` can read.
pub(crate) fn postings(index: &dyn Index, query: &Query) -> u64 {
    query.terms.iter().map(|&t| index.doc_freq(t)).sum()
}

/// Runs an `m`-term query over fresh [`Candidates`] until a run is not
/// abandoned and returns it; `candidates` finds them in what `run`
/// returns. The query reads `postings` postings of ids below `num_docs`.
/// A run on a dense map is never abandoned, so only the hashed path
/// can loop.
pub(crate) fn until_fits<R>(
    m: usize,
    postings: u64,
    num_docs: u64,
    mut run: impl FnMut(Candidates) -> R,
    candidates: impl Fn(&R) -> &Candidates,
) -> R {
    let mut cap = postings.min(num_docs);
    loop {
        let r = run(Candidates::new(m, cap, num_docs));
        // The run's workers are joined: a flag, not a publication.
        if !candidates(&r).full.load(Ordering::Relaxed) {
            return r;
        }
        cap = cap.saturating_mul(2).max(postings);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::Oracle;
    use crate::pjass::PJass;
    use crate::pnra::PNra;
    use crate::snra::SNra;
    use crate::sparta::Sparta;
    use crate::{Algorithm, SearchConfig};
    use sparta_exec::WorkerPool;
    use sparta_index::storage::IndexWriter;
    use sparta_index::{CompressedIndex, DiskIndex, InMemoryIndex, IoModel};

    /// Terms over docs `0..n`, term t holding `lens[t]` of them, with
    /// scores spread wide enough that ties are rare.
    fn lists(lens: &[u32], n: u32) -> Vec<Vec<Posting>> {
        (0..lens.len() as u32)
            .map(|t| {
                (0..lens[t as usize])
                    .map(|j| {
                        let d = (j * 7 + t * 31) % n;
                        let x = d.wrapping_mul(2654435761).wrapping_add(t * 193);
                        Posting::new(d, x.wrapping_mul(2246822519) % 50_000 + 1)
                    })
                    .collect()
            })
            .collect()
    }

    /// Each algorithm that admits into [`Candidates`] returns `want`'s
    /// top-k over `ix` at 1 and 3 threads, with no job lost.
    fn exact_at_one_and_three_threads(ix: &Arc<dyn Index>, cfg: SearchConfig, ctx: &str) {
        let q = Query::new((0..ix.num_terms()).collect());
        let want = Oracle::compute(ix.as_ref(), &q, cfg.k);
        let algos: [&dyn Algorithm; 4] = [&Sparta, &PNra, &PJass, &SNra];
        for algo in algos {
            for threads in [1, 3] {
                let ctx = format!("{ctx}, {} t={threads}", algo.name());
                let r = algo.search(ix, &q, &cfg, &WorkerPool::new(threads));
                assert_eq!(want.recall(&r.docs()), 1.0, "{ctx}: {:?}", r.docs());
                assert_eq!(r.work.jobs_panicked, 0, "{ctx}");
            }
        }
    }

    /// Every list a multiple of the segment size: each job's last fetch
    /// is empty, and that empty delivery alone ends the list.
    #[test]
    fn lists_ending_on_a_segment_boundary_stay_exact() {
        let ix: Arc<dyn Index> = Arc::new(InMemoryIndex::from_term_postings(
            lists(&[64, 192, 640], 1000),
            1000,
        ));
        let cfg = SearchConfig::exact(10).with_seg_size(64).with_phi(128);
        exact_at_one_and_three_threads(&ix, cfg, "seg 64");
    }

    /// `usize::MAX` is a valid segment size — one fetch reads a whole
    /// list — on every backend. It once overflowed the raw cursor.
    #[test]
    fn one_segment_per_list_stays_exact_on_every_backend() {
        let lists = lists(&[300, 900, 1500], 2000);
        let dir = std::env::temp_dir().join(format!("sparta-core-seg-max-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut w = IndexWriter::create(&dir, 2000, lists.len() as u32, 64).unwrap();
        for l in &lists {
            w.add_term(l.clone()).unwrap();
        }
        w.finish().unwrap();
        let disk = DiskIndex::open(&dir, IoModel::free()).unwrap();
        // The reader keeps its files open.
        std::fs::remove_dir_all(&dir).unwrap();
        let backends: [(&str, Arc<dyn Index>); 3] = [
            (
                "raw",
                Arc::new(InMemoryIndex::from_term_postings(lists.clone(), 2000)),
            ),
            (
                "compressed",
                Arc::new(CompressedIndex::from_term_postings(lists, 2000)),
            ),
            ("disk", Arc::new(disk)),
        ];
        let cfg = SearchConfig::exact(10).with_seg_size(usize::MAX);
        for (name, ix) in &backends {
            exact_at_one_and_three_threads(ix, cfg, name);
        }
    }

    /// An honest index whose 160 ids all share one home slot of the
    /// first (hashed) table a two-term query over them sizes — picked as
    /// `doc_table.rs`'s `a_crowded_window_is_full_long_before_the_table_is`
    /// picks them. The 129th admission finds the window full while the
    /// table is under an eighth full; Sparta, pNRA, pJASS, and at one
    /// thread sNRA (whose one `run_nra` shard then holds every id), must
    /// each abandon that run and answer from a restarted one: exact,
    /// with no panic, and with nothing of the abandoned run in the
    /// reported work. Without the restart the first run's partial top-k
    /// is returned.
    #[test]
    fn a_crowded_window_restarts_the_run_and_stays_exact() {
        const IDS: usize = 160;
        const M: u32 = 2;
        let postings = M as usize * IDS;
        // min(Σ df, num_docs) = Σ df: the ids run to ~160 · 2^10.
        let first = DocTable::with_capacity(postings);
        let home = first.home(0);
        let ids: Vec<DocId> = (0..=u32::MAX)
            .filter(|&d| first.home(d) == home)
            .take(IDS)
            .collect();
        let lists = (0..M)
            .map(|t| {
                let score = |j: usize| (j as u32 * 7 + t * 13) % 97 + 1;
                ids.iter()
                    .enumerate()
                    .map(|(j, &d)| Posting::new(d, score(j)))
                    .collect()
            })
            .collect();
        let num_docs = u64::from(ids[IDS - 1]) + 1;
        // The ids span ~2^17 documents, far more than 320 postings'
        // hashed table: the restart is the hashed path's, and the
        // dense path would leave this test nothing to exercise.
        let cands = Candidates::new(M as usize, postings as u64, num_docs);
        assert!(matches!(cands.table, CandidateMap::Hashed(_)));
        let ix: Arc<dyn Index> = Arc::new(InMemoryIndex::from_term_postings(lists, num_docs));
        let q = Query::new((0..M).collect());
        // k > 128 keeps Θ at 0 until more than 128 ids are admitted, so
        // every algorithm's first run reaches the crowded window.
        let k = 140;
        let want = Oracle::compute(ix.as_ref(), &q, k);
        let cfg = SearchConfig::exact(k).with_seg_size(64);
        let runs: [(&dyn Algorithm, &[usize]); 4] = [
            (&Sparta, &[1, 3]),
            (&PNra, &[1, 3]),
            (&PJass, &[1, 3]),
            (&SNra, &[1]),
        ];
        for (algo, threads) in runs {
            for &threads in threads {
                let ctx = format!("{} t={threads}", algo.name());
                let r = algo.search(&ix, &q, &cfg, &WorkerPool::new(threads));
                assert_eq!(want.recall(&r.docs()), 1.0, "{ctx}: {:?}", r.docs());
                assert_eq!(r.work.jobs_panicked, 0, "{ctx}");
                assert!(
                    r.work.postings_scanned <= postings as u64,
                    "{ctx}: {} postings scanned",
                    r.work.postings_scanned
                );
            }
        }
    }

    /// The dense table is picked exactly while its 4 bytes per document
    /// are no more than the hashed table's 8 bytes per slot, for the
    /// first map and for a rebuilt one alike.
    #[test]
    fn the_map_is_dense_while_it_is_no_larger_than_the_hashed_one() {
        let dense = |t: &CandidateMap| matches!(t, CandidateMap::Dense(_));
        // 1000 entries: 2048 hashed slots, 16 KiB = 4096 documents.
        assert!(dense(&Candidates::new(2, 1000, 4096).table));
        assert!(!dense(&Candidates::new(2, 1000, 4097).table));
        // The smallest hashed table, 16 slots, is 128 B = 32 documents.
        assert!(dense(&Candidates::new(2, 0, 32).table));
        assert!(!dense(&Candidates::new(2, 0, 33).table));
        // The capacity clamps to the id space before sizing.
        assert!(dense(&Candidates::new(2, u64::MAX, 1 << 20).table));
        let entries = |n: u32| (0..n).map(|d| (d * 3, d));
        for (num_docs, want) in [(4096, true), (4097, false)] {
            let t = CandidateMap::from_entries(num_docs, entries(1000));
            assert_eq!(dense(&t), want, "rebuilt over {num_docs} docs");
            assert_eq!(t.len(), 1000);
            assert_eq!(t.get(2997).map(DocHandle::index), Some(999));
            assert_eq!(t.get(2998), None);
        }
    }

    /// Sparta's cleaner rebuilds each pruned map by the first map's
    /// rule. Here every rebuilt map holds at least the k = 200 heap
    /// members, over 1000 documents, so each is dense; Φ = 0 keeps every
    /// lookup on the shared map rather than a `termMap`. The run must
    /// end on a rebuilt dense map and answer exactly at 1 and 3 threads.
    #[test]
    fn a_rebuilt_map_is_dense_by_the_same_rule_and_stays_exact() {
        use super::super::{run_once, DocMap};
        let ix: Arc<dyn Index> = Arc::new(InMemoryIndex::from_term_postings(
            lists(&[1000, 900, 800], 1000),
            1000,
        ));
        let q = Query::new((0..ix.num_terms()).collect());
        let k = 200;
        assert!(CandidateMap::dense_fits(ix.num_docs(), k));
        let want = Oracle::compute(ix.as_ref(), &q, k);
        let cfg = SearchConfig::exact(k).with_seg_size(32).with_phi(0);
        for threads in [1, 3] {
            let cands = Candidates::new(3, postings(ix.as_ref(), &q), ix.num_docs());
            let (state, queue) = run_once(&ix, &q, &cfg, &WorkerPool::new(threads), cands);
            assert_eq!(queue.panicked(), 0, "t={threads}");
            let map = state.doc_map.load();
            assert!(
                matches!(
                    *map,
                    DocMap::Rebuilt {
                        table: CandidateMap::Dense(_),
                        ..
                    }
                ),
                "t={threads}: the final map is not a rebuilt dense one"
            );
            let docs: Vec<DocId> = state.heap.sorted_hits().iter().map(|h| h.doc).collect();
            assert_eq!(want.recall(&docs), 1.0, "t={threads}: {docs:?}");
        }
    }
}
