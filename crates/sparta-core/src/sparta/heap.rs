//! Sparta's shared document heap with lazy lower-bound refresh.
//!
//! "Updates of docHeap and Θ are protected by a shared lock, which
//! serializes all updates. To avoid races around evaluating a
//! [document record]'s lower bound and inserting it into docHeap, we
//! update the lower bound in a lazy manner while holding the global
//! lock on docHeap: Every thread that adds a document to the heap
//! updates the lower bounds of all heap documents" (§4.3, Alg. 1 lines
//! 26–38).
//!
//! Refreshing all k members on every insert is k random record reads
//! under the one lock every worker contends for. Only two facts about
//! the members are ever used — which one has the smallest LB (the
//! eviction victim) and what that LB is (Θ) — so the members are kept
//! as a binary min-heap on their **cached** key `(lb, doc)` and only
//! the root is refreshed ("settled"): re-read its sum, and if it grew,
//! store the new LB and sift it down; repeat until the root's cached
//! LB is fresh.
//!
//! Why that is the same answer. A record's sum only grows, so a cached
//! LB is never above the true one. The heap order holds on cached
//! keys, so once the root's cached LB equals its true LB,
//!
//! ```text
//! true(root) = cached(root) ≤ cached(x) ≤ true(x)   for every member x
//! ```
//!
//! and ties fall to the smaller doc id exactly as a pass over fresh
//! `(lb, doc)` keys would break them: a member tied with the root on
//! true LB has cached LB ≤ that, hence equal, and then the heap order
//! already put the smaller id on top. So the settled root *is* the
//! minimum of all k (or k + 1) fresh keys. Θ, the victim, `update`'s
//! return value, the update count, the traced `(doc, lb)` and
//! [`sorted_hits`](SpartaHeap::sorted_hits) (which re-reads every sum)
//! therefore equal the refresh-everything version's whenever no score
//! changes during the call — always under one thread or the
//! deterministic executor. With scores racing on real threads Θ is
//! still what NRA needs: at the moment the root settles, all k members
//! have true LB ≥ Θ, so Θ is a lower bound on the k-th best LB.
//!
//! Settling terminates: every iteration that does not stop saw a
//! member's sum grow since it was cached, and a record's sum changes
//! at most m times (once per query term).

use super::doc_slab::{DocHandle, DocSlab};
use crate::result::SearchHit;
use crate::staleness::Staleness;
use crate::trace::TraceSink;
use parking_lot::Mutex;
use sparta_collections::{FastBuildHasher, FastHashSet};
use sparta_corpus::types::DocId;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// One heap member. The lazily refreshed `lb` is only ever read or
/// written under the heap lock, so it lives here — in the lock's own
/// data — rather than as an atomic word in every candidate record; the
/// id rides along so ranking members never dereferences a record.
struct Entry {
    handle: DocHandle,
    doc: DocId,
    lb: u64,
}

impl Entry {
    /// The cached ordering key; the doc id breaks LB ties.
    #[inline]
    fn key(&self) -> (u64, DocId) {
        (self.lb, self.doc)
    }
}

struct Inner {
    /// Binary min-heap on [`Entry::key`] (see the module docs).
    docs: Vec<Entry>,
    members: FastHashSet<DocId>,
}

/// Restores the heap order after a push: moves the last entry up.
fn sift_up(docs: &mut [Entry]) {
    let mut i = docs.len() - 1;
    while i > 0 {
        let parent = (i - 1) / 2;
        if docs[parent].key() <= docs[i].key() {
            break;
        }
        docs.swap(parent, i);
        i = parent;
    }
}

/// Restores the heap order after the root's key grew.
fn sift_down(docs: &mut [Entry]) {
    let mut i = 0;
    loop {
        let mut min = i;
        for child in [2 * i + 1, 2 * i + 2] {
            if child < docs.len() && docs[child].key() < docs[min].key() {
                min = child;
            }
        }
        if min == i {
            break;
        }
        docs.swap(i, min);
        i = min;
    }
}

/// The shared `docHeap` of Algorithm 1 over one query's [`DocSlab`]:
/// members are [`DocHandle`]s, their lower bounds the records' sums.
pub struct SpartaHeap {
    slab: Arc<DocSlab>,
    k: usize,
    inner: Mutex<Inner>,
    theta: AtomicU64,
    len: AtomicUsize,
    staleness: Staleness,
    updates: AtomicU64,
}

impl SpartaHeap {
    /// Creates an empty heap of capacity `k` whose records live in
    /// `slab`; `heapUpdTime` is initialized to "now" (Table 1).
    pub fn new(slab: Arc<DocSlab>, k: usize) -> Self {
        assert!(k >= 1);
        Self {
            slab,
            k,
            inner: Mutex::new(Inner {
                docs: Vec::with_capacity(k + 1),
                members: FastHashSet::with_capacity_and_hasher(k + 1, FastBuildHasher),
            }),
            theta: AtomicU64::new(0),
            len: AtomicUsize::new(0),
            staleness: Staleness::new(),
            updates: AtomicU64::new(0),
        }
    }

    /// Θ — the lowest LB of the k members once the heap is full, else 0
    /// (lock-free read; workers poll this on every posting).
    #[inline]
    pub fn theta(&self) -> u64 {
        self.theta.load(Ordering::Acquire)
    }

    /// Current member count (lock-free; used by the cleaner's
    /// `|docMap| = |docHeap|` stopping check).
    #[inline]
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// Whether the heap is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// UPDATE_HEAP(D) (Alg. 1 lines 26–38). Returns whether the heap
    /// changed. The caller pre-filters with
    /// `D.current_sum() > theta()` (line 23).
    pub fn update(&self, d: &DocHandle, trace: &TraceSink) -> bool {
        let id = self.slab.record(*d).id();
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        if !inner.members.insert(id) {
            // Line 28: only documents not already present are
            // (re)inserted; a member's LB refreshes when it is the root.
            return false;
        }
        let lb = self.slab.record(*d).current_sum();
        inner.docs.push(Entry {
            handle: *d,
            doc: id,
            lb,
        });
        sift_up(&mut inner.docs);
        if inner.docs.len() > self.k {
            // Lines 33–34: evict the lowest-scored doc beyond capacity.
            self.settle_root(&mut inner.docs);
            let evicted = inner.docs.swap_remove(0);
            sift_down(&mut inner.docs);
            inner.members.remove(&evicted.doc);
        }
        // Lines 35–36: Θ becomes the lowest member LB once full.
        if inner.docs.len() == self.k {
            self.settle_root(&mut inner.docs);
            self.theta.store(inner.docs[0].lb, Ordering::Release);
        }
        self.len.store(inner.docs.len(), Ordering::Release);
        drop(guard);
        // Line 37: heapUpdTime ← current time.
        self.staleness.stamp();
        self.updates.fetch_add(1, Ordering::Relaxed);
        trace.record(id, lb);
        true
    }

    /// Republishes Θ after a member's sum grew, which `update` ignores.
    /// Sequential NRA calls it on each such growth, so its Θ is always
    /// the k-th best fresh LB — at most k · m calls per query.
    pub fn refresh_theta(&self) {
        let mut inner = self.inner.lock();
        if inner.docs.len() == self.k {
            self.settle_root(&mut inner.docs);
            self.theta.store(inner.docs[0].lb, Ordering::Release);
        }
    }

    /// Lines 30–32, lazily: refreshes the root's LB until the cached
    /// value is fresh, which makes the root the member with the
    /// smallest *true* `(lb, doc)` (see the module docs).
    fn settle_root(&self, docs: &mut [Entry]) {
        loop {
            let fresh = self.slab.record(docs[0].handle).current_sum();
            if fresh == docs[0].lb {
                return;
            }
            docs[0].lb = fresh;
            sift_down(docs);
        }
    }

    /// Whether `doc` is currently in the heap.
    #[cfg(test)]
    fn contains(&self, doc: DocId) -> bool {
        self.inner.lock().members.contains(&doc)
    }

    /// Copies the member ids into `out` (one lock acquisition per
    /// pass rather than per document). A caller that keeps `out`
    /// between passes pays for its allocation once.
    pub fn members_snapshot_into(&self, out: &mut FastHashSet<DocId>) {
        out.clone_from(&self.inner.lock().members);
    }

    /// Δ's clock, stamped by every successful [`update`](Self::update).
    pub fn staleness(&self) -> &Staleness {
        &self.staleness
    }

    /// Successful updates so far.
    pub fn update_count(&self) -> u64 {
        self.updates.load(Ordering::Relaxed)
    }

    /// Final results in rank order by LB (refreshing LBs one last
    /// time under the lock).
    pub fn sorted_hits(&self) -> Vec<SearchHit> {
        let inner = self.inner.lock();
        let mut hits: Vec<SearchHit> = inner
            .docs
            .iter()
            .map(|e| SearchHit {
                doc: e.doc,
                score: self.slab.record(e.handle).current_sum(),
            })
            .collect();
        drop(inner);
        hits.sort_unstable_by(|a, b| b.score.cmp(&a.score).then(b.doc.cmp(&a.doc)));
        hits
    }
}

#[cfg(test)]
mod tests {
    use super::super::doc_slab::SlabRun;
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use sparta_obs::ClockMode;
    use std::sync::Barrier;

    /// The refresh-everything `docHeap` this module used to ship, kept
    /// as the model [`SpartaHeap`] is checked against: every successful
    /// insert re-reads all members' sums in one pass under the (here
    /// implicit) lock, evicts the smallest fresh `(lb, doc)` if over
    /// capacity and publishes the smallest remaining LB as Θ.
    struct ReferenceHeap {
        slab: Arc<DocSlab>,
        k: usize,
        docs: Vec<Entry>,
        members: FastHashSet<DocId>,
        theta: u64,
        /// `(doc, lb)` of every successful update, as it would be traced.
        traced: Vec<(DocId, u64)>,
    }

    impl ReferenceHeap {
        fn new(slab: Arc<DocSlab>, k: usize) -> Self {
            Self {
                slab,
                k,
                docs: Vec::new(),
                members: FastHashSet::default(),
                theta: 0,
                traced: Vec::new(),
            }
        }

        fn update(&mut self, d: DocHandle) -> bool {
            let id = self.slab.record(d).id();
            if !self.members.insert(id) {
                return false;
            }
            self.docs.push(Entry {
                handle: d,
                doc: id,
                lb: 0,
            });
            const NONE: (u64, DocId, usize) = (u64::MAX, DocId::MAX, usize::MAX);
            let (mut min, mut second) = (NONE, NONE);
            for (idx, e) in self.docs.iter_mut().enumerate() {
                e.lb = self.slab.record(e.handle).current_sum();
                let key = (e.lb, e.doc, idx);
                if key < min {
                    second = min;
                    min = key;
                } else if key < second {
                    second = key;
                }
            }
            let lb = self.docs.last().expect("just pushed").lb;
            if self.docs.len() > self.k {
                let evicted = self.docs.swap_remove(min.2);
                self.members.remove(&evicted.doc);
                min = second;
            }
            if self.docs.len() == self.k {
                self.theta = min.0;
            }
            self.traced.push((id, lb));
            true
        }

        fn sorted_hits(&self) -> Vec<SearchHit> {
            let mut hits: Vec<SearchHit> = self
                .docs
                .iter()
                .map(|e| SearchHit {
                    doc: e.doc,
                    score: self.slab.record(e.handle).current_sum(),
                })
                .collect();
            hits.sort_unstable_by(|a, b| b.score.cmp(&a.score).then(b.doc.cmp(&a.doc)));
            hits
        }
    }

    /// Admits a record for `id` from `run` and scores the given terms.
    fn doc(slab: &DocSlab, run: &mut SlabRun, id: DocId, scores: &[(usize, u32)]) -> DocHandle {
        let h = slab.stage(run, id);
        run.commit();
        for &(i, s) in scores {
            slab.record(h).set_score(i, s);
        }
        h
    }

    /// A slab for `m`-term records, a heap of capacity `k` over it, and
    /// the run the test admits its records from.
    fn heap(m: usize, k: usize) -> (Arc<DocSlab>, SlabRun, SpartaHeap) {
        let slab = Arc::new(DocSlab::new(m));
        let heap = SpartaHeap::new(Arc::clone(&slab), k);
        (slab, SlabRun::default(), heap)
    }

    #[test]
    fn fills_then_thresholds() {
        let (slab, mut run, h) = heap(2, 2);
        let t = TraceSink::new(false);
        assert_eq!(h.theta(), 0);
        assert!(h.update(&doc(&slab, &mut run, 1, &[(0, 10)]), &t));
        assert_eq!(h.theta(), 0, "not full yet");
        assert!(h.update(&doc(&slab, &mut run, 2, &[(0, 30)]), &t));
        assert_eq!(h.theta(), 10);
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn eviction_keeps_best_lbs() {
        let (slab, mut run, h) = heap(1, 2);
        let t = TraceSink::new(false);
        h.update(&doc(&slab, &mut run, 1, &[(0, 10)]), &t);
        h.update(&doc(&slab, &mut run, 2, &[(0, 30)]), &t);
        h.update(&doc(&slab, &mut run, 3, &[(0, 20)]), &t);
        let hits = h.sorted_hits();
        assert_eq!(
            hits.iter().map(|x| x.doc).collect::<Vec<_>>(),
            vec![2, 3],
            "doc 1 evicted"
        );
        assert!(!h.contains(1));
        assert_eq!(h.theta(), 20);
    }

    #[test]
    fn lazy_lb_refresh_on_insert() {
        let (slab, mut run, h) = heap(2, 2);
        let t = TraceSink::new(false);
        let d1 = doc(&slab, &mut run, 1, &[(0, 10)]);
        h.update(&d1, &t);
        // d1's score grows after insertion (another term arrives)…
        slab.record(d1).set_score(1, 100);
        // …and the next insert must see the grown LB, not the cached
        // 10: Θ is doc 2's 5.
        h.update(&doc(&slab, &mut run, 2, &[(0, 5)]), &t);
        assert_eq!(h.theta(), 5);
        // A third doc must evict doc 2, not the improved doc 1.
        h.update(&doc(&slab, &mut run, 3, &[(0, 50)]), &t);
        assert!(h.contains(1) && h.contains(3) && !h.contains(2));
        assert_eq!(h.theta(), 50);
    }

    #[test]
    fn reinsert_after_eviction() {
        let (slab, mut run, h) = heap(2, 1);
        let t = TraceSink::new(false);
        let d1 = doc(&slab, &mut run, 1, &[(0, 10)]);
        h.update(&d1, &t);
        h.update(&doc(&slab, &mut run, 2, &[(0, 20)]), &t);
        assert!(!h.contains(1));
        slab.record(d1).set_score(1, 100);
        assert!(h.update(&d1, &t), "evicted doc re-enters when it grows");
        assert!(h.contains(1) && !h.contains(2));
    }

    #[test]
    fn member_update_is_noop() {
        let (slab, mut run, h) = heap(1, 2);
        let t = TraceSink::new(true);
        let d1 = doc(&slab, &mut run, 1, &[(0, 10)]);
        assert!(h.update(&d1, &t));
        assert!(!h.update(&d1, &t), "already a member");
        assert_eq!(h.update_count(), 1);
        assert_eq!(t.into_events().unwrap().len(), 1);
    }

    #[test]
    fn concurrent_updates_preserve_topk() {
        let (slab, _, h) = heap(1, 16);
        let t = TraceSink::new(false);
        std::thread::scope(|s| {
            for w in 0..4u32 {
                let (slab, h, t) = (&slab, &h, &t);
                s.spawn(move || {
                    let mut run = SlabRun::default();
                    for i in 0..500u32 {
                        let id = w * 500 + i;
                        let d = doc(slab, &mut run, id, &[(0, (id * 7919) % 1000 + 1)]);
                        if slab.record(d).current_sum() > h.theta() {
                            h.update(&d, t);
                        }
                    }
                });
            }
        });
        let hits = h.sorted_hits();
        assert_eq!(hits.len(), 16);
        let mut want: Vec<u64> = (0..2000u32)
            .map(|id| u64::from((id * 7919) % 1000 + 1))
            .collect();
        want.sort_unstable_by(|a, b| b.cmp(a));
        let got: Vec<u64> = hits.iter().map(|h| h.score).collect();
        assert_eq!(got, want[..16].to_vec());
    }

    /// One step of a differential program over `docs × m` scores.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        /// Doc `d`'s next unknown term is scored `s` — a record's term
        /// is scored once, so a doc grows at most m times and the op is
        /// a no-op after that.
        Grow(usize, u32),
        /// `update(d)`, whether or not `d` would pass the Θ pre-filter.
        Update(usize),
    }

    /// The corners a run of programs has to reach for the differential
    /// test to mean anything; each is counted, then asserted non-zero.
    #[derive(Debug, Default)]
    struct Corners {
        k_is_one: u32,
        k_exceeds_docs: u32,
        evicted_on_doc_id_tie: u32,
        reentered_after_eviction: u32,
        grew_at_the_root: u32,
    }

    /// Runs `ops` against the lazily settled heap and the reference,
    /// comparing everything observable after every step.
    fn run_differential(
        k: usize,
        docs: usize,
        m: usize,
        ops: &[Op],
        seen: &mut Corners,
    ) -> Result<(), proptest::test_runner::TestCaseError> {
        let (slab, mut run, heap) = heap(m, k);
        let recs: Vec<DocHandle> = (0..docs)
            .map(|d| doc(&slab, &mut run, d as DocId, &[]))
            .collect();
        let sum = |doc: DocId| slab.record(recs[doc as usize]).current_sum();
        let mut model = ReferenceHeap::new(Arc::clone(&slab), k);
        let trace = TraceSink::with_clock(true, ClockMode::Logical);
        let mut evicted = FastHashSet::default();
        seen.k_is_one += u32::from(k == 1);
        seen.k_exceeds_docs += u32::from(k > docs);
        for &op in ops {
            match op {
                Op::Grow(d, s) => {
                    let d = d % docs;
                    let rec = slab.record(recs[d]);
                    if let Some(i) = (0..m).find(|&i| !rec.knows(i)) {
                        let inner = heap.inner.lock();
                        let at_root = inner.docs.first().is_some_and(|e| e.doc == d as DocId);
                        drop(inner);
                        seen.grew_at_the_root += u32::from(at_root);
                        rec.set_score(i, s);
                    }
                }
                Op::Update(d) => {
                    let d = d % docs;
                    let before = heap.inner.lock().members.clone();
                    let changed = heap.update(&recs[d], &trace);
                    prop_assert_eq!(changed, model.update(recs[d]), "update({d})");
                    let after = heap.inner.lock().members.clone();
                    if let Some(&victim) = before.difference(&after).next() {
                        evicted.insert(victim);
                        let tied = before.iter().any(|&o| o != victim && sum(o) == sum(victim));
                        seen.evicted_on_doc_id_tie += u32::from(tied);
                    }
                    let entered = after.contains(&(d as DocId)) && changed;
                    seen.reentered_after_eviction +=
                        u32::from(entered && evicted.contains(&(d as DocId)));
                }
            }
            prop_assert_eq!(heap.theta(), model.theta, "Θ after {op:?}");
            prop_assert_eq!(heap.len(), model.docs.len(), "len after {op:?}");
            prop_assert_eq!(
                &heap.inner.lock().members,
                &model.members,
                "members after {op:?}"
            );
            if k > docs {
                prop_assert_eq!(heap.theta(), 0, "a heap that cannot fill keeps Θ = 0");
            }
        }
        prop_assert_eq!(heap.sorted_hits(), model.sorted_hits());
        prop_assert_eq!(heap.update_count(), model.traced.len() as u64);
        let traced: Vec<(DocId, u64)> = trace
            .into_events()
            .expect("trace enabled")
            .iter()
            .map(|e| (e.doc, e.score))
            .collect();
        prop_assert_eq!(traced, model.traced);
        Ok(())
    }

    /// Differential test: the O(log k) heap is indistinguishable from
    /// the refresh-everything one under any single-threaded program.
    /// Scores are drawn from 1..4 so LB ties are the common case.
    #[test]
    fn lazy_heap_matches_the_refresh_everything_reference() {
        let op = (0u8..5, 0usize..64, 1u32..4).prop_map(|(kind, d, s)| {
            if kind < 3 {
                Op::Grow(d, s)
            } else {
                Op::Update(d)
            }
        });
        // k from {1, a few, possibly more than there are docs}.
        let program = (0usize..70, 1usize..65, 1usize..7, vec(op, 0..400));
        let mut seen = Corners::default();
        proptest::test_runner::run(
            "lazy_heap_matches_the_refresh_everything_reference",
            ProptestConfig {
                cases: 256,
                ..ProptestConfig::default()
            },
            |rng| {
                let (k, docs, m, ops) = program.generate(rng);
                let k = match k % 4 {
                    0 => 1,
                    1 => 1 + k % 4,
                    _ => 1 + k,
                };
                run_differential(k, docs, m, &ops, &mut seen)
            },
        );
        assert!(
            seen.k_is_one > 0
                && seen.k_exceeds_docs > 0
                && seen.evicted_on_doc_id_tie > 0
                && seen.reentered_after_eviction > 0
                && seen.grew_at_the_root > 0,
            "generators missed a corner: {seen:?}"
        );
    }

    /// The property Sparta relies on, on its own record store and on
    /// real threads: each of 4 threads owns one term and scores every
    /// doc, then applies the Alg. 1 line 23 filter. Docs are walked a
    /// block at a time behind a barrier, each thread in its own order
    /// within the block, so a doc's four scores land concurrently —
    /// mostly while it already sits in the heap under a stale cached
    /// LB — and `settle_root` reads sums while `fetch_add`s land.
    /// Whoever adds a doc's last score sees its final sum, so the heap
    /// must end up holding k largest final sums. k is an eighth of the
    /// docs so that Θ keeps climbing through the partial sums all run
    /// long (with a small k it outgrows them within a few blocks, and
    /// a heap that evicts on stale LBs is no longer caught).
    #[test]
    fn nra_invariant_holds_while_settling_races_with_scoring() {
        const BLOCK: u32 = 64;
        const BLOCKS: u32 = 48;
        const DOCS: u32 = BLOCK * BLOCKS;
        const M: usize = 4;
        const K: usize = 400;
        let score = |d: u32, t: usize| (d.wrapping_mul(2654435761) >> (7 + t)) % 50 + 1;
        for round in 0..8u32 {
            let slab = Arc::new(DocSlab::new(M));
            let mut run = SlabRun::default();
            let handles: Vec<DocHandle> = (0..DOCS)
                .map(|d| {
                    let h = slab.stage(&mut run, d);
                    run.commit();
                    h
                })
                .collect();
            let heap = SpartaHeap::new(Arc::clone(&slab), K);
            let trace = TraceSink::new(false);
            let block_start = Barrier::new(M);
            std::thread::scope(|s| {
                for t in 0..M {
                    let (slab, heap, trace, handles, block_start) =
                        (&slab, &heap, &trace, &handles, &block_start);
                    s.spawn(move || {
                        // Up, down, and two odd strides (coprime to
                        // BLOCK) from different starts.
                        let stride = [1, BLOCK - 1, 7, 27][t];
                        for block in 0..BLOCKS {
                            let mut at = (round * 5 + t as u32 * 17) % BLOCK;
                            block_start.wait();
                            for _ in 0..BLOCK {
                                let d = block * BLOCK + at;
                                let h = handles[d as usize];
                                let sum = slab.record(h).set_score(t, score(d + round, t));
                                if sum > heap.theta() {
                                    heap.update(&h, trace);
                                }
                                at = (at + stride) % BLOCK;
                            }
                        }
                    });
                }
            });
            let mut want: Vec<u64> = (0..DOCS)
                .map(|d| (0..M).map(|t| u64::from(score(d + round, t))).sum())
                .collect();
            want.sort_unstable_by(|a, b| b.cmp(a));
            let got: Vec<u64> = heap.sorted_hits().iter().map(|h| h.score).collect();
            assert_eq!(got, want[..K], "round {round}");
            assert_eq!(heap.len(), K);
            assert!(heap.theta() <= want[K - 1], "Θ is a lower bound");
        }
    }
}
