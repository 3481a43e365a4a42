//! Sparta's shared document heap with lazy lower-bound refresh.
//!
//! "Updates of docHeap and Θ are protected by a shared lock, which
//! serializes all updates. To avoid races around evaluating a
//! DocType's lower bound and inserting it into docHeap, we update the
//! lower bound in a lazy manner while holding the global lock on
//! docHeap: Every thread that adds a document to the heap updates the
//! lower bounds of all heap documents" (§4.3, Alg. 1 lines 26–38).

use super::doc_slab::{DocHandle, DocSlab};
use super::doc_type::DocType;
use crate::result::SearchHit;
use crate::trace::TraceSink;
use parking_lot::Mutex;
use sparta_collections::{FastBuildHasher, FastHashSet};
use sparta_corpus::types::DocId;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A heap's view of its document records. The heap only needs two
/// operations on a record, so it is generic over *where* records live:
/// refcounted `Arc<DocType>` ([`ArcDocs`], the baseline algorithms) or
/// inline slab records addressed by `Copy` handles (`Arc<DocSlab>`,
/// Sparta's per-query arena).
pub trait DocStore {
    /// The per-record reference the heap stores.
    type Handle: Clone + Send + Sync;

    /// The record's document id.
    fn doc_id_of(&self, h: &Self::Handle) -> DocId;

    /// Σ of the known term scores (the record's lower bound, fresh).
    fn sum_of(&self, h: &Self::Handle) -> u64;
}

/// [`DocStore`] over free-standing refcounted records — the handle
/// carries the record; the store itself is a zero-sized token.
#[derive(Debug, Default, Clone, Copy)]
pub struct ArcDocs;

impl DocStore for ArcDocs {
    type Handle = Arc<DocType>;

    #[inline]
    fn doc_id_of(&self, h: &Arc<DocType>) -> DocId {
        h.id
    }

    #[inline]
    fn sum_of(&self, h: &Arc<DocType>) -> u64 {
        h.current_sum()
    }
}

impl DocStore for Arc<DocSlab> {
    type Handle = DocHandle;

    #[inline]
    fn doc_id_of(&self, h: &DocHandle) -> DocId {
        self.record(*h).id()
    }

    #[inline]
    fn sum_of(&self, h: &DocHandle) -> u64 {
        self.record(*h).current_sum()
    }
}

/// One heap member. The lazily refreshed `lb` is only ever read or
/// written under the heap lock, so it lives here — in the lock's own
/// data — rather than as an atomic word in every candidate record; the
/// id rides along so ranking members never dereferences a record.
struct Entry<H> {
    handle: H,
    doc: DocId,
    lb: u64,
}

struct Inner<H> {
    docs: Vec<Entry<H>>,
    members: FastHashSet<DocId>,
}

/// The shared `docHeap` of Algorithm 1, generic over the record store
/// (defaults to [`ArcDocs`] so existing `SpartaHeap` usage reads
/// unchanged).
pub struct SpartaHeap<S: DocStore = ArcDocs> {
    store: S,
    k: usize,
    inner: Mutex<Inner<S::Handle>>,
    theta: AtomicU64,
    len: AtomicUsize,
    upd_nanos: AtomicU64,
    updates: AtomicU64,
    start: Instant,
}

impl SpartaHeap<ArcDocs> {
    /// Creates an empty heap of capacity `k` over [`ArcDocs`];
    /// `heapUpdTime` is initialized to "now" (Table 1).
    pub fn new(k: usize) -> Self {
        Self::with_store(ArcDocs, k)
    }
}

impl<S: DocStore> SpartaHeap<S> {
    /// Creates an empty heap of capacity `k` whose records live in
    /// `store`.
    pub fn with_store(store: S, k: usize) -> Self {
        assert!(k >= 1);
        Self {
            store,
            k,
            inner: Mutex::new(Inner {
                docs: Vec::with_capacity(k + 1),
                members: FastHashSet::with_capacity_and_hasher(k + 1, FastBuildHasher),
            }),
            theta: AtomicU64::new(0),
            len: AtomicUsize::new(0),
            upd_nanos: AtomicU64::new(0),
            updates: AtomicU64::new(0),
            // lint: allow(wall-clock): baseline instant for the upd_nanos heap-update timing stat
            start: Instant::now(),
        }
    }

    /// Θ — the k-th lowest LB once the heap is full, else 0 (lock-free
    /// read; workers poll this on every posting).
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
    pub fn update(&self, d: &S::Handle, trace: &TraceSink) -> bool {
        let id = self.store.doc_id_of(d);
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        if !inner.members.insert(id) {
            // Line 28: only documents not already present are
            // (re)inserted; members' LBs refresh on the next insert.
            return false;
        }
        inner.docs.push(Entry {
            handle: d.clone(),
            doc: id,
            lb: 0,
        });
        // Lines 30–36 in one pass under the lock: lazily refresh every
        // member's LB while tracking the two smallest `(lb, doc)` keys
        // — the smallest is the eviction victim if the heap overflowed,
        // and whichever of the two is the minimum of what remains is
        // the new Θ.
        const NONE: (u64, DocId, usize) = (u64::MAX, DocId::MAX, usize::MAX);
        let (mut min, mut second) = (NONE, NONE);
        for (idx, e) in inner.docs.iter_mut().enumerate() {
            e.lb = self.store.sum_of(&e.handle);
            let key = (e.lb, e.doc, idx);
            if key < min {
                second = min;
                min = key;
            } else if key < second {
                second = key;
            }
        }
        let lb = inner.docs.last().expect("just pushed").lb;
        if inner.docs.len() > self.k {
            // Lines 33–34: evict the lowest-scored doc beyond capacity.
            let evicted = inner.docs.swap_remove(min.2);
            inner.members.remove(&evicted.doc);
            min = second;
        }
        // Lines 35–36: Θ becomes the k-th lowest LB once full.
        if inner.docs.len() == self.k {
            self.theta.store(min.0, Ordering::Release);
        }
        self.len.store(inner.docs.len(), Ordering::Release);
        drop(guard);
        // Line 37: heapUpdTime ← current time.
        self.upd_nanos
            .store(self.start.elapsed().as_nanos() as u64, Ordering::Release);
        self.updates.fetch_add(1, Ordering::Relaxed);
        trace.record(id, lb);
        true
    }

    /// Whether `doc` is currently in the heap.
    pub fn contains(&self, doc: DocId) -> bool {
        self.inner.lock().members.contains(&doc)
    }

    /// `doc`'s lazily cached LB as of the last insert, if a member.
    #[cfg(test)]
    fn cached_lb(&self, doc: DocId) -> Option<u64> {
        let inner = self.inner.lock();
        inner.docs.iter().find(|e| e.doc == doc).map(|e| e.lb)
    }

    /// Snapshot of the member ids (one lock acquisition; used by the
    /// cleaner per pass rather than per document).
    pub fn members_snapshot(&self) -> FastHashSet<DocId> {
        self.inner.lock().members.clone()
    }

    /// Time since the last heap change (since creation if none).
    pub fn since_last_update(&self) -> Duration {
        let last = Duration::from_nanos(self.upd_nanos.load(Ordering::Acquire));
        self.start.elapsed().saturating_sub(last)
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
                score: self.store.sum_of(&e.handle),
            })
            .collect();
        drop(inner);
        hits.sort_unstable_by(|a, b| b.score.cmp(&a.score).then(b.doc.cmp(&a.doc)));
        hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(id: DocId, m: usize, scores: &[(usize, u32)]) -> Arc<DocType> {
        let d = Arc::new(DocType::new(id, m));
        for &(i, s) in scores {
            d.set_score(i, s);
        }
        d
    }

    #[test]
    fn fills_then_thresholds() {
        let h = SpartaHeap::new(2);
        let t = TraceSink::new(false);
        assert_eq!(h.theta(), 0);
        assert!(h.update(&doc(1, 2, &[(0, 10)]), &t));
        assert_eq!(h.theta(), 0, "not full yet");
        assert!(h.update(&doc(2, 2, &[(0, 30)]), &t));
        assert_eq!(h.theta(), 10);
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn eviction_keeps_best_lbs() {
        let h = SpartaHeap::new(2);
        let t = TraceSink::new(false);
        h.update(&doc(1, 1, &[(0, 10)]), &t);
        h.update(&doc(2, 1, &[(0, 30)]), &t);
        h.update(&doc(3, 1, &[(0, 20)]), &t);
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
        let h = SpartaHeap::new(2);
        let t = TraceSink::new(false);
        let d1 = doc(1, 2, &[(0, 10)]);
        h.update(&d1, &t);
        // d1's score grows after insertion (another term arrives)…
        d1.set_score(1, 100);
        // …but Θ/LB only refresh on the next insert (lazy).
        h.update(&doc(2, 2, &[(0, 5)]), &t);
        assert_eq!(h.cached_lb(1), Some(110), "refreshed under the lock");
        assert_eq!(h.theta(), 5);
        // A third doc must evict doc 2, not the improved doc 1.
        h.update(&doc(3, 2, &[(0, 50)]), &t);
        assert!(h.contains(1) && h.contains(3) && !h.contains(2));
    }

    #[test]
    fn reinsert_after_eviction() {
        let h = SpartaHeap::new(1);
        let t = TraceSink::new(false);
        let d1 = doc(1, 2, &[(0, 10)]);
        h.update(&d1, &t);
        h.update(&doc(2, 2, &[(0, 20)]), &t);
        assert!(!h.contains(1));
        d1.set_score(1, 100);
        assert!(h.update(&d1, &t), "evicted doc re-enters when it grows");
        assert!(h.contains(1) && !h.contains(2));
    }

    #[test]
    fn member_update_is_noop() {
        let h = SpartaHeap::new(2);
        let t = TraceSink::new(true);
        let d1 = doc(1, 1, &[(0, 10)]);
        assert!(h.update(&d1, &t));
        assert!(!h.update(&d1, &t), "already a member");
        assert_eq!(h.update_count(), 1);
        assert_eq!(t.into_events().unwrap().len(), 1);
    }

    #[test]
    fn concurrent_updates_preserve_topk() {
        let h = Arc::new(SpartaHeap::new(16));
        let t = Arc::new(TraceSink::new(false));
        std::thread::scope(|s| {
            for w in 0..4u32 {
                let h = Arc::clone(&h);
                let t = Arc::clone(&t);
                s.spawn(move || {
                    for i in 0..500u32 {
                        let id = w * 500 + i;
                        let d = doc(id, 1, &[(0, (id * 7919) % 1000 + 1)]);
                        if d.current_sum() > h.theta() {
                            h.update(&d, &t);
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
}
