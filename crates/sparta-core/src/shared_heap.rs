//! A thread-shared top-k heap with threshold and update-time tracking.
//!
//! Used by the parallel algorithms that keep *full* document scores in
//! a common heap (pRA: "maintains its results in a shared heap",
//! §5.2.2) and as the merge target for thread-local results. Updates
//! are serialized by one lock (the paper protects `docHeap` and Θ "by
//! a shared lock, which serializes all updates", §4.3); Θ and the last
//! update time are mirrored into atomics so readers on the hot path
//! never take the lock.

use crate::staleness::Staleness;
use crate::trace::TraceSink;
use parking_lot::Mutex;
use sparta_collections::BoundedTopK;
use sparta_corpus::types::DocId;
use std::sync::atomic::{AtomicU64, Ordering};

/// Shared top-k heap over `(score, doc)` with lock-free Θ reads.
pub struct SharedHeap {
    heap: Mutex<BoundedTopK<DocId>>,
    /// Mirror of the heap's threshold (0 until full).
    theta: AtomicU64,
    /// Stamped by every successful update.
    staleness: Staleness,
    updates: AtomicU64,
}

impl SharedHeap {
    /// Creates an empty heap of capacity `k`, stamping "now" as the
    /// query start.
    pub fn new(k: usize) -> Self {
        Self {
            heap: Mutex::new(BoundedTopK::new(k)),
            theta: AtomicU64::new(0),
            staleness: Staleness::new(),
            updates: AtomicU64::new(0),
        }
    }

    /// Current threshold Θ (lock-free).
    #[inline]
    pub fn theta(&self) -> u64 {
        self.theta.load(Ordering::Acquire)
    }

    /// Offers `(score, doc)`. Returns whether the heap changed.
    /// Records into `trace` on change.
    pub fn offer(&self, score: u64, doc: DocId, trace: &TraceSink) -> bool {
        if score <= self.theta() {
            return false; // cheap pre-filter, no lock
        }
        let mut heap = self.heap.lock();
        let changed = heap.offer(score, doc);
        if changed {
            self.theta.store(heap.threshold(), Ordering::Release);
            drop(heap);
            self.staleness.stamp();
            self.updates.fetch_add(1, Ordering::Relaxed);
            trace.record(doc, score);
        }
        changed
    }

    /// Δ's clock, stamped by every successful update.
    pub fn staleness(&self) -> &Staleness {
        &self.staleness
    }

    /// Number of successful updates.
    pub fn update_count(&self) -> u64 {
        self.updates.load(Ordering::Relaxed)
    }

    /// Snapshot in rank order.
    pub fn sorted(&self) -> Vec<(u64, DocId)> {
        self.heap
            .lock()
            .sorted_entries()
            .iter()
            .map(|e| (e.score, e.item))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn theta_tracks_heap() {
        let h = SharedHeap::new(2);
        let t = TraceSink::new(false);
        assert!(h.offer(10, 1, &t));
        assert_eq!(h.theta(), 0, "not full");
        assert!(h.offer(20, 2, &t));
        assert_eq!(h.theta(), 10);
        assert!(!h.offer(5, 3, &t), "below threshold");
        assert!(h.offer(15, 4, &t));
        assert_eq!(h.theta(), 15);
        assert_eq!(h.sorted(), vec![(20, 2), (15, 4)]);
        assert_eq!(h.update_count(), 3);
    }

    #[test]
    fn concurrent_offers_keep_true_topk() {
        let h = Arc::new(SharedHeap::new(50));
        let t = Arc::new(TraceSink::new(false));
        std::thread::scope(|s| {
            for w in 0..4u32 {
                let h = Arc::clone(&h);
                let t = Arc::clone(&t);
                s.spawn(move || {
                    for i in 0..1000u32 {
                        let doc = w * 1000 + i;
                        h.offer(u64::from(doc % 997), doc, &t);
                    }
                });
            }
        });
        let got = h.sorted();
        assert_eq!(got.len(), 50);
        // The true top-50 scores of the union stream.
        let mut all: Vec<(u64, u32)> = (0..4u32)
            .flat_map(|w| {
                (0..1000u32).map(move |i| (u64::from((w * 1000 + i) % 997), w * 1000 + i))
            })
            .collect();
        all.sort_by(|a, b| b.cmp(a));
        let want: Vec<(u64, u32)> = all.into_iter().take(50).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn trace_records_changes_only() {
        let h = SharedHeap::new(1);
        let t = TraceSink::new(true);
        h.offer(10, 1, &t);
        h.offer(5, 2, &t); // rejected
        h.offer(20, 3, &t);
        let ev = t.into_events().unwrap();
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[0].doc, 1);
        assert_eq!(ev[1].doc, 3);
    }
}
