//! Fixture: a crate root exercising every rule's *passing* side —
//! linted as `crates/sparta-core/src/lib.rs` it must produce zero
//! diagnostics.

#![warn(missing_docs)]

use sparta_collections::FastHashMap;

pub struct Stats {
    hits: std::sync::atomic::AtomicU64,
    ready: std::sync::atomic::AtomicU64,
    jobs: parking_lot::Mutex<Vec<u32>>,
    heap: parking_lot::Mutex<Vec<u32>>,
    index: FastHashMap<u32, u64>,
}

impl Stats {
    /// Counter class: all accesses Relaxed.
    pub fn bump(&self) -> u64 {
        self.hits.fetch_add(1, Ordering::Relaxed);
        self.hits.load(Ordering::Relaxed)
    }

    /// Publish class: Release store, Acquire load, AcqRel RMW.
    pub fn publish(&self) {
        self.ready.store(1, Ordering::Release);
        self.ready.fetch_add(1, Ordering::AcqRel);
    }

    /// Publish-class load.
    pub fn is_ready(&self) -> bool {
        self.ready.load(Ordering::Acquire) == 1
    }

    /// A justified exception to the publish-class rule.
    pub fn is_ready_hint(&self) -> bool {
        // ordering: raced hint, revalidated under the heap lock (model: server_lifecycle)
        self.ready.load(Ordering::Relaxed) == 1
    }

    /// Locks acquired sequentially, never nested: no edge, no cycle.
    pub fn rotate(&self) {
        let n = self.jobs.lock().len();
        self.heap.lock().truncate(n);
    }
}
