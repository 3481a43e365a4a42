//! Helpers shared by the algorithm modules' unit tests.

use sparta_exec::{DeterministicExecutor, Executor, JobQueue};
use sparta_index::{InMemoryIndex, Index, Posting};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Passes the queue on to a deterministic executor, noting its tag —
/// what a served request is attributed and accounted by.
pub(crate) struct TagSpy {
    inner: DeterministicExecutor,
    tag: AtomicU64,
}

impl TagSpy {
    pub(crate) fn new(seed: u64) -> Self {
        Self {
            inner: DeterministicExecutor::new(seed),
            tag: AtomicU64::new(0),
        }
    }

    /// The tag of the last queue run (0 before any).
    pub(crate) fn tag(&self) -> u64 {
        self.tag.load(Ordering::Relaxed)
    }
}

impl Executor for TagSpy {
    fn run(&self, queue: Arc<JobQueue>) {
        self.tag.store(queue.tag(), Ordering::Relaxed);
        self.inner.run(queue);
    }

    fn parallelism(&self) -> usize {
        self.inner.parallelism()
    }
}

/// The same `m` lists — every document id in `0..3000` — behind two
/// indexes: one declaring the 3 000 documents it holds, one declaring
/// 10. `num_docs` is never validated, so per-query structures sized
/// from it must answer the second with a restart, not a panic.
pub(crate) fn honest_and_under_declared(m: u32) -> (Arc<dyn Index>, Arc<dyn Index>) {
    let build = |num_docs| -> Arc<dyn Index> {
        let lists = (0..m)
            .map(|t| {
                (0..3000u32)
                    .map(|d| Posting::new(d, (d * 7 + t * 13) % 501 + 1))
                    .collect()
            })
            .collect();
        Arc::new(InMemoryIndex::from_term_postings(lists, num_docs))
    };
    (build(3000), build(10))
}
