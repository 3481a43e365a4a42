//! Helpers shared by the algorithm modules' unit tests.

use sparta_exec::{DeterministicExecutor, Executor, JobQueue};
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
