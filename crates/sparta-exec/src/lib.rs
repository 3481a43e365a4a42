//! Execution substrate: job queues, per-query executors, and the
//! shared worker pool used for throughput experiments.
//!
//! The paper's benchmarking environment (§5.1): "A benchmark driver
//! draws queries from an input queue and submits them to the algorithm
//! being tested, which uses a thread pool for intra-query parallelism.
//! … When testing latency, the entire thread pool is used by a single
//! query. In the throughput evaluation mode, queries are scheduled
//! first-come-first-served, and a new query is scheduled for execution
//! … once there are idle threads with no outstanding work from
//! currently executing queries. All queries scheduled for execution
//! equally share the thread pool."
//!
//! All parallel algorithms in `sparta-core` express their work as
//! *self-scheduling jobs* on a [`JobQueue`] (Sparta's `PROCESSTERM`
//! re-enqueues itself per segment, Alg. 1 line 25; pBMW enqueues
//! doc-range jobs; etc.). An [`Executor`] then drains the queue:
//! [`DedicatedExecutor`] spawns scoped threads for one query (latency
//! mode), [`WorkerPool`] multiplexes many queries over persistent
//! threads (throughput mode).

#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::disallowed_methods, clippy::disallowed_types))]

pub mod dedicated;
pub mod deterministic;
pub mod fault;
pub mod job_queue;
pub mod pool;
pub mod watchdog;

pub use dedicated::DedicatedExecutor;
pub use deterministic::DeterministicExecutor;
pub use fault::FaultPlan;
pub use job_queue::{CyclicJob, Job, JobQueue};
pub use pool::WorkerPool;
pub use watchdog::{DumpHook, StallWatchdog, WatchdogConfig};

use std::sync::Arc;

/// Drains a query's job queue to completion.
pub trait Executor: Sync {
    /// Runs jobs from `queue` until all work completes (the queue's
    /// outstanding count reaches zero). Blocks the caller.
    fn run(&self, queue: Arc<JobQueue>);

    /// The number of worker threads a single query may use. Algorithms
    /// size their job sets from this (e.g. pBMW creates `2 ×
    /// parallelism` document ranges, §5.2.1).
    fn parallelism(&self) -> usize;
}
