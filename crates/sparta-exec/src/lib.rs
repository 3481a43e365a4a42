//! Execution substrate: job queues, the shared worker pool both
//! evaluation modes run on, and a deterministic replay executor.
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
//! doc-range jobs; etc.). An [`Executor`] then drains the queue.
//! [`WorkerPool`] is the one threaded executor: its persistent workers
//! share every query in flight, so latency mode is a pool with one
//! query in flight (every worker helps it) and throughput mode is the
//! same pool with many. [`DeterministicExecutor`] replays a seeded
//! single-threaded schedule for tests and the perf guards.

#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::disallowed_methods, clippy::disallowed_types))]

pub mod deterministic;
pub mod fault;
pub mod job_queue;
pub mod pool;
pub mod watchdog;

pub use deterministic::DeterministicExecutor;
pub use fault::FaultPlan;
pub use job_queue::{CyclicJob, Job, JobQueue};
pub use pool::WorkerPool;
pub use watchdog::{DumpHook, StallWatchdog, WatchdogConfig};

use std::sync::Arc;

/// The old name of latency mode's executor, now the shared pool. It
/// stays only because the `benchmark/` package names it, and that
/// package changes only when its baseline is re-recorded: retire the
/// alias then.
pub type DedicatedExecutor = WorkerPool;

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
