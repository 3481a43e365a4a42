//! Throughput-mode shared worker pool with FCFS query admission.
//!
//! §5.1: "queries are scheduled first-come-first-served, and a new
//! query is scheduled for execution (i.e., assigned threads) once
//! there are idle threads with no outstanding work from currently
//! executing queries. All queries scheduled for execution equally
//! share the thread pool."
//!
//! Implementation: `threads` persistent workers multiplex over the set
//! of *active* query queues round-robin (equal sharing). A worker that
//! sweeps all active queues without finding a runnable job is idle; it
//! then admits the next *pending* query (FCFS). Completed queues
//! (outstanding == 0) are retired during the sweep.

use crate::watchdog::{StallWatchdog, WatchdogConfig};
use crate::{Executor, JobQueue};
use parking_lot::{Condvar, Mutex};
use sparta_obs::{recorder, EventKind, ExecMetrics, FlightRecorder};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

struct Shared {
    /// Queries currently sharing the pool.
    active: Mutex<Vec<Arc<JobQueue>>>,
    /// FCFS backlog.
    pending: Mutex<VecDeque<Arc<JobQueue>>>,
    cv: Condvar,
    shutdown: AtomicBool,
    rr: AtomicUsize,
    /// Opt-in registry; `None` keeps the worker loop timing-free.
    metrics: Option<Arc<ExecMetrics>>,
    /// Opt-in flight recorder; workers install their ring on entry.
    recorder: Option<Arc<FlightRecorder>>,
}

/// A persistent pool of worker threads shared by many queries.
pub struct WorkerPool {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
    parallelism: usize,
}

impl WorkerPool {
    /// Starts `threads` persistent workers.
    pub fn new(threads: usize) -> Self {
        Self::build(threads, None, None)
    }

    /// Starts `threads` persistent workers that record into `metrics`:
    /// per-job durations and panics, busy/idle split, retired queries'
    /// queue-depth high-water, and queries run.
    pub fn instrumented(threads: usize, metrics: Arc<ExecMetrics>) -> Self {
        Self::build(threads, Some(metrics), None)
    }

    /// Starts `threads` persistent workers that additionally record
    /// flight-recorder events (job start/end, queue traffic,
    /// park/unpark transitions) into `recorder` — each worker installs
    /// its ring for the lifetime of its loop. Metrics stay optional.
    pub fn with_recorder(
        threads: usize,
        metrics: Option<Arc<ExecMetrics>>,
        recorder: Arc<FlightRecorder>,
    ) -> Self {
        Self::build(threads, metrics, Some(recorder))
    }

    fn build(
        threads: usize,
        metrics: Option<Arc<ExecMetrics>>,
        recorder: Option<Arc<FlightRecorder>>,
    ) -> Self {
        assert!(threads >= 1);
        let shared = Arc::new(Shared {
            active: Mutex::new(Vec::new()),
            pending: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            rr: AtomicUsize::new(0),
            metrics,
            recorder,
        });
        let handles = (0..threads)
            .map(|i| {
                let sh = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&sh, i))
            })
            .collect();
        Self {
            shared,
            threads: handles,
            parallelism: threads,
        }
    }

    /// The metric registry, if this pool is instrumented.
    pub fn metrics(&self) -> Option<&Arc<ExecMetrics>> {
        self.shared.metrics.as_ref()
    }

    /// The flight recorder, if this pool records events.
    pub fn recorder(&self) -> Option<&Arc<FlightRecorder>> {
        self.shared.recorder.as_ref()
    }

    /// Spawns a [`StallWatchdog`] watching this pool's recorder:
    /// when no worker records an event for `config.quiet` while jobs
    /// are still outstanding (queued, running, or pending admission),
    /// it dumps every worker's ring and the pool state. Returns `None`
    /// if the pool has no recorder.
    ///
    /// The probe scopes each pool lock in its own block — it never
    /// holds `active` and `pending` together, so it adds no edge to
    /// the lock graph.
    pub fn watchdog(&self, config: WatchdogConfig) -> Option<StallWatchdog> {
        let rec = Arc::clone(self.shared.recorder.as_ref()?);
        let sh = Arc::clone(&self.shared);
        let probe = move || {
            let (active_queries, outstanding) = {
                let active = sh.active.lock();
                let out: usize = active.iter().map(|q| q.outstanding()).sum();
                (active.len(), out)
            };
            let pending = sh.pending.lock().len();
            let detail = format!(
                "pool: {active_queries} active query(ies), {outstanding} outstanding job(s), {pending} pending query(ies)"
            );
            (outstanding + pending, detail)
        };
        Some(StallWatchdog::spawn(rec, probe, config))
    }

    /// Submits a query's job queue to the FCFS backlog. Returns
    /// immediately; pair with [`JobQueue::wait_complete`].
    pub fn submit(&self, queue: Arc<JobQueue>) {
        self.shared.pending.lock().push_back(queue);
        self.shared.cv.notify_all();
    }

    /// Number of queries currently executing (sharing the pool).
    pub fn active_queries(&self) -> usize {
        self.shared.active.lock().len()
    }

    /// Number of queries waiting for admission.
    pub fn pending_queries(&self) -> usize {
        self.shared.pending.lock().len()
    }
}

impl Executor for WorkerPool {
    /// Submits and blocks until the query completes — the algorithm
    /// code is identical in latency and throughput modes.
    fn run(&self, queue: Arc<JobQueue>) {
        // Guard against waiting on a queue that never had jobs.
        if queue.outstanding() == 0 {
            return;
        }
        self.submit(Arc::clone(&queue));
        queue.wait_complete();
    }

    fn parallelism(&self) -> usize {
        self.parallelism
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.cv.notify_all();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

fn worker_loop(sh: &Shared, worker: usize) {
    // Install this worker's ring for the lifetime of the loop: every
    // recorder::record below (and inside run_job / spans)
    // lands in it. No recorder → all of those are one-branch no-ops.
    let _rec_guard = sh.recorder.as_ref().map(|r| r.install(worker));
    // Park/Unpark are recorded on busy↔idle *transitions*, not on every
    // 200µs wait_for cycle — an idle pool must go recorder-quiet, or
    // the stall watchdog could never distinguish "wedged" from
    // "parked and periodically re-checking".
    let mut idle = false;
    loop {
        if sh.shutdown.load(Ordering::Acquire) {
            return;
        }
        // Sweep active queues round-robin for a runnable job.
        let mut ran = false;
        {
            let mut active = sh.active.lock();
            // Retire completed queries, folding their queue stats into
            // the registry (high-water is only final once retired).
            active.retain(|q| {
                let done = q.is_complete();
                if done {
                    if let Some(m) = &sh.metrics {
                        m.queue_depth_highwater.observe(q.depth_highwater());
                        m.queries_run.incr();
                    }
                }
                !done
            });
            let n = active.len();
            if n > 0 {
                let start = sh.rr.fetch_add(1, Ordering::Relaxed) % n;
                for i in 0..n {
                    let q = Arc::clone(&active[(start + i) % n]);
                    if let Some(job) = q.try_pop() {
                        drop(active);
                        if idle {
                            idle = false;
                            recorder::record(EventKind::Unpark, 0);
                        }
                        match &sh.metrics {
                            None => {
                                q.run_job(job);
                            }
                            Some(m) => {
                                // lint: allow(wall-clock): executor metrics timing (busy/parked nanos)
                                let started = Instant::now();
                                let panicked = q.run_job(job);
                                m.worker(worker)
                                    .record_job(started.elapsed().as_nanos() as u64, panicked);
                            }
                        }
                        sh.cv.notify_all();
                        ran = true;
                        break;
                    }
                }
            }
        }
        if ran {
            continue;
        }
        // Idle: no runnable work among active queries — admit the next
        // pending query (FCFS), if any.
        let admitted = {
            let next = sh.pending.lock().pop_front();
            match next {
                Some(q) => {
                    sh.active.lock().push(q);
                    sh.cv.notify_all();
                    true
                }
                None => false,
            }
        };
        if admitted {
            continue;
        }
        // Nothing to do: wait for a push/submission/completion.
        let mut guard = sh.pending.lock();
        if guard.is_empty() && !sh.shutdown.load(Ordering::Acquire) {
            if !idle {
                idle = true;
                recorder::record(EventKind::Park, 0);
            }
            // lint: allow(wall-clock): executor metrics timing (busy/parked nanos)
            let parked = Instant::now();
            sh.cv
                .wait_for(&mut guard, std::time::Duration::from_micros(200));
            if let Some(m) = &sh.metrics {
                m.worker(worker)
                    .idle_ns
                    .add(parked.elapsed().as_nanos() as u64);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    fn make_query(jobs: usize, counter: &Arc<AtomicU64>) -> Arc<JobQueue> {
        let q = JobQueue::new();
        for _ in 0..jobs {
            let c = Arc::clone(counter);
            q.push(Box::new(move || {
                c.fetch_add(1, Ordering::Relaxed);
            }));
        }
        q
    }

    #[test]
    fn pool_completes_single_query() {
        let pool = WorkerPool::new(2);
        let c = Arc::new(AtomicU64::new(0));
        let q = make_query(100, &c);
        pool.run(Arc::clone(&q));
        assert_eq!(c.load(Ordering::Relaxed), 100);
        assert!(q.is_complete());
    }

    #[test]
    fn pool_runs_many_queries_fcfs() {
        let pool = WorkerPool::new(3);
        let c = Arc::new(AtomicU64::new(0));
        let queues: Vec<_> = (0..20).map(|_| make_query(50, &c)).collect();
        for q in &queues {
            pool.submit(Arc::clone(q));
        }
        for q in &queues {
            q.wait_complete();
        }
        assert_eq!(c.load(Ordering::Relaxed), 20 * 50);
    }

    #[test]
    fn pool_handles_self_scheduling_jobs() {
        let pool = WorkerPool::new(2);
        let q = JobQueue::new();
        let count = Arc::new(AtomicU64::new(0));
        fn chain(q: Arc<JobQueue>, count: Arc<AtomicU64>, left: u32) {
            if left == 0 {
                return;
            }
            let q2 = Arc::clone(&q);
            q.push(Box::new(move || {
                count.fetch_add(1, Ordering::Relaxed);
                chain(Arc::clone(&q2), count, left - 1);
            }));
        }
        chain(Arc::clone(&q), Arc::clone(&count), 64);
        pool.run(Arc::clone(&q));
        assert_eq!(count.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn concurrent_submitters_all_complete() {
        let pool = Arc::new(WorkerPool::new(4));
        let c = Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            for _ in 0..6 {
                let pool = Arc::clone(&pool);
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for _ in 0..5 {
                        let q = make_query(20, &c);
                        pool.run(q);
                    }
                });
            }
        });
        assert_eq!(c.load(Ordering::Relaxed), 6 * 5 * 20);
    }

    #[test]
    fn empty_query_returns_immediately() {
        let pool = WorkerPool::new(1);
        let q = JobQueue::new();
        pool.run(q); // must not hang
    }

    #[test]
    fn drop_shuts_down_threads() {
        let pool = WorkerPool::new(2);
        drop(pool); // must not hang
    }

    #[test]
    fn instrumented_pool_populates_registry() {
        let metrics = sparta_obs::ExecMetrics::new(2);
        let pool = WorkerPool::instrumented(2, Arc::clone(&metrics));
        let c = Arc::new(AtomicU64::new(0));
        for _ in 0..4 {
            pool.run(make_query(25, &c));
        }
        assert_eq!(c.load(Ordering::Relaxed), 100);
        // Retirement happens on a worker's next sweep, and the last
        // job's duration is recorded *after* its completion bookkeeping
        // (a queue can retire while that worker is still between
        // run_job and record_job) — wait for both counters.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while {
            let s = metrics.snapshot();
            s.queries_run < 4 || s.jobs_run < 100
        } && std::time::Instant::now() < deadline
        {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let s = metrics.snapshot();
        assert_eq!(s.jobs_run, 100);
        assert_eq!(s.jobs_panicked, 0);
        assert_eq!(s.queries_run, 4);
        assert!(s.queue_depth_highwater >= 25);
        assert_eq!(s.job_ns.count, 100);
        assert!(pool.metrics().is_some());
    }
}
