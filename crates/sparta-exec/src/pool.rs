//! The shared worker pool with FCFS query admission, for both modes.
//!
//! §5.1: "queries are scheduled first-come-first-served, and a new
//! query is scheduled for execution (i.e., assigned threads) once
//! there are idle threads with no outstanding work from currently
//! executing queries. All queries scheduled for execution equally
//! share the thread pool."
//!
//! Implementation: `threads` persistent workers share a FCFS backlog of
//! *pending* queries and the set of *active* ones. A worker's *home* is
//! the query it admitted, kept until it completes. Its next job is the
//! first of (a) a queued job of home, taken without a pool lock; (b)
//! with no home, the oldest pending query, admitted as home; (c) the
//! oldest active query with a queued job. So every active query keeps
//! one worker, and its records stay in that core's cache. Passing (a)
//! retires completed queues.
//!
//! Deviation from §5.1, which admits only when no active query has
//! work: a worker whose home has completed admits before it helps.
//! With one query in flight every worker still reaches it through (c),
//! which is latency mode: "the entire thread pool is used by a single
//! query".

use crate::watchdog::{StallWatchdog, WatchdogConfig};
use crate::{Executor, Job, JobQueue};
use parking_lot::{Condvar, Mutex};
use sparta_obs::{recorder, EventKind, ExecMetrics, FlightRecorder};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
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
    /// Opt-in registry; `None` keeps the worker loop timing-free.
    metrics: Option<Arc<ExecMetrics>>,
    /// Opt-in flight recorder; workers install their ring on entry.
    recorder: Option<Arc<FlightRecorder>>,
}

/// A persistent pool of worker threads shared by the queries in
/// flight: one in latency mode, many in throughput mode.
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
    /// queue-depth high-water, and queries run. The counts are exact
    /// once the pool is dropped; before that, the last queries may not
    /// have retired yet.
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
        // No job runs now, so every duration is recorded: retiring what
        // completed makes the registry exact for a reader after drop.
        retire_completed(&self.shared, &mut self.shared.active.lock());
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
    let mut home = None;
    loop {
        if sh.shutdown.load(Ordering::Acquire) {
            return;
        }
        if let Some((q, job)) = next_job(sh, &mut home) {
            if idle {
                idle = false;
                recorder::record(EventKind::Unpark, 0);
            }
            match &sh.metrics {
                None => {
                    q.run_job(job);
                }
                Some(m) => {
                    #[expect(
                        clippy::disallowed_methods,
                        reason = "executor metrics timing (busy/parked nanos)"
                    )]
                    let started = Instant::now();
                    let panicked = q.run_job(job);
                    m.worker(worker)
                        .record_job(started.elapsed().as_nanos() as u64, panicked);
                }
            }
            sh.cv.notify_all();
            continue;
        }
        // Nothing to do: wait for a push/submission/completion. A home
        // still in flight bars admission, so `pending` is no cause to spin.
        let mut guard = sh.pending.lock();
        let may_admit = home.as_ref().is_none_or(|q| q.is_complete());
        if (guard.is_empty() || !may_admit) && !sh.shutdown.load(Ordering::Acquire) {
            if !idle {
                idle = true;
                recorder::record(EventKind::Park, 0);
            }
            #[expect(
                clippy::disallowed_methods,
                reason = "executor metrics timing (busy/parked nanos)"
            )]
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

/// Picks a worker's next job by the module docs' (a)–(c). `home` is
/// cleared only once its query completes.
fn next_job(sh: &Shared, home: &mut Option<Arc<JobQueue>>) -> Option<(Arc<JobQueue>, Job)> {
    let pop = |q: &Arc<JobQueue>| q.try_pop().map(|job| (Arc::clone(q), job));
    if let Some(own) = home.as_ref().and_then(pop) {
        return Some(own);
    }
    home.take_if(|q| q.is_complete());
    let admitted = home
        .is_none()
        .then(|| sh.pending.lock().pop_front())
        .flatten();
    let mut active = sh.active.lock();
    retire_completed(sh, &mut active);
    active.extend(admitted.clone());
    // The admitted query first, then every active one, oldest first.
    let picked = admitted.iter().chain(active.iter()).find_map(pop);
    drop(active);
    if let Some(q) = admitted {
        sh.cv.notify_all();
        *home = Some(q);
    }
    picked
}

/// Drops completed queries from `active`, folding their queue stats
/// into the registry (high-water is only final once retired).
fn retire_completed(sh: &Shared, active: &mut Vec<Arc<JobQueue>>) {
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

    /// A pool's shared state with no worker threads: tests drive
    /// `next_job` by hand.
    fn bare_shared(metrics: Option<Arc<ExecMetrics>>) -> Shared {
        Shared {
            active: Mutex::new(Vec::new()),
            pending: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            metrics,
            recorder: None,
        }
    }

    fn picked(sh: &Shared, home: &mut Option<Arc<JobQueue>>) -> Arc<JobQueue> {
        let (q, job) = next_job(sh, home).expect("a job is queued");
        q.run_job(job);
        q
    }

    fn is_home(home: &Option<Arc<JobQueue>>, q: &Arc<JobQueue>) -> bool {
        home.as_ref().is_some_and(|h| Arc::ptr_eq(h, q))
    }

    #[test]
    fn home_job_wins_over_older_active_and_pending_queries() {
        let c = Arc::new(AtomicU64::new(0));
        let (older, own, waiting) = (make_query(2, &c), make_query(2, &c), make_query(2, &c));
        let sh = bare_shared(None);
        sh.active
            .lock()
            .extend([Arc::clone(&older), Arc::clone(&own)]);
        sh.pending.lock().push_back(Arc::clone(&waiting));
        let mut home = Some(Arc::clone(&own));
        assert!(Arc::ptr_eq(&picked(&sh, &mut home), &own));
        assert!(Arc::ptr_eq(&picked(&sh, &mut home), &own));
        assert!(is_home(&home, &own));
        assert_eq!(sh.pending.lock().len(), 1, "nothing admitted yet");
    }

    #[test]
    fn a_completed_home_admits_the_oldest_pending_query_before_helping() {
        let c = Arc::new(AtomicU64::new(0));
        let (own, busy) = (make_query(1, &c), make_query(3, &c));
        let (first, second) = (make_query(2, &c), make_query(2, &c));
        own.run_job(own.try_pop().expect("one job"));
        let sh = bare_shared(None);
        sh.active
            .lock()
            .extend([Arc::clone(&busy), Arc::clone(&own)]);
        sh.pending
            .lock()
            .extend([Arc::clone(&first), Arc::clone(&second)]);
        let mut home = Some(Arc::clone(&own));
        assert!(Arc::ptr_eq(&picked(&sh, &mut home), &first));
        assert!(is_home(&home, &first), "the admitted query is home");
        assert_eq!(sh.active.lock().len(), 2, "`own` retired, `first` admitted");
        assert_eq!(sh.pending.lock().len(), 1);
    }

    /// A query whose job runs on a helper keeps its worker: that worker
    /// admits nothing meanwhile, so the requeued job finds it waiting
    /// however many queries are pending.
    #[test]
    fn a_home_running_on_a_helper_keeps_its_worker() {
        let c = Arc::new(AtomicU64::new(0));
        let own = make_query(2, &c);
        let sh = bare_shared(None);
        sh.pending.lock().push_back(Arc::clone(&own));
        let (mut w1, mut w2) = (None, None);
        // W1 admits `own`; W2, with nothing pending, helps it.
        let (q1, job1) = next_job(&sh, &mut w1).expect("admits `own`");
        let (q2, job2) = next_job(&sh, &mut w2).expect("helps `own`");
        assert!(Arc::ptr_eq(&q1, &own) && Arc::ptr_eq(&q2, &own));
        assert!(w2.is_none(), "helping does not move home");
        q1.run_job(job1);
        // `own` is dry while W2 runs its last job, and queries arrive.
        let arrivals: Vec<_> = (0..3).map(|_| make_query(2, &c)).collect();
        sh.pending.lock().extend(arrivals.iter().cloned());
        assert!(next_job(&sh, &mut w1).is_none(), "W1 waits for `own`");
        assert!(is_home(&w1, &own));
        // W2's step requeues into `own`, then W2 admits a new query.
        own.push(Box::new(|| {}));
        q2.run_job(job2);
        assert!(Arc::ptr_eq(&picked(&sh, &mut w2), &arrivals[0]));
        assert!(Arc::ptr_eq(&picked(&sh, &mut w1), &own));
        assert!(own.is_complete());
        assert!(Arc::ptr_eq(&picked(&sh, &mut w1), &arrivals[1]));
    }

    #[test]
    fn with_nothing_pending_a_worker_helps_the_oldest_active_query() {
        let c = Arc::new(AtomicU64::new(0));
        let queries: Vec<_> = (0..3).map(|_| make_query(3, &c)).collect();
        let own = make_query(1, &c);
        let running = own.try_pop().expect("one job");
        let sh = bare_shared(None);
        sh.active.lock().extend(queries.iter().cloned());
        sh.active.lock().push(Arc::clone(&own));
        let mut home = Some(Arc::clone(&own));
        for want in [0, 0, 0, 1] {
            assert!(Arc::ptr_eq(&picked(&sh, &mut home), &queries[want]));
            assert!(is_home(&home, &own), "helping does not move home");
        }
        own.run_job(running);
    }

    #[test]
    fn a_completed_home_is_retired_and_counted() {
        let metrics = ExecMetrics::new(1);
        let sh = bare_shared(Some(Arc::clone(&metrics)));
        let c = Arc::new(AtomicU64::new(0));
        let q = make_query(1, &c);
        sh.pending.lock().push_back(Arc::clone(&q));
        let mut home = None;
        assert!(Arc::ptr_eq(&picked(&sh, &mut home), &q));
        assert!(q.is_complete());
        assert!(next_job(&sh, &mut home).is_none());
        assert!(home.is_none(), "a parked worker holds no query");
        assert!(sh.active.lock().is_empty());
        assert_eq!(metrics.snapshot().queries_run, 1);
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
    #[should_panic]
    fn zero_threads_rejected() {
        let _ = WorkerPool::new(0);
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
        assert!(pool.metrics().is_some());
        // A query retires on a worker's next pick, and a job's duration
        // is recorded after its completion is visible: only the drop,
        // which joins the workers, makes the counts final.
        drop(pool);
        let s = metrics.snapshot();
        assert_eq!(s.jobs_run, 100);
        assert_eq!(s.jobs_panicked, 0);
        assert_eq!(s.queries_run, 4);
        assert!(s.queue_depth_highwater >= 25);
        assert_eq!(s.job_ns.count, 100);
    }

    #[test]
    fn instrumented_pool_counts_a_panicking_job() {
        let metrics = sparta_obs::ExecMetrics::new(2);
        let pool = WorkerPool::instrumented(2, Arc::clone(&metrics));
        let q = JobQueue::new();
        for _ in 0..50 {
            q.push(Box::new(|| {}));
        }
        q.push(Box::new(|| panic!("injected fault")));
        pool.run(Arc::clone(&q));
        drop(pool);
        let s = metrics.snapshot();
        assert_eq!(s.jobs_run, 51);
        assert_eq!(s.jobs_panicked, 1);
        assert_eq!(s.queries_run, 1);
        assert_eq!(s.queue_depth_highwater, 51);
        assert_eq!(s.job_ns.count, 51);
    }
}
