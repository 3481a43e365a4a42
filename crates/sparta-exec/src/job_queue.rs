//! The per-query job queue.
//!
//! Sparta (Alg. 1) "divide\[s\] posting list traversals to segments …
//! and use\[s\] a job queue to allocate posting list segments to
//! threads". Jobs are self-scheduling closures: a job that finishes a
//! segment pushes the follow-up job for the next segment. The queue
//! tracks an *outstanding* count (queued + currently running jobs);
//! when it reaches zero the query is complete and all waiters wake.
//! The queue never wakes anyone for a push: the pool's workers find
//! new jobs through their own wake-ups (see `pool.rs`).

use parking_lot::{Condvar, Mutex};
use sparta_obs::{recorder, Counter, EventKind, MaxGauge};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A resumable job that keeps its own state between steps.
///
/// The segment-continuation pattern (`PROCESSTERM` re-enqueuing itself
/// per segment, Alg. 1 line 25) used to allocate a fresh
/// `Box<dyn FnOnce>` per segment: thousands of short-lived boxes per
/// query, all carrying the same captured state. A `CyclicJob` instead
/// holds that state in **one** box for the job's whole lifetime;
/// [`run_step`](CyclicJob::run_step) returning `true` re-enqueues the
/// *same* box (see [`JobQueue::run_job`]), so steady-state traversal
/// allocates zero job boxes.
pub trait CyclicJob: Send {
    /// Runs one step of the job. Return `true` to have the queue
    /// re-enqueue this same (recycled) box for another step, `false`
    /// when the job is finished.
    fn run_step(&mut self) -> bool;
}

/// A unit of work. Jobs re-enqueue their own continuations either by
/// pushing fresh closures via the `Arc<JobQueue>` they capture
/// ([`Job::Once`]) or by returning `true` from
/// [`run_step`](CyclicJob::run_step), which recycles the job's own box
/// ([`Job::Cyclic`]).
pub enum Job {
    /// A one-shot closure; consumed by its single run.
    Once(Box<dyn FnOnce() + Send>),
    /// A resumable job whose box is recycled across steps.
    Cyclic(Box<dyn CyclicJob>),
}

impl Job {
    /// Wraps a resumable job.
    pub fn cyclic<J: CyclicJob + 'static>(job: J) -> Self {
        Job::Cyclic(Box::new(job))
    }
}

// `queue.push(Box::new(closure))` call sites keep working, with the
// one box they already allocate becoming the `Job::Once` payload.
impl<F: FnOnce() + Send + 'static> From<Box<F>> for Job {
    fn from(f: Box<F>) -> Self {
        Job::Once(f)
    }
}

impl From<Box<dyn FnOnce() + Send>> for Job {
    fn from(f: Box<dyn FnOnce() + Send>) -> Self {
        Job::Once(f)
    }
}

/// A FIFO queue of self-scheduling jobs with completion tracking.
///
/// Jobs are run *panic-safely*: a job that panics is caught and
/// recorded (see [`JobQueue::panicked`]) and completion bookkeeping
/// still happens, so one poisoned job can neither wedge the query it
/// belongs to nor kill the worker thread that ran it — essential for
/// throughput mode, where workers are shared by many queries.
pub struct JobQueue {
    jobs: Mutex<VecDeque<Job>>,
    cv: Condvar,
    /// Caller-assigned query tag (0 = untagged). Shared-pool consumers
    /// use it to correlate a queue with the request that spawned it.
    tag: u64,
    /// Jobs queued or currently executing.
    outstanding: AtomicUsize,
    /// Jobs executed in total (statistics).
    executed: Counter,
    /// Jobs whose closure panicked (caught in [`JobQueue::run_job`]).
    panicked: Counter,
    /// Jobs discarded unrun via [`JobQueue::discard`] (fault injection).
    dropped: Counter,
    /// Cyclic-job steps whose box was re-enqueued instead of freed —
    /// each is one `Box<dyn FnOnce>` allocation the continuation
    /// pattern no longer pays.
    recycled: Counter,
    /// Deepest the queue has ever been (observed at push/requeue, while
    /// the queue lock is held, so the reading is exact).
    depth_highwater: MaxGauge,
}

impl JobQueue {
    /// Creates an empty queue.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Creates an empty queue carrying a per-query `tag`. Tags flow
    /// through shared executors untouched; the query server assigns one
    /// per admitted request so a queue observed inside the pool (stall
    /// dumps, retirement accounting) can be traced back to its request.
    pub fn tagged(tag: u64) -> Arc<Self> {
        Arc::new(Self {
            tag,
            ..Self::default()
        })
    }

    /// The caller-assigned query tag (0 = untagged).
    pub fn tag(&self) -> u64 {
        self.tag
    }

    /// Enqueues a job. Accepts a boxed closure (`Box::new(move || …)`)
    /// or a [`Job`] directly (`Job::cyclic(…)` for resumable jobs).
    pub fn push(&self, job: impl Into<Job>) {
        let job = job.into();
        // ordering: outstanding is a completion *protocol*, not a mere (model: job_queue_outstanding)
        // stat — wait_for_completion spins on it reaching 0, so every
        // increment/decrement is AcqRel to pair with the Acquire load
        // in outstanding(): the release of the final fetch_sub makes
        // the finished job's writes visible to the woken waiter.
        self.outstanding.fetch_add(1, Ordering::AcqRel);
        let depth = {
            let mut guard = self.jobs.lock();
            guard.push_back(job);
            guard.len()
        };
        self.depth_highwater.observe(depth as u64);
        recorder::record(EventKind::QueuePush, depth as u64);
    }

    /// Number of jobs queued or running.
    pub fn outstanding(&self) -> usize {
        self.outstanding.load(Ordering::Acquire)
    }

    /// Total jobs executed so far.
    pub fn executed(&self) -> usize {
        self.executed.get() as usize
    }

    /// Jobs whose closure panicked. The panics were caught; the queue
    /// (and any pool running it) remains usable.
    pub fn panicked(&self) -> usize {
        self.panicked.get() as usize
    }

    /// Jobs discarded without running via [`JobQueue::discard`].
    pub fn dropped(&self) -> usize {
        self.dropped.get() as usize
    }

    /// Cyclic-job steps that recycled their box (continuations run
    /// without allocating). See [`CyclicJob`].
    pub fn recycled(&self) -> usize {
        self.recycled.get() as usize
    }

    /// Deepest the queue has ever been. Executors fold this into their
    /// registry's `queue_depth_highwater` when the query retires.
    pub fn depth_highwater(&self) -> u64 {
        self.depth_highwater.get()
    }

    /// Number of jobs currently queued (excluding running jobs).
    pub fn queued_len(&self) -> usize {
        self.jobs.lock().len()
    }

    /// Whether all work has completed (nothing queued or running).
    /// Meaningful only after at least one job has been pushed.
    pub fn is_complete(&self) -> bool {
        self.outstanding() == 0
    }

    /// Pops a job without blocking. Used by the shared pool, which
    /// multiplexes several queues per thread.
    pub fn try_pop(&self) -> Option<Job> {
        let (job, depth) = {
            let mut guard = self.jobs.lock();
            (guard.pop_front(), guard.len())
        };
        if job.is_some() {
            recorder::record(EventKind::QueuePop, depth as u64);
        }
        job
    }

    /// Pops the `n`-th queued job (0 = front) without blocking.
    /// `n` is taken modulo the current queue length, so any `usize`
    /// selects *some* job when the queue is non-empty. This is the
    /// [`DeterministicExecutor`](crate::DeterministicExecutor)'s hook
    /// for exploring schedules: picking a pseudo-random position
    /// simulates an arbitrary interleaving of worker threads.
    pub fn try_pop_nth(&self, n: usize) -> Option<Job> {
        let (job, depth) = {
            let mut guard = self.jobs.lock();
            let len = guard.len();
            if len == 0 {
                return None;
            }
            (guard.remove(n % len), guard.len())
        };
        if job.is_some() {
            recorder::record(EventKind::QueuePop, depth as u64);
        }
        job
    }

    /// Runs one popped job and performs completion bookkeeping. The
    /// caller must have obtained `job` from this queue. Returns whether
    /// the job panicked, so observed workers can count panics without
    /// inspecting queue counters.
    ///
    /// A panic inside the job is caught and counted (see
    /// [`JobQueue::panicked`]); bookkeeping still runs, so the query
    /// completes and the calling worker thread survives. A panicking
    /// cyclic job is dropped mid-flight — its continuation is lost,
    /// exactly like a panicking `FnOnce` whose captured state unwound.
    pub fn run_job(&self, job: Job) -> bool {
        recorder::record(EventKind::JobStart, self.outstanding() as u64);
        let panicked = match job {
            Job::Once(f) => std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).is_err(),
            Job::Cyclic(mut job) => {
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
                    let more = job.run_step();
                    (job, more)
                }));
                match result {
                    Ok((job, true)) => {
                        // Recycle: the same box goes straight back on
                        // the queue via `requeue`, which leaves the
                        // outstanding count untouched — the job's slot
                        // carries over to the next step, so the count
                        // never dips to zero between segments.
                        self.recycled.incr();
                        self.executed.incr();
                        self.requeue(Job::Cyclic(job));
                        recorder::record(EventKind::JobEnd, 0);
                        return false;
                    }
                    Ok((_, false)) => false,
                    Err(_) => true,
                }
            }
        };
        if panicked {
            self.panicked.incr();
        }
        self.executed.incr();
        recorder::record(EventKind::JobEnd, u64::from(panicked));
        self.finish_one();
        panicked
    }

    /// Completion-side bookkeeping shared by [`JobQueue::run_job`] and
    /// [`JobQueue::discard`]: decrement `outstanding` and, if this was
    /// the last job, wake every waiter — with a lock bridge that makes
    /// the wakeup impossible to lose.
    ///
    /// The waiters (`wait_complete`, the only code parked on `cv`) take
    /// the `jobs` mutex, check `is_complete()` — an *atomic* the mutex
    /// does not guard — and park on `cv`. Without the bridge, this
    /// decrement and the notify can both land in the window between a
    /// waiter's check and its park, and the notify is lost forever:
    /// `wait_complete` has no timeout, so the waiter sleeps for good
    /// (the ROADMAP's ~1-in-12 `throughput_pool.rs` hang — drivers
    /// futex-parked in `wait_complete` while the pool sat idle).
    /// Briefly acquiring and releasing the `jobs` mutex between the
    /// final decrement and the notify serializes with the waiter's
    /// check-then-park critical section: once the bridge acquires the
    /// lock, any waiter that missed the decrement has already released
    /// the mutex *by parking*, so the notify reaches it.
    fn finish_one(&self) {
        // ordering: AcqRel — release publishes this job's side effects (model: job_queue_outstanding)
        // to the waiter that observes outstanding() == 0; acquire
        // orders this decrement after the job body above it.
        if self.outstanding.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Lost-wakeup bridge: see the doc comment above.
            drop(self.jobs.lock());
            self.cv.notify_all();
        }
    }

    /// Discards a popped job *without running it*, performing the same
    /// completion bookkeeping as [`JobQueue::run_job`]. Fault-injection
    /// hook: models a lost continuation (e.g. a worker dying between
    /// popping a job and executing it). The query still terminates; the
    /// loss is observable via [`JobQueue::dropped`].
    pub fn discard(&self, job: Job) {
        drop(job);
        self.dropped.incr();
        self.finish_one();
    }

    /// Re-enqueues a popped job at the back of the queue without
    /// touching the outstanding count (the job is already accounted
    /// for). Fault-injection hook: models a delayed segment — the job
    /// runs eventually, but later than the scheduler would naturally
    /// have run it.
    pub fn requeue(&self, job: Job) {
        self.requeue_batch(std::iter::once(job));
    }

    /// Re-enqueues a *batch* of popped jobs under one lock acquisition,
    /// without touching the outstanding count. The queue-depth
    /// high-water gauge is observed once, after the whole batch: the
    /// queue only grows while the lock is held, so the post-batch
    /// length is exactly the burst's deepest point — the gauge cannot
    /// under-report a recycled-job burst the way per-item sampling
    /// could if a concurrent pop interleaved mid-burst.
    pub fn requeue_batch<I: IntoIterator<Item = Job>>(&self, jobs: I) {
        let (depth, pushed) = {
            let mut guard = self.jobs.lock();
            let before = guard.len();
            for job in jobs {
                guard.push_back(job);
            }
            (guard.len(), guard.len() - before)
        };
        if pushed == 0 {
            return;
        }
        self.depth_highwater.observe(depth as u64);
        recorder::record(EventKind::Requeue, depth as u64);
    }

    /// Blocks until all work completes.
    pub fn wait_complete(&self) {
        let mut guard = self.jobs.lock();
        while !self.is_complete() {
            self.cv.wait(&mut guard);
        }
    }
}

impl Default for JobQueue {
    fn default() -> Self {
        Self {
            jobs: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            tag: 0,
            outstanding: AtomicUsize::new(0),
            executed: Counter::new(),
            panicked: Counter::new(),
            dropped: Counter::new(),
            recycled: Counter::new(),
            depth_highwater: MaxGauge::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// Runs `q`'s jobs on the calling thread until none is queued.
    /// Continuations are pushed before their job returns, so one
    /// drainer finishes the query.
    fn drain(q: &JobQueue) {
        while let Some(job) = q.try_pop() {
            q.run_job(job);
        }
    }

    #[test]
    fn runs_all_jobs_single_thread() {
        let q = JobQueue::new();
        let sum = Arc::new(AtomicU64::new(0));
        for i in 1..=10u64 {
            let sum = Arc::clone(&sum);
            q.push(Box::new(move || {
                sum.fetch_add(i, Ordering::Relaxed);
            }));
        }
        drain(&q);
        assert_eq!(sum.load(Ordering::Relaxed), 55);
        assert!(q.is_complete());
        assert_eq!(q.executed(), 10);
    }

    #[test]
    fn tagged_queue_carries_tag() {
        assert_eq!(JobQueue::new().tag(), 0);
        let q = JobQueue::tagged(42);
        assert_eq!(q.tag(), 42);
        q.push(Box::new(|| {}));
        drain(&q);
        assert_eq!(q.tag(), 42, "tag survives execution");
    }

    #[test]
    fn self_scheduling_jobs_chain() {
        // A job chain that counts down by re-enqueuing itself.
        let q = JobQueue::new();
        let count = Arc::new(AtomicU64::new(0));
        fn step(q: Arc<JobQueue>, count: Arc<AtomicU64>, left: u32) {
            if left == 0 {
                return;
            }
            let q2 = Arc::clone(&q);
            q.push(Box::new(move || {
                count.fetch_add(1, Ordering::Relaxed);
                step(Arc::clone(&q2), count, left - 1);
            }));
        }
        step(Arc::clone(&q), Arc::clone(&count), 100);
        drain(&q);
        assert_eq!(count.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn multiple_workers_drain_queue() {
        let q = JobQueue::new();
        let count = Arc::new(AtomicU64::new(0));
        for _ in 0..1000 {
            let count = Arc::clone(&count);
            q.push(Box::new(move || {
                count.fetch_add(1, Ordering::Relaxed);
            }));
        }
        std::thread::scope(|s| {
            for _ in 0..4 {
                let q = Arc::clone(&q);
                s.spawn(move || drain(&q));
            }
        });
        assert_eq!(count.load(Ordering::Relaxed), 1000);
        assert!(q.is_complete());
    }

    #[test]
    fn wait_complete_blocks_until_done() {
        let q = JobQueue::new();
        let done = Arc::new(AtomicU64::new(0));
        {
            let done = Arc::clone(&done);
            q.push(Box::new(move || {
                std::thread::sleep(std::time::Duration::from_millis(20));
                done.store(1, Ordering::Relaxed);
            }));
        }
        std::thread::scope(|s| {
            let q2 = Arc::clone(&q);
            s.spawn(move || drain(&q2));
            q.wait_complete();
            assert_eq!(done.load(Ordering::Relaxed), 1);
        });
    }

    #[test]
    fn panicking_job_is_caught_and_counted() {
        let q = JobQueue::new();
        let count = Arc::new(AtomicU64::new(0));
        q.push(Box::new(|| panic!("injected fault")));
        {
            let count = Arc::clone(&count);
            q.push(Box::new(move || {
                count.fetch_add(1, Ordering::Relaxed);
            }));
        }
        drain(&q);
        assert!(q.is_complete());
        assert_eq!(q.panicked(), 1);
        assert_eq!(q.executed(), 2);
        assert_eq!(count.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn try_pop_nth_selects_by_index() {
        let q = JobQueue::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        for i in 0..4u32 {
            let log = Arc::clone(&log);
            q.push(Box::new(move || log.lock().push(i)));
        }
        // Pop index 2 ("2"), then index 5 % 3 == 2 ("3"), then fronts.
        for n in [2usize, 5, 0, 0] {
            let job = q.try_pop_nth(n).expect("job available");
            q.run_job(job);
        }
        assert!(q.try_pop_nth(0).is_none());
        assert_eq!(*log.lock(), vec![2, 3, 0, 1]);
        assert!(q.is_complete());
    }

    #[test]
    fn discard_completes_bookkeeping_without_running() {
        let q = JobQueue::new();
        let ran = Arc::new(AtomicU64::new(0));
        {
            let ran = Arc::clone(&ran);
            q.push(Box::new(move || {
                ran.fetch_add(1, Ordering::Relaxed);
            }));
        }
        let job = q.try_pop().unwrap();
        q.discard(job);
        assert!(q.is_complete());
        assert_eq!(q.dropped(), 1);
        assert_eq!(ran.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn requeue_moves_job_to_back_keeping_outstanding() {
        let q = JobQueue::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        for i in 0..2u32 {
            let log = Arc::clone(&log);
            q.push(Box::new(move || log.lock().push(i)));
        }
        let front = q.try_pop().unwrap();
        q.requeue(front); // delay job 0 behind job 1
        assert_eq!(q.outstanding(), 2);
        drain(&q);
        assert_eq!(*log.lock(), vec![1, 0]);
    }

    #[test]
    fn depth_highwater_tracks_deepest_point() {
        let q = JobQueue::new();
        for _ in 0..5 {
            q.push(Box::new(|| {}));
        }
        assert_eq!(q.depth_highwater(), 5);
        drain(&q);
        // Draining does not lower the high-water mark.
        assert_eq!(q.depth_highwater(), 5);
    }

    #[test]
    fn cyclic_job_recycles_box_until_done() {
        struct Countdown {
            left: u32,
            count: Arc<AtomicU64>,
        }
        impl CyclicJob for Countdown {
            fn run_step(&mut self) -> bool {
                self.count.fetch_add(1, Ordering::Relaxed);
                self.left -= 1;
                self.left > 0
            }
        }
        let q = JobQueue::new();
        let count = Arc::new(AtomicU64::new(0));
        q.push(Job::cyclic(Countdown {
            left: 100,
            count: Arc::clone(&count),
        }));
        drain(&q);
        assert_eq!(count.load(Ordering::Relaxed), 100);
        assert!(q.is_complete());
        assert_eq!(q.executed(), 100);
        assert_eq!(q.recycled(), 99, "every step but the last recycles");
    }

    #[test]
    fn cyclic_recycle_keeps_outstanding_nonzero() {
        // Between run_step returning true and the next step starting,
        // the outstanding count must not dip to zero — a transient zero
        // would let wait_complete return, or the pool retire the query,
        // with work remaining.
        struct Probe {
            q: Arc<JobQueue>,
            left: u32,
            min_seen: Arc<AtomicU64>,
        }
        impl CyclicJob for Probe {
            fn run_step(&mut self) -> bool {
                self.min_seen
                    .fetch_min(self.q.outstanding() as u64, Ordering::Relaxed);
                self.left -= 1;
                self.left > 0
            }
        }
        let q = JobQueue::new();
        let min_seen = Arc::new(AtomicU64::new(u64::MAX));
        q.push(Job::cyclic(Probe {
            q: Arc::clone(&q),
            left: 50,
            min_seen: Arc::clone(&min_seen),
        }));
        drain(&q);
        assert!(q.is_complete());
        assert!(min_seen.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn panicking_cyclic_job_is_caught_and_completes() {
        struct Bomb {
            steps: u32,
        }
        impl CyclicJob for Bomb {
            fn run_step(&mut self) -> bool {
                self.steps += 1;
                if self.steps == 3 {
                    panic!("injected fault");
                }
                true
            }
        }
        let q = JobQueue::new();
        q.push(Job::cyclic(Bomb { steps: 0 }));
        drain(&q);
        assert!(q.is_complete());
        assert_eq!(q.panicked(), 1);
        assert_eq!(q.recycled(), 2);
    }

    #[test]
    fn requeue_batch_accounts_burst_depth_once() {
        let q = JobQueue::new();
        // Keep the live queue depth at 1 while accumulating popped
        // jobs, so the pre-batch high-water stays at 1.
        let mut held = Vec::new();
        for _ in 0..3 {
            q.push(Box::new(|| {}));
            held.push(q.try_pop().unwrap());
        }
        assert_eq!(q.depth_highwater(), 1);
        assert_eq!(q.outstanding(), 3);
        q.requeue_batch(held);
        assert_eq!(
            q.depth_highwater(),
            3,
            "the burst's deepest point must be accounted"
        );
        assert_eq!(q.outstanding(), 3, "requeue never touches outstanding");
        drain(&q);
        assert!(q.is_complete());
        assert_eq!(q.executed(), 3);
    }

    #[test]
    fn requeue_batch_of_nothing_is_inert() {
        let q = JobQueue::new();
        q.requeue_batch(std::iter::empty());
        assert_eq!(q.depth_highwater(), 0);
        assert_eq!(q.queued_len(), 0);
    }

    #[test]
    fn completion_wakeup_is_never_lost() {
        // Regression for the ROADMAP hang: the final decrement+notify
        // used to run without the jobs mutex, so it could land between
        // wait_complete's is_complete() check and its park — a lost
        // wakeup with no timeout to save it. finish_one's lock bridge
        // closes the window; this hammers the race window from both
        // sides with a deadline instead of hanging CI on regression.
        use std::time::{Duration, Instant};
        for _ in 0..200 {
            let q = JobQueue::new();
            q.push(Box::new(|| {}));
            let waiter = {
                let q = Arc::clone(&q);
                std::thread::spawn(move || q.wait_complete())
            };
            let runner = {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let job = q.try_pop().unwrap();
                    q.run_job(job);
                })
            };
            runner.join().unwrap();
            let deadline = Instant::now() + Duration::from_secs(10);
            while !waiter.is_finished() {
                assert!(
                    Instant::now() < deadline,
                    "wait_complete hung: completion wakeup was lost"
                );
                std::thread::yield_now();
            }
            waiter.join().unwrap();
        }
    }

    #[test]
    fn queue_operations_record_flight_events() {
        use sparta_obs::{ClockMode, FlightRecorder};
        let rec = FlightRecorder::new(1, 64, ClockMode::Logical);
        let q = JobQueue::new();
        let _g = rec.install(0);
        q.push(Box::new(|| {}));
        let job = q.try_pop().unwrap();
        q.run_job(job);
        let mut kinds = Vec::new();
        rec.ring(0).for_each(|e| kinds.push(e.kind));
        assert_eq!(
            kinds,
            [
                EventKind::QueuePush,
                EventKind::QueuePop,
                EventKind::JobStart,
                EventKind::JobEnd,
            ]
        );
    }
}
