//! Deterministic schedule-exploring executor for concurrency tests.
//!
//! The parallel algorithms in this workspace are *schedule-oblivious*:
//! their invariants (exact recall, lower-bound partial scores, Eq. 2
//! termination) must hold no matter which queued job a worker grabs
//! next. Real thread pools explore schedules haphazardly and
//! unreproducibly; [`DeterministicExecutor`] explores them on purpose.
//!
//! It drains the queue on the *calling thread*, and at every step picks
//! the next job with a seeded PRNG — so one `u64` seed fully determines
//! the schedule. Re-running with the same seed replays the exact
//! interleaving, turning "flaky once a week under load" into "fails
//! every time with seed 17". Tests that sweep seeds print the failing
//! seed so it can be replayed with `SPARTA_TEST_SEED=<n>`.
//!
//! Because jobs run one at a time, data races are not exercised — this
//! executor targets *ordering* bugs (lost wakeups, premature
//! termination, threshold updates observed out of order) and, combined
//! with a [`FaultPlan`], *robustness* bugs (panicking jobs, delayed
//! segments, lost continuations).

use crate::fault::FaultPlan;
use crate::{Executor, JobQueue};
use sparta_obs::ring::EventKind;
use sparta_obs::{ClockMode, FlightRecorder};
use std::sync::Arc;

/// SplitMix64 (Steele et al.), inlined so `sparta-exec` stays
/// dependency-free. Passes BigCrush; more than enough to pick queue
/// positions.
#[derive(Debug, Clone)]
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// A single-threaded executor that replays a pseudo-random schedule
/// chosen by a seed, optionally injecting faults from a [`FaultPlan`].
///
/// Implements [`Executor`], so it drops into any `search(...)` call in
/// place of [`WorkerPool`](crate::WorkerPool). It
/// *reports* a configurable virtual parallelism (default 4) so
/// algorithms still fan out work into many jobs — giving the scheduler
/// interleavings to explore — while actually running them one at a
/// time.
#[derive(Debug, Clone)]
pub struct DeterministicExecutor {
    seed: u64,
    parallelism: usize,
    faults: FaultPlan,
    recorder: Option<Arc<FlightRecorder>>,
}

impl DeterministicExecutor {
    /// Creates an executor whose schedule is fully determined by `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            parallelism: 4,
            faults: FaultPlan::none(),
            recorder: None,
        }
    }

    /// Sets the parallelism the executor *advertises* to algorithms
    /// (they size job fan-out from it; execution stays single-threaded).
    #[must_use]
    pub fn with_parallelism(mut self, parallelism: usize) -> Self {
        assert!(parallelism >= 1);
        self.parallelism = parallelism;
        self
    }

    /// Attaches a fault-injection plan.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// The seed this executor replays. Tests print it on failure.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Attaches a flight recorder. Each scheduling step runs under the
    /// ring of *virtual worker* `step % parallelism` — the events a
    /// real pool would spread over threads land in the same per-worker
    /// rings, deterministically. Pair with a [`ClockMode::Logical`]
    /// recorder for byte-identical traces across same-seed runs.
    #[must_use]
    pub fn with_recorder(mut self, recorder: Arc<FlightRecorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// The attached flight recorder, if any.
    pub fn recorder(&self) -> Option<&Arc<FlightRecorder>> {
        self.recorder.as_ref()
    }
}

impl Executor for DeterministicExecutor {
    fn run(&self, queue: Arc<JobQueue>) {
        let mut rng = SplitMix64(self.seed);
        let mut step: u64 = 0;
        loop {
            if self.faults.panic_steps.contains(&step) {
                queue.push(Box::new(|| panic!("injected fault: panicking job")));
            }
            let len = queue.queued_len();
            if len == 0 {
                // Single-threaded: nothing queued means nothing running,
                // so the query is complete (jobs only enqueue while they
                // run, and no job is running now).
                debug_assert!(queue.is_complete());
                break;
            }
            // Multiplex the schedule over virtual workers: step s runs
            // under worker (s % parallelism)'s ring, so one thread
            // produces the per-worker timelines a real pool would.
            // Sequential re-installs keep each ring single-writer.
            let _rec = self
                .recorder
                .as_ref()
                .map(|r| r.install((step % self.parallelism as u64) as usize));
            let pick = (rng.next() % len as u64) as usize;
            let Some(job) = queue.try_pop_nth(pick) else {
                continue; // unreachable single-threaded; defensive
            };
            if self.faults.stall_steps.contains(&step) {
                // Injected wedge: the job vanishes with no completion
                // bookkeeping, so `outstanding` stays above zero forever
                // — exactly the state a stall watchdog must detect. Skip
                // the completeness debug_assert by returning here.
                drop(job);
                return;
            }
            if self.faults.drop_steps.contains(&step) {
                queue.discard(job);
            } else if self.faults.defer_steps.contains(&step) {
                queue.requeue(job);
            } else {
                queue.run_job(job);
            }
            step += 1;
        }
        // Drained: every virtual worker that ran a step goes idle, as
        // pool workers would. The synthetic Park/Unpark pair closes each
        // worker's timeline with one complete park interval.
        if let Some(rec) = &self.recorder {
            let workers = (self.parallelism as u64).min(step.max(1));
            for w in 0..workers {
                let _g = rec.install(w as usize);
                sparta_obs::recorder::record(EventKind::Park, 0);
                sparta_obs::recorder::record(EventKind::Unpark, 0);
            }
        }
    }

    fn parallelism(&self) -> usize {
        self.parallelism
    }

    fn clock_mode(&self) -> ClockMode {
        ClockMode::Logical
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;

    /// Pushes a two-level job tree and records execution order.
    fn run_tree(exec: &DeterministicExecutor) -> Vec<u32> {
        let q = JobQueue::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        for i in 0..4u32 {
            let log = Arc::clone(&log);
            let q2 = Arc::clone(&q);
            q.push(Box::new(move || {
                log.lock().push(i);
                let log2 = Arc::clone(&log);
                q2.push(Box::new(move || log2.lock().push(10 + i)));
            }));
        }
        exec.run(Arc::clone(&q));
        assert!(q.is_complete());
        let order = log.lock().clone();
        order
    }

    #[test]
    fn same_seed_same_schedule() {
        let a = run_tree(&DeterministicExecutor::new(42));
        let b = run_tree(&DeterministicExecutor::new(42));
        assert_eq!(a, b);
        assert_eq!(a.len(), 8);
    }

    #[test]
    fn seeds_explore_distinct_schedules() {
        let orders: Vec<_> = (0..16)
            .map(|s| run_tree(&DeterministicExecutor::new(s)))
            .collect();
        let distinct: std::collections::HashSet<_> = orders.iter().collect();
        assert!(
            distinct.len() >= 2,
            "16 seeds produced a single schedule: {orders:?}"
        );
    }

    #[test]
    fn injected_panic_does_not_wedge_run() {
        let exec = DeterministicExecutor::new(7).with_faults(FaultPlan::none().panic_at(1));
        let order = run_tree(&exec);
        assert_eq!(order.len(), 8, "all real jobs still ran");
    }

    #[test]
    fn dropped_job_still_terminates() {
        let exec = DeterministicExecutor::new(7).with_faults(FaultPlan::none().drop_at(0));
        let order = run_tree(&exec);
        // One root job (and thus its child) never ran, but no hang.
        assert!(order.len() < 8);
    }

    #[test]
    fn deferred_job_runs_eventually() {
        let exec = DeterministicExecutor::new(7).with_faults(FaultPlan::none().defer_at(0));
        let order = run_tree(&exec);
        assert_eq!(order.len(), 8);
    }
}
