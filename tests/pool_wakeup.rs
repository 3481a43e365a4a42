//! Worker-pool park/retire interleavings and the wakeup protocol.
//!
//! History: the original `JobQueue::finish_one` decremented the
//! outstanding counter and notified the completion condvar *without*
//! touching the queue mutex. A notify landing between a waiter's
//! counter check and its park was silently lost — the classic lost
//! wakeup — wedging `wait_done` forever. The shipped fix is the *lock
//! bridge*: after the final decrement, `finish_one` acquires and
//! immediately drops the queue mutex before notifying, which
//! serializes the notify against the waiter's check-then-park window
//! (the waiter holds that mutex continuously until the condvar's
//! atomic release-and-park).
//!
//! Coverage here is three-layered:
//!
//! 1. `sparta_model`'s `job_queue` model *exhaustively enumerates*
//!    every interleaving of one waiter and one finisher under both
//!    protocols: the legacy protocol provably loses wakeups, the lock
//!    bridge never does.
//! 2. [`sweep_pool_schedules`] churns real `WorkerPool`s (1–4 workers,
//!    seed-derived) through construction, query execution, burst
//!    submission, and the retire/join shutdown handshake — the
//!    sleep-→-retire window a model cannot exercise.
//! 3. A sleep/retire race loop drops pools immediately after their
//!    last completion, racing worker parking against shutdown notify.

use sparta::prelude::*;
use sparta_exec::JobQueue;
use sparta_model::protocols::job_queue::{model, Variant};
use sparta_model::protocols::Mutation;
use sparta_testkit::{base_seed, build_index, long_query, sweep_pool_schedules};
use std::sync::Arc;

#[test]
fn wakeup_model_proves_the_lock_bridge() {
    let legacy = model(Variant::Legacy, Mutation::None).check();
    let bridge = model(Variant::LockBridge, Mutation::None).check();
    assert!(!legacy.truncated && !bridge.truncated, "must be exhaustive");
    assert!(
        legacy.violations >= 1,
        "legacy protocol must exhibit the lost wakeup: {legacy:?}"
    );
    assert_eq!(
        bridge.violations, 0,
        "lock-bridge protocol must never lose a wakeup: {bridge:?}"
    );
    assert!(bridge.executions > 0);
}

#[test]
fn pool_sweep_results_match_deterministic_across_worker_counts() {
    let (ix, corpus) = build_index(41);
    let q = long_query(&corpus, 9);
    let cfg = SearchConfig::exact(10).with_seg_size(64).with_phi(256);
    let want = Sparta
        .search(&ix, &q, &cfg, &DeterministicExecutor::new(base_seed()))
        .scores();
    sweep_pool_schedules(6, |seed, pool| {
        let got = Sparta.search(&ix, &q, &cfg, pool).scores();
        assert_eq!(got, want, "pool schedule seed {seed} diverged");
    });
}

#[test]
fn burst_submission_completes_under_every_pool_schedule() {
    // Bursts of trivial jobs maximize pressure on the submit-notify vs
    // worker-park edge: with the lock bridge every wait_done returns.
    sweep_pool_schedules(12, |seed, pool| {
        for j in 0..3u64 {
            let q = JobQueue::new();
            let jobs = 1 + ((seed ^ j) % 4);
            for _ in 0..jobs {
                q.push(Box::new(|| {}));
            }
            pool.run(Arc::clone(&q));
            assert!(q.is_complete(), "seed {seed} burst {j} did not complete");
            assert_eq!(q.executed(), jobs as usize);
        }
    });
}

#[test]
fn sleep_retire_race_pool_dropped_right_after_completion() {
    // The sweep drops the pool at the end of each seed iteration, so
    // finishing the check with a just-completed queue races the
    // workers' descent into their parked sleep against the shutdown
    // flag + notify of the retire handshake. A lost shutdown wakeup
    // would hang the drop (and the test) here.
    sweep_pool_schedules(16, |_seed, pool| {
        let q = JobQueue::new();
        q.push(Box::new(|| {}));
        pool.run(Arc::clone(&q));
        assert!(q.is_complete());
    });
}
