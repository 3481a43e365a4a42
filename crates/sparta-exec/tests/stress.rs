//! Stress tests for the execution substrate: deep self-scheduling
//! chains, rapid query churn, and long and short queries sharing the
//! pool.

use sparta_exec::{Executor, JobQueue, WorkerPool};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn chain(q: &Arc<JobQueue>, counter: &Arc<AtomicU64>, fanout: u32, depth: u32) {
    if depth == 0 {
        return;
    }
    for _ in 0..fanout {
        let q2 = Arc::clone(q);
        let c2 = Arc::clone(counter);
        q.push(Box::new(move || {
            c2.fetch_add(1, Ordering::Relaxed);
            chain(&q2, &c2, 1, depth - 1);
        }));
    }
}

#[test]
fn deep_chains_complete_on_the_pool() {
    for threads in [1usize, 3] {
        let q = JobQueue::new();
        let c = Arc::new(AtomicU64::new(0));
        chain(&q, &c, 8, 50); // 8 chains of depth 50
        WorkerPool::new(threads).run(Arc::clone(&q));
        assert_eq!(c.load(Ordering::Relaxed), 8 * 50, "threads={threads}");
    }
}

#[test]
fn rapid_query_churn_on_shared_pool() {
    let pool = Arc::new(WorkerPool::new(2));
    let total = Arc::new(AtomicU64::new(0));
    std::thread::scope(|s| {
        for _ in 0..4 {
            let pool = Arc::clone(&pool);
            let total = Arc::clone(&total);
            s.spawn(move || {
                for _ in 0..50 {
                    let q = JobQueue::new();
                    let t2 = Arc::clone(&total);
                    q.push(Box::new(move || {
                        t2.fetch_add(1, Ordering::Relaxed);
                    }));
                    pool.run(q);
                }
            });
        }
    });
    assert_eq!(total.load(Ordering::Relaxed), 200);
}

#[test]
fn pool_interleaves_long_and_short_queries() {
    // A long-running query must not starve short ones: the worker it
    // does not occupy admits them.
    let pool = Arc::new(WorkerPool::new(2));
    let long_done = Arc::new(AtomicU64::new(0));
    let long_q = JobQueue::new();
    {
        // 2000 self-rescheduling steps.
        fn step(q: Arc<JobQueue>, c: Arc<AtomicU64>, left: u32) {
            if left == 0 {
                return;
            }
            let q2 = Arc::clone(&q);
            q.push(Box::new(move || {
                c.fetch_add(1, Ordering::Relaxed);
                step(q2, c, left - 1);
            }));
        }
        step(Arc::clone(&long_q), Arc::clone(&long_done), 2000);
    }
    pool.submit(Arc::clone(&long_q));
    // Short queries submitted while the long one runs must complete
    // well before it exhausts its 2000 steps.
    for _ in 0..10 {
        let q = JobQueue::new();
        let hit = Arc::new(AtomicU64::new(0));
        let h2 = Arc::clone(&hit);
        q.push(Box::new(move || {
            h2.store(1, Ordering::Relaxed);
        }));
        pool.run(q);
        assert_eq!(hit.load(Ordering::Relaxed), 1);
    }
    long_q.wait_complete();
    assert_eq!(long_done.load(Ordering::Relaxed), 2000);
}

#[test]
fn executor_reports_parallelism() {
    assert_eq!(WorkerPool::new(7).parallelism(), 7);
}
