//! Throughput-mode integration: the same algorithm code must produce
//! identical results when its jobs run on the shared FCFS worker pool
//! (§5.1's throughput evaluation mode) as under a seeded
//! single-threaded schedule, including with many queries in flight
//! concurrently. It also checks
//! how the pool places queries: each stays on one worker, and completed
//! ones are retired while a backlog drains.

use sparta::prelude::*;
use sparta_exec::{CyclicJob, Job, JobQueue, StallWatchdog, WatchdogConfig};
use sparta_obs::{ClockMode, ExecMetrics, FlightRecorder};
use sparta_testkit::{base_seed, build_index as build};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Duration;

/// A recorder-instrumented pool guarded by the stall watchdog: if any
/// throughput test wedges (no recorder events for 30s with work
/// outstanding), the watchdog dumps every worker's event ring to
/// stderr before the CI timeout kills the job — turning a silent hang
/// into a diagnosable one.
fn guarded_pool(threads: usize, metrics: Option<Arc<ExecMetrics>>) -> (WorkerPool, StallWatchdog) {
    let rec = FlightRecorder::new(threads, 1 << 12, ClockMode::Wall);
    let pool = WorkerPool::with_recorder(threads, metrics, rec);
    let wd = pool
        .watchdog(WatchdogConfig {
            quiet: Duration::from_secs(30),
            ..WatchdogConfig::default()
        })
        .expect("pool has a recorder");
    (pool, wd)
}

#[test]
fn pool_results_match_deterministic() {
    let (ix, corpus) = build(31);
    let log = QueryLog::generate(corpus.stats(), 2, 4, 5);
    let cfg = SearchConfig::exact(15).with_seg_size(64).with_phi(256);
    let (pool, _watchdog) = guarded_pool(3, None);
    let replay = DeterministicExecutor::new(base_seed()).with_parallelism(3);
    for q in log.all() {
        for algo in sparta::core::registry::case_study_algorithms() {
            let a = algo.search(&ix, q, &cfg, &replay);
            let b = algo.search(&ix, q, &cfg, &pool);
            assert_eq!(
                a.scores(),
                b.scores(),
                "{} differs on the shared pool for {:?}",
                algo.name(),
                q.terms
            );
        }
    }
}

#[test]
fn concurrent_queries_share_pool_correctly() {
    let (ix, corpus) = build(32);
    let log = QueryLog::generate(corpus.stats(), 4, 3, 6);
    let cfg = SearchConfig::exact(10).with_seg_size(64);
    let (pool, _watchdog) = guarded_pool(4, None);
    let pool = Arc::new(pool);
    let queries: Vec<Query> = log.all().cloned().collect();
    // Expected results, computed serially.
    let replay = DeterministicExecutor::new(base_seed());
    let expected: Vec<Vec<u64>> = queries
        .iter()
        .map(|q| Sparta.search(&ix, q, &cfg, &replay).scores())
        .collect();
    // Submit all queries concurrently from several driver threads.
    std::thread::scope(|s| {
        for (q, want) in queries.iter().zip(&expected) {
            let ix = Arc::clone(&ix);
            let pool = Arc::clone(&pool);
            s.spawn(move || {
                let got = Sparta.search(&ix, q, &cfg, pool.as_ref()).scores();
                assert_eq!(&got, want, "concurrent result diverged for {:?}", q.terms);
            });
        }
    });
}

#[test]
fn pool_survives_many_sequential_queries() {
    let (ix, corpus) = build(33);
    let log = QueryLog::generate(corpus.stats(), 1, 6, 7);
    let cfg = SearchConfig::exact(10);
    let (pool, _watchdog) = guarded_pool(2, None);
    let oracle_recall_one = |q: &Query| {
        let oracle = Oracle::compute(ix.as_ref(), q, 10);
        let r = PJass.search(&ix, q, &cfg, &pool);
        oracle.recall(&r.docs())
    };
    for m in 1..=6 {
        for q in log.of_length(m) {
            assert_eq!(oracle_recall_one(q), 1.0, "query {:?}", q.terms);
        }
    }
    assert_eq!(pool.pending_queries(), 0);
    // Completed queues are retired lazily, on a worker's next pick; give
    // the pool a moment to notice.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
    while pool.active_queries() > 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert_eq!(pool.active_queries(), 0);
}

/// One of a query's chains: each step burns a little CPU and logs the
/// thread it ran on.
struct LoggedChain {
    steps: u32,
    log: Arc<Mutex<Vec<ThreadId>>>,
}

impl CyclicJob for LoggedChain {
    fn run_step(&mut self) -> bool {
        let mut x = u64::from(self.steps);
        for _ in 0..20_000 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        self.log.lock().unwrap().push(std::thread::current().id());
        self.steps -= 1;
        self.steps > 0
    }
}

/// The share of a query's steps run by the worker that ran most of them.
fn majority_share(log: &[ThreadId]) -> f64 {
    let most = log
        .iter()
        .map(|t| log.iter().filter(|u| *u == t).count())
        .max()
        .unwrap_or(0);
    most as f64 / log.len() as f64
}

/// Query affinity: with as many clients as workers, each query's jobs
/// stay on one worker instead of alternating between them.
#[test]
fn concurrent_queries_stay_on_one_worker() {
    const CLIENTS: usize = 2;
    const QUERIES: usize = 40;
    let (pool, _watchdog) = guarded_pool(2, None);
    let mut shares: Vec<f64> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    (0..QUERIES)
                        .map(|_| {
                            let q = JobQueue::new();
                            let log = Arc::new(Mutex::new(Vec::new()));
                            for _ in 0..4 {
                                q.push(Job::cyclic(LoggedChain {
                                    steps: 8,
                                    log: Arc::clone(&log),
                                }));
                            }
                            pool.run(q);
                            let log = log.lock().unwrap();
                            assert_eq!(log.len(), 32);
                            majority_share(&log)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect()
    });
    shares.sort_by(f64::total_cmp);
    let median = shares[shares.len() / 2];
    eprintln!(
        "majority-worker share: median {median:.2}, min {:.2}",
        shares[0]
    );
    assert!(median >= 0.75, "median majority-worker share {median:.2}");
}

/// Retirement keeps pace with admission: under a backlog each worker
/// admits from `pending` as its query completes, and completed queries
/// must still leave `active`.
#[test]
fn a_backlog_retires_queries_as_it_drains() {
    const QUERIES: usize = 300;
    let metrics = ExecMetrics::new(2);
    let (pool, _watchdog) = guarded_pool(2, Some(Arc::clone(&metrics)));
    let queries: Vec<_> = (0..QUERIES)
        .map(|_| {
            let q = JobQueue::new();
            let log = Arc::new(Mutex::new(Vec::new()));
            for _ in 0..2 {
                q.push(Job::cyclic(LoggedChain {
                    steps: 2,
                    log: Arc::clone(&log),
                }));
            }
            q
        })
        .collect();
    for q in &queries {
        pool.submit(Arc::clone(q));
    }
    let mut most_active = 0;
    while !queries.iter().all(|q| q.is_complete()) {
        most_active = most_active.max(pool.active_queries());
        std::thread::yield_now();
    }
    assert!(
        most_active <= 2 * pool.parallelism(),
        "{most_active} queries active at once on a 2-worker pool"
    );
    // The last retirement can trail the last completion by one pick;
    // the drop joins the workers and retires it.
    drop(pool);
    assert_eq!(metrics.snapshot().queries_run, QUERIES as u64);
}
