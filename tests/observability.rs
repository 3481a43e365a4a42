//! Observability determinism and concurrency tests.
//!
//! The acceptance bar for the tracing layer: under the deterministic
//! executor with a logical-step clock, replaying the same schedule
//! seed yields *bit-identical* span vectors and heap traces — no
//! wall-clock jitter leaks into the record. The metric primitives must
//! likewise count exactly under every explored schedule and under real
//! thread-level concurrency.

use sparta_core::config::SearchConfig;
use sparta_core::{algorithm_by_name, TopKResult};
use sparta_exec::{DeterministicExecutor, Executor, JobQueue, WorkerPool};
use sparta_obs::{phase_totals, ClockMode, Histogram, Phase};
use sparta_testkit::{base_seed, build_index, long_query, sweep_schedules};
use std::sync::Arc;

/// Algorithms with phase-span instrumentation.
const TRACED_ALGOS: [&str; 5] = ["sparta", "pnra", "snra", "pjass", "pbmw"];

fn run_traced(name: &str, seed: u64) -> TopKResult {
    let (ix, corpus) = build_index(7);
    let q = long_query(&corpus, 11);
    let cfg = SearchConfig::exact(10)
        .with_spans(true)
        .with_clock(ClockMode::Logical)
        .with_trace(true);
    let exec = DeterministicExecutor::new(seed);
    algorithm_by_name(name)
        .unwrap_or_else(|| panic!("unknown algorithm {name}"))
        .search(&ix, &q, &cfg, &exec)
}

#[test]
fn traces_bit_identical_across_replays_of_same_seed() {
    for name in TRACED_ALGOS {
        let a = run_traced(name, base_seed());
        let b = run_traced(name, base_seed());
        let spans_a = a.spans.as_deref().expect("spans enabled");
        let spans_b = b.spans.as_deref().expect("spans enabled");
        assert!(!spans_a.is_empty(), "{name}: no spans recorded");
        assert_eq!(spans_a, spans_b, "{name}: span replay diverged");
        assert_eq!(a.trace, b.trace, "{name}: heap-trace replay diverged");
        assert_eq!(a.docs(), b.docs(), "{name}: results diverged");
    }
}

#[test]
fn replay_determinism_holds_across_schedules() {
    sweep_schedules(4, |seed, _| {
        let a = run_traced("sparta", seed);
        let b = run_traced("sparta", seed);
        assert_eq!(a.spans, b.spans, "seed {seed}: spans diverged");
        assert_eq!(a.trace, b.trace, "seed {seed}: trace diverged");
    });
}

#[test]
fn logical_spans_are_well_formed_and_cover_phases() {
    let r = run_traced("sparta", base_seed());
    let spans = r.spans.unwrap();
    // Logical ticks are unique per trace, so sorted spans strictly
    // advance and every span closes after it opens.
    for w in spans.windows(2) {
        assert!(w[0].start < w[1].start, "logical ticks not unique");
    }
    for s in &spans {
        assert!(s.end > s.start, "span {s:?} closed before opening");
    }
    let phases: Vec<Phase> = phase_totals(&spans).iter().map(|t| t.phase).collect();
    for expected in [Phase::Plan, Phase::TermProcess, Phase::HeapMerge] {
        assert!(phases.contains(&expected), "missing phase {expected:?}");
    }
}

#[test]
fn histogram_counts_exactly_under_every_schedule() {
    sweep_schedules(8, |seed, exec| {
        let hist = Arc::new(Histogram::new());
        let queue = JobQueue::new();
        let jobs = 16u64;
        let per_job = 8u64;
        for j in 0..jobs {
            let hist = Arc::clone(&hist);
            queue.push(Box::new(move || {
                for v in 0..per_job {
                    hist.record(j * per_job + v);
                }
            }));
        }
        exec.run(queue);
        let s = hist.snapshot();
        assert_eq!(s.count, jobs * per_job, "seed {seed}: lost observations");
        let n = jobs * per_job;
        assert_eq!(s.sum, n * (n - 1) / 2, "seed {seed}: sum drifted");
        // Percentiles stay monotone no matter the recording order.
        let (p50, p90, p99) = (s.percentile(0.5), s.percentile(0.9), s.percentile(0.99));
        assert!(
            p50 <= p90 && p90 <= p99,
            "seed {seed}: non-monotone percentiles"
        );
    });
}

#[test]
fn histogram_counts_exactly_under_thread_concurrency() {
    let hist = Arc::new(Histogram::new());
    let queue = JobQueue::new();
    let jobs = 32u64;
    let per_job = 1000u64;
    for _ in 0..jobs {
        let hist = Arc::clone(&hist);
        queue.push(Box::new(move || {
            for v in 1..=per_job {
                hist.record(v);
            }
        }));
    }
    WorkerPool::new(4).run(queue);
    let s = hist.snapshot();
    assert_eq!(s.count, jobs * per_job);
    assert_eq!(s.sum, jobs * per_job * (per_job + 1) / 2);
}
