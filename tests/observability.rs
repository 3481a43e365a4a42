//! Observability determinism and concurrency tests.
//!
//! The acceptance bar for the tracing layer: under the deterministic
//! executor with a logical-step clock, replaying the same schedule
//! seed yields *bit-identical* heap traces — no wall-clock jitter
//! leaks into the record — and the phase spans in the flight
//! recorder's rings are well formed (`flight_recorder.rs` checks their
//! export replays byte for byte). The metric primitives must likewise
//! count exactly under every explored schedule and under real
//! thread-level concurrency.

use sparta_core::config::SearchConfig;
use sparta_core::{algorithm_by_name, TopKResult};
use sparta_exec::{DeterministicExecutor, Executor, JobQueue, WorkerPool};
use sparta_obs::{ClockMode, EventKind, FlightRecorder, Histogram, Phase};
use sparta_testkit::{base_seed, build_index, long_query, sweep_schedules};
use std::sync::Arc;

/// Algorithms with phase-span instrumentation.
const TRACED_ALGOS: [&str; 6] = ["sparta", "pnra", "snra", "pjass", "pbmw", "pra"];

fn run_traced(name: &str, exec: &DeterministicExecutor) -> TopKResult {
    let (ix, corpus) = build_index(7);
    let q = long_query(&corpus, 11);
    let cfg = SearchConfig::exact(10).with_trace(true);
    algorithm_by_name(name)
        .unwrap_or_else(|| panic!("unknown algorithm {name}"))
        .search(&ix, &q, &cfg, exec)
}

#[test]
fn traces_bit_identical_across_replays_of_same_seed() {
    for name in TRACED_ALGOS {
        let a = run_traced(name, &DeterministicExecutor::new(base_seed()));
        let b = run_traced(name, &DeterministicExecutor::new(base_seed()));
        assert_eq!(a.trace, b.trace, "{name}: heap-trace replay diverged");
        assert_eq!(a.docs(), b.docs(), "{name}: results diverged");
    }
}

#[test]
fn replay_determinism_holds_across_schedules() {
    sweep_schedules(4, |seed, _| {
        let a = run_traced("sparta", &DeterministicExecutor::new(seed));
        let b = run_traced("sparta", &DeterministicExecutor::new(seed));
        assert_eq!(a.trace, b.trace, "seed {seed}: trace diverged");
    });
}

#[test]
fn logical_spans_are_well_formed_and_cover_phases() {
    // Rings 0..4 are the virtual workers; ring 4 is the calling
    // thread's, where planning and the merge run.
    let rec = FlightRecorder::new(5, 1 << 14, ClockMode::Logical);
    {
        let _caller = rec.install(4);
        let exec = DeterministicExecutor::new(base_seed()).with_recorder(Arc::clone(&rec));
        run_traced("sparta", &exec);
    }
    assert_eq!(rec.dropped_events(), 0, "the rings must hold the whole run");
    let mut closed = Vec::new();
    for w in 0..rec.worker_count() {
        // Logical ticks are unique, so a ring's events strictly
        // advance; its spans nest, each end closing the innermost one.
        let (mut open, mut last) = (Vec::new(), None);
        rec.ring(w).for_each(|e| {
            assert!(Some(e.ts) > last, "ring {w}: logical ticks not unique");
            last = Some(e.ts);
            let phase = u8::try_from(e.payload).ok().and_then(Phase::from_index);
            match e.kind {
                EventKind::SpanBegin => open.push(phase),
                EventKind::SpanEnd => {
                    let begun = open.pop().expect("span closed before opening");
                    assert_eq!(begun, phase, "ring {w}: spans interleave");
                    closed.extend(phase);
                }
                _ => {}
            }
        });
        assert!(open.is_empty(), "ring {w}: a span never closed");
    }
    for expected in [Phase::Plan, Phase::TermProcess, Phase::HeapMerge] {
        assert!(closed.contains(&expected), "missing phase {expected:?}");
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
