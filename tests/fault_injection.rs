//! Fault-injection tests: the execution stack must survive panicking
//! jobs, delayed segments, and lost continuations — without wedging the
//! query, poisoning the pool, or corrupting a *subsequent* query.

use sparta::prelude::*;
use sparta_obs::{ClockMode, EventKind, FlightRecorder, Phase};
use sparta_testkit::{
    assert_eq2_termination, assert_exact_invariants, build_index, long_query, sweep_schedules,
};
use std::sync::Arc;

/// A panicking job injected mid-query is caught and surfaced in
/// `WorkStats::jobs_panicked`; the query still terminates with perfect
/// recall (the injected job carries no Sparta work).
#[test]
fn injected_panic_is_recorded_and_query_stays_exact() {
    let (ix, corpus) = build_index(71);
    let q = long_query(&corpus, 1);
    let cfg = SearchConfig::exact(15).with_seg_size(64).with_phi(256);
    let oracle = Oracle::compute(ix.as_ref(), &q, 15);
    sweep_schedules(8, |seed, exec| {
        let faulty = exec.clone().with_faults(FaultPlan::none().panic_at(3));
        let r = Sparta.search(&ix, &q, &cfg, &faulty);
        assert_eq!(r.work.jobs_panicked, 1, "seed {seed}: panic not recorded");
        assert_eq!(
            oracle.recall(&r.docs()),
            1.0,
            "seed {seed}: panic corrupted the result"
        );
    });
}

/// Delayed segments (jobs pushed to the back of the queue) must not
/// change the result — Sparta's invariants are order-independent.
#[test]
fn deferred_segments_do_not_change_results() {
    let (ix, corpus) = build_index(72);
    let q = long_query(&corpus, 2);
    let cfg = SearchConfig::exact(15).with_seg_size(64).with_phi(256);
    let oracle = Oracle::compute(ix.as_ref(), &q, 15);
    sweep_schedules(8, |seed, exec| {
        let faults = FaultPlan::none().defer_at(1).defer_at(5).defer_at(9);
        let faulty = exec.clone().with_faults(faults);
        let r = Sparta.search(&ix, &q, &cfg, &faulty);
        assert_eq!(
            oracle.recall(&r.docs()),
            1.0,
            "seed {seed}: deferral changed the result"
        );
    });
}

/// Dropped continuations (a worker dying between pop and run) must not
/// hang the query: completion bookkeeping still runs. Results may be
/// partial — only liveness and structural validity are asserted.
#[test]
fn dropped_continuations_never_hang() {
    let (ix, corpus) = build_index(73);
    let q = long_query(&corpus, 3);
    let cfg = SearchConfig::exact(15).with_seg_size(64).with_phi(256);
    sweep_schedules(16, |seed, exec| {
        let faults = FaultPlan::none().drop_at(2).drop_at(7);
        let faulty = exec.clone().with_faults(faults);
        // Terminates (the test harness itself would hang otherwise)…
        let r = Sparta.search(&ix, &q, &cfg, &faulty);
        // …with rank-ordered hits and honest lower-bound scores.
        assert!(
            r.hits.windows(2).all(|w| w[0].score >= w[1].score),
            "seed {seed}: rank order broken after dropped jobs"
        );
    });
}

/// A lost cleaner pass holds its claim on `next_pass_at` forever, so no
/// worker can enqueue another: the lists run dry, and the inline pass
/// that follows the join must still end the query exactly, by Eq. 2.
/// The pass to drop is found in the fault-free, recorded run of the
/// same seed: until a pass stops the query every step opens exactly one
/// span, so the first cleaner span's rank among the job spans, ordered
/// by logical timestamp across the workers' rings, is its step.
#[test]
fn a_lost_cleaner_pass_ends_exactly_on_the_inline_pass() {
    let (ix, corpus) = build_index(63);
    let q = long_query(&corpus, 5);
    let cfg = SearchConfig::exact(10).with_seg_size(64).with_phi(256);
    let oracle = Oracle::compute(ix.as_ref(), &q, 10);
    let total: u64 = q.terms.iter().map(|&t| ix.doc_freq(t)).sum();
    sweep_schedules(8, |seed, exec| {
        let ctx = format!("seed {seed}");
        let rec = FlightRecorder::new(4, 1 << 14, ClockMode::Logical);
        Sparta.search(&ix, &q, &cfg, &exec.clone().with_recorder(Arc::clone(&rec)));
        assert_eq!(
            rec.dropped_events(),
            0,
            "{ctx}: the rings must hold the run"
        );
        let mut begun = Vec::new();
        for w in 0..rec.worker_count() {
            rec.ring(w).for_each(|e| {
                let phase = u8::try_from(e.payload).ok().and_then(Phase::from_index);
                if e.kind == EventKind::SpanBegin
                    && matches!(phase, Some(Phase::TermProcess | Phase::Cleaner))
                {
                    begun.push((e.ts, phase));
                }
            });
        }
        begun.sort_unstable();
        let step = begun
            .iter()
            .position(|&(_, p)| p == Some(Phase::Cleaner))
            .expect("a pass ran among the jobs");
        assert!(
            begun[step..]
                .iter()
                .any(|&(_, p)| p == Some(Phase::TermProcess)),
            "{ctx}: the first pass must run among the jobs, not after the join"
        );
        let faulty = exec
            .clone()
            .with_faults(FaultPlan::none().drop_at(step as u64));
        let r = Sparta.search(&ix, &q, &cfg, &faulty);
        assert_eq!(r.work.cleaner_passes, 1, "{ctx}: only the inline pass ran");
        assert_eq!(r.work.postings_scanned, total, "{ctx}: lists ran dry");
        assert_exact_invariants(&oracle, &r, &ctx);
        assert_eq2_termination(&r, &ctx);
    });
}

/// Acceptance scenario from the ISSUE: a panicking job on the *shared
/// worker pool* neither kills pool workers nor corrupts the top-k of
/// the next query on the same pool.
#[test]
fn pool_survives_panicking_job_and_serves_next_query() {
    let (ix, corpus) = build_index(74);
    let q = long_query(&corpus, 4);
    let cfg = SearchConfig::exact(15).with_seg_size(64).with_phi(256);
    let oracle = Oracle::compute(ix.as_ref(), &q, 15);
    let pool = WorkerPool::new(3);

    // A "query" consisting of panicking jobs — one per worker, so every
    // worker thread exercises the catch_unwind path.
    let poison = sparta::exec::JobQueue::new();
    for _ in 0..3 {
        poison.push(Box::new(|| panic!("injected fault: poison job")));
    }
    pool.run(Arc::clone(&poison));
    assert!(poison.is_complete(), "poisoned queue must still complete");
    assert_eq!(poison.panicked(), 3, "all panics caught and counted");

    // The same pool must now serve real queries flawlessly.
    for _ in 0..3 {
        let r = Sparta.search(&ix, &q, &cfg, &pool);
        assert_eq!(
            oracle.recall(&r.docs()),
            1.0,
            "query after poison job lost recall"
        );
        assert_eq!(r.work.jobs_panicked, 0, "clean query reported panics");
    }
}
