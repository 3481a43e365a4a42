//! Flight-recorder integration: ring wraparound accounting, reader vs
//! writer races on a live ring, byte-identical Chrome-trace export
//! under the deterministic executor, per-worker timeline completeness,
//! trace/profile agreement, and the stall watchdog firing on a
//! genuinely wedged pool.

use sparta::prelude::*;
use sparta_core::algorithm_by_name;
use sparta_exec::{JobQueue, WatchdogConfig};
use sparta_obs::{
    chrome_trace, chrome_trace_string, json, profile_recorder, recorder, validate_trace_json,
    ClockMode, EventKind, EventRing, FlightRecorder, ObsClock, Phase,
};
use sparta_testkit::{base_seed, build_index, long_query};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[test]
fn ring_wraparound_keeps_newest_events_and_accounts_drops() {
    let clock = Arc::new(ObsClock::new(ClockMode::Logical));
    let ring = EventRing::new(0, 8, clock);
    for i in 0..20u64 {
        ring.record(EventKind::ScoreMark, i);
    }
    assert_eq!(ring.head(), 20);
    assert_eq!(ring.len(), 8);
    assert_eq!(ring.dropped_events(), 12);
    let mut payloads = Vec::new();
    let skipped = ring.for_each(|e| payloads.push(e.payload));
    assert_eq!(skipped, 0, "single-threaded read must never skip");
    assert_eq!(payloads, (12..20).collect::<Vec<u64>>());
}

#[test]
fn concurrent_reader_only_sees_well_formed_events() {
    const WRITES: u64 = 50_000;
    let clock = Arc::new(ObsClock::new(ClockMode::Logical));
    let ring = Arc::new(EventRing::new(3, 64, clock));
    let done = Arc::new(AtomicBool::new(false));
    std::thread::scope(|s| {
        {
            let ring = Arc::clone(&ring);
            let done = Arc::clone(&done);
            s.spawn(move || {
                let _guard = recorder::install_ring(Arc::clone(&ring));
                for i in 0..WRITES {
                    recorder::record(EventKind::QueuePush, i);
                }
                done.store(true, Ordering::Release);
            });
        }
        // Race the reader against the writer the whole time: the
        // seqlock must deliver only fully-written events (skipping
        // in-flight slots), each internally consistent.
        while !done.load(Ordering::Acquire) {
            // `None` first: the logical clock's first tick is 0, and a
            // reader quick enough to catch event 0 must accept it.
            let mut last_ts = None;
            ring.for_each(|e| {
                assert_eq!(e.worker, 3);
                assert_eq!(e.kind, EventKind::QueuePush);
                assert!(e.payload < WRITES);
                assert!(Some(e.ts) > last_ts, "snapshot not oldest-to-newest");
                last_ts = Some(e.ts);
            });
        }
    });
    assert_eq!(ring.head(), WRITES);
    assert_eq!(ring.dropped_events(), WRITES - 64);
    let skipped = ring.for_each(|_| {});
    assert_eq!(skipped, 0, "quiescent read must never skip");
}

/// Algorithms with phase-span instrumentation.
const TRACED_ALGOS: [&str; 6] = ["sparta", "pnra", "snra", "pjass", "pbmw", "pra"];

fn traced_trace_string(name: &str, seed: u64) -> String {
    let (ix, corpus) = build_index(7);
    let q = long_query(&corpus, 11);
    let cfg = SearchConfig::exact(10)
        .with_seg_size(64)
        .with_phi(256)
        .with_trace(true);
    let rec = FlightRecorder::new(4, 1 << 12, ClockMode::Logical);
    let exec = DeterministicExecutor::new(seed).with_recorder(Arc::clone(&rec));
    algorithm_by_name(name)
        .unwrap_or_else(|| panic!("unknown algorithm {name}"))
        .search(&ix, &q, &cfg, &exec);
    chrome_trace_string(&rec)
}

/// Phase spans live in the rings only, so the export's bytes are what
/// replay determinism is asserted on: every instrumented algorithm
/// replays to the same document, phase slices included.
#[test]
fn trace_json_is_byte_identical_across_same_seed_runs() {
    for name in TRACED_ALGOS {
        let a = traced_trace_string(name, base_seed());
        let b = traced_trace_string(name, base_seed());
        assert_eq!(
            a, b,
            "{name}: same-seed trace export must be byte-identical"
        );
        validate_trace_json(&a).expect("trace must validate");
        let doc = json::parse(&a).expect("trace parses");
        let events = doc.get("traceEvents").and_then(|j| j.as_arr()).unwrap();
        let phase_slices = events
            .iter()
            .filter(|ev| ev.get("ph").and_then(|j| j.as_str()) == Some("X"))
            .filter_map(|ev| ev.get("name").and_then(|j| j.as_str()))
            .filter(|n| Phase::ALL.iter().any(|p| p.as_str() == *n))
            .count();
        assert!(phase_slices > 0, "{name}: no phase slice recorded");
    }
}

#[test]
fn trace_timeline_is_complete_for_every_worker() {
    let text = traced_trace_string("sparta", base_seed());
    let doc = json::parse(&text).expect("trace parses");
    let events = doc.get("traceEvents").and_then(|j| j.as_arr()).unwrap();
    // (tid, name) pairs of non-metadata events.
    let mut seen: Vec<(u64, String)> = Vec::new();
    for ev in events {
        let ph = ev.get("ph").and_then(|j| j.as_str().map(str::to_string));
        if ph.as_deref() == Some("M") {
            continue;
        }
        let tid = ev.get("tid").and_then(|j| j.as_f64()).unwrap() as u64;
        let name = ev
            .get("name")
            .and_then(|j| j.as_str().map(str::to_string))
            .unwrap();
        seen.push((tid, name));
    }
    let workers: Vec<u64> = {
        let mut w: Vec<u64> = seen.iter().map(|(t, _)| *t).collect();
        w.sort_unstable();
        w.dedup();
        w
    };
    assert_eq!(workers.len(), 4, "all virtual workers must appear");
    for w in workers {
        for want in ["job", "park", "queue_wait"] {
            assert!(
                seen.iter().any(|(t, n)| *t == w && n == want),
                "worker {w} has no `{want}` slice"
            );
        }
    }
}

/// The trace's slices and the profile's tables are two readings of
/// one ring fold: per worker, the job/park/queue_wait slices sum to the
/// busy/parked/queue-wait ticks, and per phase the phase-named slices
/// match the profile's count and inclusive total.
#[test]
fn trace_slices_sum_to_profile_tables() {
    let (ix, corpus) = build_index(7);
    let q = long_query(&corpus, 11);
    let cfg = SearchConfig::exact(10).with_seg_size(64).with_phi(256);
    let rec = FlightRecorder::new(4, 1 << 14, ClockMode::Logical);
    let algos: [&dyn Algorithm; 2] = [&Sparta, &PBmw];
    for (i, algo) in algos.into_iter().enumerate() {
        let exec = DeterministicExecutor::new(base_seed().wrapping_add(i as u64))
            .with_recorder(Arc::clone(&rec));
        algo.search(&ix, &q, &cfg, &exec);
    }
    assert_eq!(rec.dropped_events(), 0, "the ring must hold the whole run");

    let trace = chrome_trace(&rec);
    let profile = profile_recorder(&rec);
    // (tid, name) → (slices, summed dur), over the `X` slices.
    let mut slices: std::collections::BTreeMap<(u64, String), (u64, u64)> = Default::default();
    for ev in trace.get("traceEvents").and_then(|j| j.as_arr()).unwrap() {
        if ev.get("ph").and_then(|j| j.as_str()) != Some("X") {
            continue;
        }
        let num = |key: &str| ev.get(key).and_then(|j| j.as_f64()).unwrap() as u64;
        let name = ev.get("name").and_then(|j| j.as_str()).unwrap();
        let slot = slices.entry((num("tid"), name.to_string())).or_default();
        slot.0 += 1;
        slot.1 += num("dur");
    }
    let summed = |tid: Option<u64>, name: &str| -> (u64, u64) {
        slices
            .iter()
            .filter(|((t, n), _)| n == name && tid.is_none_or(|w| *t == w))
            .fold((0, 0), |acc, (_, v)| (acc.0 + v.0, acc.1 + v.1))
    };

    assert_eq!(profile.workers.len(), 4, "every worker recorded");
    for w in &profile.workers {
        let tid = Some(u64::from(w.worker));
        assert!(w.busy_ticks > 0, "worker {} ran no job", w.worker);
        assert_eq!(summed(tid, "job").1, w.busy_ticks, "worker {}", w.worker);
        assert_eq!(summed(tid, "park").1, w.parked_ticks, "worker {}", w.worker);
        assert_eq!(
            summed(tid, "queue_wait").1,
            w.queue_wait_ticks,
            "worker {}",
            w.worker
        );
    }
    assert!(!profile.phases.is_empty(), "spans were recorded");
    for p in &profile.phases {
        let (count, dur) = summed(None, p.phase.as_str());
        assert_eq!(count, p.count, "phase {}", p.phase.as_str());
        assert_eq!(dur, p.total_ticks, "phase {}", p.phase.as_str());
    }
}

#[test]
fn watchdog_dumps_rings_when_pool_wedges() {
    // Wedge a queue for real: the deterministic executor's stall fault
    // pops the only job and silently drops it — outstanding never
    // reaches zero, exactly like a worker dying mid-job.
    let q = JobQueue::new();
    q.push(Box::new(|| {}));
    let det = DeterministicExecutor::new(1).with_faults(FaultPlan::none().stall_at(0));
    det.run(Arc::clone(&q));
    assert_eq!(q.outstanding(), 1, "stall fault must wedge the queue");

    let rec = FlightRecorder::new(2, 1 << 10, ClockMode::Wall);
    let pool = WorkerPool::with_recorder(2, None, Arc::clone(&rec));
    let dump = std::env::temp_dir().join(format!("sparta_wd_test_{}.txt", std::process::id()));
    let _ = std::fs::remove_file(&dump);
    let wd = pool
        .watchdog(WatchdogConfig {
            quiet: Duration::from_millis(300),
            poll: Duration::from_millis(20),
            dump_path: Some(dump.clone()),
        })
        .expect("pool has a recorder");

    pool.submit(Arc::clone(&q));
    let deadline = Instant::now() + Duration::from_secs(20);
    while wd.fired() == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(wd.fired() >= 1, "watchdog must fire on the wedged pool");

    let text = std::fs::read_to_string(&dump).expect("dump file written");
    assert!(text.contains("stall watchdog"), "dump: {text}");
    assert!(text.contains("outstanding"), "dump: {text}");
    // The workers' last recorded act before going quiet is parking.
    assert!(text.contains("park"), "dump lacks parked workers: {text}");
    let _ = std::fs::remove_file(&dump);
}
