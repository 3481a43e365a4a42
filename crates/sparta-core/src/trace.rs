//! Heap tracing for recall-dynamics analysis (Figures 3f/3g).
//!
//! "In order to understand how the top-k results get accrued by the
//! different algorithms, we zoom in on the dynamics of query recall
//! over the running time" (§5.3). Algorithms record an event whenever
//! a document enters (or improves within) their result heap; replaying
//! the events against the exact top-k reconstructs recall as a
//! function of elapsed time, uniformly across algorithm families
//! (global heaps, pBMW's thread-local heaps, pJASS's accumulators).

#![expect(
    clippy::disallowed_types,
    reason = "recall replay runs after the query, off the hot path"
)]

use parking_lot::Mutex;
use sparta_corpus::types::DocId;
use sparta_obs::{ClockMode, ObsClock};
use std::collections::HashMap;
use std::time::Duration;

/// One candidate event: at `at` (since query start), `doc`'s tracked
/// score became `score`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Time since query start.
    pub at: Duration,
    /// Document.
    pub doc: DocId,
    /// The document's score (or lower bound) at that moment.
    pub score: u64,
}

/// A concurrent event sink. Disabled sinks are free (one branch).
///
/// Timestamps come from an injectable [`ObsClock`]: the default is
/// wall-clock nanoseconds since the sink was created (comparable to
/// measured latencies), while [`ClockMode::Logical`] stamps events
/// with a monotone step counter, so a trace replayed under the
/// deterministic executor is bit-identical for a given seed.
pub struct TraceSink {
    clock: ObsClock,
    events: Option<Mutex<Vec<TraceEvent>>>,
}

impl TraceSink {
    /// Creates a wall-clock sink; `enabled = false` makes `record` a
    /// no-op.
    pub fn new(enabled: bool) -> Self {
        Self::with_clock(enabled, ClockMode::Wall)
    }

    /// Creates a sink recording against the given clock mode.
    pub fn with_clock(enabled: bool, mode: ClockMode) -> Self {
        Self {
            clock: ObsClock::new(mode),
            events: enabled.then(|| Mutex::new(Vec::new())),
        }
    }

    /// Whether events are being collected.
    pub fn enabled(&self) -> bool {
        self.events.is_some()
    }

    /// The clock events are stamped with.
    pub fn clock(&self) -> &ObsClock {
        &self.clock
    }

    /// Records `doc` reaching `score`.
    ///
    /// Every 256th event per sink also mirrors to the flight recorder
    /// as a `ScoreMark` (payload = doc id), giving `--emit-trace`
    /// timelines sparse heap-progress markers without flooding the
    /// fixed-capacity rings. The sampling is by in-sink ordinal, so a
    /// deterministic schedule marks the same documents every run.
    #[inline]
    pub fn record(&self, doc: DocId, score: u64) {
        if let Some(events) = &self.events {
            let at = self.clock.tick_duration();
            let mut guard = events.lock();
            guard.push(TraceEvent { at, doc, score });
            let n = guard.len();
            drop(guard);
            if n & 0xff == 1 {
                sparta_obs::recorder::record(sparta_obs::EventKind::ScoreMark, u64::from(doc));
            }
        }
    }

    /// Extracts the recorded events, sorted by time (under a logical
    /// clock ticks are unique, so the order is total and the sorted
    /// vector deterministic for a deterministic schedule).
    pub fn into_events(self) -> Option<Vec<TraceEvent>> {
        self.events.map(|m| {
            let mut v = m.into_inner();
            v.sort_by_key(|e| (e.at, e.doc, e.score));
            v
        })
    }
}

/// Replays a trace: at each sampling instant, reconstructs the top-k
/// candidate set implied by the events so far (best score per doc) and
/// reports `f(candidate_docs)` — typically a recall computation.
///
/// Returns `(t, f(set at t))` for each of `samples` evenly spaced
/// instants in `[0, horizon]`.
pub fn replay<F: FnMut(&[DocId]) -> f64>(
    events: &[TraceEvent],
    k: usize,
    horizon: Duration,
    samples: usize,
    mut f: F,
) -> Vec<(Duration, f64)> {
    assert!(samples >= 1);
    let mut out = Vec::with_capacity(samples);
    let mut best: HashMap<DocId, u64> = HashMap::new();
    let mut i = 0;
    for s in 1..=samples {
        let t = horizon.mul_f64(s as f64 / samples as f64);
        while i < events.len() && events[i].at <= t {
            let e = events[i];
            let slot = best.entry(e.doc).or_insert(0);
            *slot = (*slot).max(e.score);
            i += 1;
        }
        // Top-k of the candidate set by tracked score.
        let mut heap = sparta_collections::BoundedTopK::new(k.max(1));
        for (&d, &s) in &best {
            heap.offer(s, d);
        }
        let docs: Vec<DocId> = heap.sorted_entries().iter().map(|e| e.item).collect();
        out.push((t, f(&docs)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_records_nothing() {
        let s = TraceSink::new(false);
        s.record(1, 10);
        assert!(!s.enabled());
        assert!(s.into_events().is_none());
    }

    #[test]
    fn enabled_sink_collects_sorted() {
        let s = TraceSink::new(true);
        s.record(1, 10);
        s.record(2, 20);
        let ev = s.into_events().unwrap();
        assert_eq!(ev.len(), 2);
        assert!(ev[0].at <= ev[1].at);
        assert_eq!(ev[0].doc, 1);
    }

    #[test]
    fn replay_builds_incremental_topk() {
        let events = vec![
            TraceEvent {
                at: Duration::from_millis(1),
                doc: 1,
                score: 10,
            },
            TraceEvent {
                at: Duration::from_millis(2),
                doc: 2,
                score: 30,
            },
            TraceEvent {
                at: Duration::from_millis(8),
                doc: 3,
                score: 20,
            },
            TraceEvent {
                at: Duration::from_millis(9),
                doc: 1,
                score: 50,
            },
        ];
        // f = fraction of {1, 2} present in the set.
        let truth = [1u32, 2];
        let curve = replay(&events, 2, Duration::from_millis(10), 2, |docs| {
            truth.iter().filter(|t| docs.contains(t)).count() as f64 / truth.len() as f64
        });
        assert_eq!(curve.len(), 2);
        assert_eq!(curve[0].1, 1.0, "at 5ms both 1 and 2 are present");
        // At 10ms doc 1 improved to 50, top-2 = {1, 2} still.
        assert_eq!(curve[1].1, 1.0);
    }

    #[test]
    fn replay_respects_k() {
        let events = vec![
            TraceEvent {
                at: Duration::from_millis(1),
                doc: 1,
                score: 10,
            },
            TraceEvent {
                at: Duration::from_millis(1),
                doc: 2,
                score: 30,
            },
            TraceEvent {
                at: Duration::from_millis(1),
                doc: 3,
                score: 20,
            },
        ];
        let curve = replay(&events, 1, Duration::from_millis(2), 1, |docs| {
            assert_eq!(docs.len(), 1, "only top-1 kept");
            f64::from(u32::from(docs[0] == 2))
        });
        assert_eq!(curve[0].1, 1.0);
    }

    #[test]
    fn logical_clock_sink_replays_identically() {
        let run = || {
            let s = TraceSink::with_clock(true, ClockMode::Logical);
            for i in 0..10u32 {
                s.record(i, u64::from(i) * 3);
            }
            s.into_events().unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "logical-clock traces must be bit-identical");
        assert_eq!(a[0].at, Duration::from_nanos(0));
        assert_eq!(a[9].at, Duration::from_nanos(9));
    }

    #[test]
    fn concurrent_recording() {
        let s = std::sync::Arc::new(TraceSink::new(true));
        std::thread::scope(|sc| {
            for t in 0..4u32 {
                let s = std::sync::Arc::clone(&s);
                sc.spawn(move || {
                    for i in 0..100 {
                        s.record(t * 1000 + i, u64::from(i));
                    }
                });
            }
        });
        let s = std::sync::Arc::into_inner(s).unwrap();
        assert_eq!(s.into_events().unwrap().len(), 400);
    }
}
