//! Flight-recorder export: Chrome trace-event JSON and text dumps.
//!
//! [`chrome_trace`] turns a [`FlightRecorder`]'s rings into the Chrome
//! trace-event format (the `{"traceEvents": [...]}` object form), so a
//! recording loads directly into `chrome://tracing` or
//! [Perfetto](https://ui.perfetto.dev). Per worker it emits:
//!
//! - `"job"` complete slices (`ph: "X"`) from `JobStart`/`JobEnd`
//!   pairs,
//! - `"park"` slices from `Park`/`Unpark` pairs,
//! - `"queue_wait"` *derived* slices — the gap between a worker
//!   finishing a job (or waking from a park) and starting its next job,
//! - phase-named slices from `SpanBegin`/`SpanEnd` pairs,
//! - instant events (`ph: "i"`) for queue pushes/pops, cyclic
//!   requeues, and heap-trace score marks.
//!
//! Timestamps: the trace `ts`/`dur` fields are microseconds. Under a
//! wall clock, nanosecond ticks are divided by 1000 (fractional `ts`
//! is valid in the format); under a logical clock, ticks are emitted
//! verbatim as integers — the timeline is then in "steps", and because
//! the `Json` model preserves insertion order and integer formatting,
//! two recordings of the same deterministic schedule render
//! byte-identical JSON.
//!
//! [`dump_text`] is the stall watchdog's human-readable form: every
//! ring's tail, newest last, with drop accounting.

use crate::fold::{fold_worker, for_each_ring, Piece};
use crate::json::{Json, Schema};
use crate::recorder::FlightRecorder;
use crate::ring::Event;
use crate::span::Phase;
use crate::ClockMode;
use std::fmt::Write as _;

/// Schema version stamped into (and required from) trace documents.
pub const TRACE_SCHEMA_VERSION: u64 = 1;

/// How many trailing events [`dump_text`] prints per worker.
const DUMP_TAIL: usize = 48;

fn ts_json(mode: ClockMode, ticks: u64) -> Json {
    match mode {
        // Logical ticks are emitted verbatim: exact integers keep the
        // rendering byte-deterministic.
        ClockMode::Logical => Json::U64(ticks),
        // Wall ticks are nanoseconds; the trace format wants µs.
        ClockMode::Wall => Json::F64(ticks as f64 / 1000.0),
    }
}

fn slice(mode: ClockMode, name: &str, tid: u32, ts: u64, dur: u64, args: Json) -> Json {
    Json::obj()
        .with("name", name)
        .with("ph", "X")
        .with("pid", 1u64)
        .with("tid", u64::from(tid))
        .with("ts", ts_json(mode, ts))
        .with("dur", ts_json(mode, dur))
        .with("args", args)
}

fn instant(mode: ClockMode, name: &str, tid: u32, ts: u64, payload: u64) -> Json {
    Json::obj()
        .with("name", name)
        .with("ph", "i")
        .with("s", "t")
        .with("pid", 1u64)
        .with("tid", u64::from(tid))
        .with("ts", ts_json(mode, ts))
        .with("args", Json::obj().with("payload", payload))
}

/// Renders one worker's paired pieces as trace events, appending to
/// `out`.
fn worker_events(mode: ClockMode, tid: u32, events: &[Event], out: &mut Vec<Json>) {
    fold_worker(events, |piece| match piece {
        Piece::Job {
            start,
            dur,
            outstanding,
            panicked,
        } => {
            let args = Json::obj()
                .with("outstanding_at_start", outstanding)
                .with("panicked", panicked);
            out.push(slice(mode, "job", tid, start, dur, args));
        }
        Piece::Park { start, dur } => out.push(slice(mode, "park", tid, start, dur, Json::obj())),
        Piece::QueueWait { start, dur } => {
            out.push(slice(mode, "queue_wait", tid, start, dur, Json::obj()));
        }
        Piece::SpanEdge { .. } => {}
        Piece::Span { frame, dur } => {
            let name = Phase::from_index(frame.phase).map_or("span", |p| p.as_str());
            let args = Json::obj().with("phase", u64::from(frame.phase));
            out.push(slice(mode, name, tid, frame.open, dur, args));
        }
        Piece::Instant(e) => out.push(instant(mode, e.kind.as_str(), tid, e.ts, e.payload)),
    });
}

/// Builds the Chrome trace-event document for everything recorded so
/// far. Deterministic: workers ascending, ring order within a worker,
/// derived slices emitted at their closing event's position.
pub fn chrome_trace(rec: &FlightRecorder) -> Json {
    let mode = rec.mode();
    let mut trace_events: Vec<Json> = Vec::new();
    trace_events.push(
        Json::obj()
            .with("name", "process_name")
            .with("ph", "M")
            .with("pid", 1u64)
            .with("args", Json::obj().with("name", "sparta")),
    );
    let skipped_reads = for_each_ring(rec, |tid, events| {
        trace_events.push(
            Json::obj()
                .with("name", "thread_name")
                .with("ph", "M")
                .with("pid", 1u64)
                .with("tid", u64::from(tid))
                .with("args", Json::obj().with("name", format!("worker {tid}"))),
        );
        worker_events(mode, tid, events, &mut trace_events);
    });
    let mode_str = match mode {
        ClockMode::Wall => "wall",
        ClockMode::Logical => "logical",
    };
    Json::obj()
        .with("schema_version", TRACE_SCHEMA_VERSION)
        .with("clock", mode_str)
        .with("workers", rec.worker_count() as u64)
        .with("total_events", rec.total_events())
        .with("dropped_events", rec.dropped_events())
        .with("skipped_reads", skipped_reads)
        .with("displayTimeUnit", "ms")
        .with("traceEvents", Json::Arr(trace_events))
}

/// [`chrome_trace`] rendered compactly (the form `--emit-trace`
/// writes; byte-deterministic under a logical clock).
pub fn chrome_trace_string(rec: &FlightRecorder) -> String {
    chrome_trace(rec).to_string()
}

/// The trace document's contract. Which of an event's `tid`, `ts` and
/// `dur` are required depends on its `ph`; [`validate_trace_json`]
/// checks that.
static TRACE_SCHEMA: Schema = Schema::Obj(&[
    ("schema_version", Schema::Version(TRACE_SCHEMA_VERSION)),
    ("clock", Schema::OneOf(&["wall", "logical"])),
    (
        "workers total_events dropped_events skipped_reads",
        Schema::Num,
    ),
    ("traceEvents", Schema::Arr(&TRACE_EVENT)),
]);

const TRACE_EVENT: Schema =
    Schema::Obj(&[("name ph", Schema::Str), ("pid tid? ts? dur?", Schema::Num)]);

/// Validates a trace document produced by [`chrome_trace`]: parses the
/// JSON and checks it against the trace schema; every event but
/// metadata (`ph: "M"`) must carry `tid` and `ts`, a complete slice
/// (`ph: "X"`) also `dur`, and at least one such event must exist.
pub fn validate_trace_json(text: &str) -> Result<(), String> {
    let doc = crate::json::parse(text)?;
    TRACE_SCHEMA.check(&doc)?;
    let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap_or(&[]);
    let mut non_meta = 0usize;
    for (i, ev) in events.iter().enumerate() {
        let needs: &[&str] = match ev.get("ph").and_then(Json::as_str) {
            Some("M") => continue,
            Some("X") => &["tid", "ts", "dur"],
            _ => &["tid", "ts"],
        };
        non_meta += 1;
        if let Some(key) = needs.iter().find(|key| ev.get(key).is_none()) {
            return Err(format!("traceEvents[{i}].{key}: missing"));
        }
    }
    if non_meta == 0 {
        return Err("trace holds no events beyond metadata".to_string());
    }
    Ok(())
}

/// Renders every ring's tail as indented text — the stall watchdog's
/// dump format. Newest events last; drop accounting per worker.
pub fn dump_text(rec: &FlightRecorder) -> String {
    let mode = match rec.mode() {
        ClockMode::Wall => "wall",
        ClockMode::Logical => "logical",
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "flight recorder: {} workers, {} events recorded, {} overwritten, clock={}",
        rec.worker_count(),
        rec.total_events(),
        rec.dropped_events(),
        mode,
    );
    for w in 0..rec.worker_count() {
        let ring = rec.ring(w);
        let mut events = Vec::with_capacity(ring.len());
        let skipped = ring.for_each(|e| events.push(e));
        let _ = writeln!(
            out,
            "  worker {}: {} events ({} overwritten, {} raced reads)",
            ring.worker(),
            ring.head(),
            ring.dropped_events(),
            skipped,
        );
        let tail = events.len().saturating_sub(DUMP_TAIL);
        if tail > 0 {
            let _ = writeln!(out, "    ... {tail} earlier events elided ...");
        }
        for e in &events[tail..] {
            let _ = writeln!(
                out,
                "    t={:>12} {:<12} payload={}",
                e.ts,
                e.kind.as_str(),
                e.payload,
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::record;
    use crate::ring::EventKind;

    fn sample_recorder() -> std::sync::Arc<FlightRecorder> {
        let rec = FlightRecorder::new(2, 64, ClockMode::Logical);
        {
            let _g = rec.install(0);
            record(EventKind::QueuePush, 1);
            record(EventKind::QueuePop, 0);
            record(EventKind::JobStart, 1);
            record(EventKind::SpanBegin, 0);
            record(EventKind::SpanEnd, 0);
            record(EventKind::JobEnd, 0);
            record(EventKind::JobStart, 1);
            record(EventKind::JobEnd, 0);
            record(EventKind::Park, 0);
            record(EventKind::Unpark, 0);
            record(EventKind::ScoreMark, 3);
        }
        {
            let _g = rec.install(1);
            record(EventKind::JobStart, 1);
            record(EventKind::JobEnd, 0);
        }
        rec
    }

    fn names(doc: &Json) -> Vec<String> {
        doc.get("traceEvents")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|e| e.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect()
    }

    #[test]
    fn emits_job_park_queue_wait_and_instants() {
        let rec = sample_recorder();
        let doc = chrome_trace(&rec);
        let names = names(&doc);
        assert!(names.iter().filter(|n| *n == "job").count() >= 3);
        assert!(names.contains(&"park".to_string()));
        assert!(
            names.contains(&"queue_wait".to_string()),
            "gap between job end and next job start must derive a slice: {names:?}"
        );
        assert!(names.contains(&"plan".to_string()), "phase 0 span named");
        assert!(names.contains(&"queue_push".to_string()));
        assert!(names.contains(&"score_mark".to_string()));
    }

    #[test]
    fn trace_validates_and_roundtrips() {
        let rec = sample_recorder();
        let text = chrome_trace_string(&rec);
        validate_trace_json(&text).expect("own trace must validate");
        assert!(validate_trace_json("not json").is_err());
        let slice = text.replacen(",\"dur\":", ",\"span\":", 1);
        assert!(validate_trace_json(&slice)
            .unwrap_err()
            .ends_with(".dur: missing"));
        let empty = chrome_trace(&FlightRecorder::new(1, 8, ClockMode::Logical));
        assert!(
            validate_trace_json(&empty.to_string()).is_err(),
            "a trace with no events must not validate"
        );
    }

    #[test]
    fn schema_rejects_each_broken_required_field() {
        let doc = crate::json::parse(&chrome_trace_string(&sample_recorder())).unwrap();
        let checked = TRACE_SCHEMA.rejects_each_broken_field(&doc).unwrap();
        assert!(checked > 2 * 8, "the envelope and every event's fields");
    }

    #[test]
    fn identical_recordings_render_byte_identical() {
        let a = chrome_trace_string(&sample_recorder());
        let b = chrome_trace_string(&sample_recorder());
        assert_eq!(a, b);
    }

    #[test]
    fn dump_text_accounts_and_lists_tail() {
        let rec = sample_recorder();
        let dump = dump_text(&rec);
        assert!(dump.contains("2 workers"));
        assert!(dump.contains("score_mark"));
        assert!(dump.contains("park"));
        assert!(dump.contains("worker 0"));
        assert!(dump.contains("worker 1"));
    }
}
