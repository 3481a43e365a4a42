//! The per-worker ring fold both flight-recorder readers share.
//!
//! [`chrome_trace`](crate::chrome_trace) renders a worker's events as
//! slices and [`profile_recorder`](crate::profile_recorder) sums the
//! same slices into tables. Both pair events the same way, so the
//! pairing lives here once: [`fold_worker`] walks one ring's events in
//! order and hands each reader the [`Piece`]s it pairs, at the position
//! of the event that closes them:
//!
//! - `JobStart`/`JobEnd` → [`Piece::Job`] (a nested start closes
//!   innermost first);
//! - `Park`/`Unpark` → [`Piece::Park`];
//! - the gap from a `JobEnd` or `Unpark` to the next `JobStart` →
//!   [`Piece::QueueWait`];
//! - `SpanBegin`/`SpanEnd` → a [`Piece::SpanEdge`] before every span
//!   event (the stack as it stood since the previous edge) and a
//!   [`Piece::Span`] when an end matches the innermost open span of its
//!   phase;
//! - queue pushes/pops, requeues and score marks → [`Piece::Instant`].
//!
//! A close with no open partner (its opening event fell off the ring
//! tail) yields no slice. This file is under the allocation-ban lint
//! rule: only the per-worker stacks are allocated, once per fold.

use crate::recorder::FlightRecorder;
use crate::ring::{Event, EventKind};

/// One open span on a worker's stack.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SpanFrame {
    /// The span's phase index (see [`Phase::index`](crate::Phase::index)).
    pub(crate) phase: u8,
    /// Tick the span opened at.
    pub(crate) open: u64,
    /// Inclusive ticks of the spans that closed inside this one.
    pub(crate) child_ticks: u64,
}

/// A paired piece of one worker's timeline. Durations are
/// `close − open` ticks.
pub(crate) enum Piece<'a> {
    /// A job slice; `outstanding` is the `JobStart` payload.
    Job {
        start: u64,
        dur: u64,
        outstanding: u64,
        panicked: bool,
    },
    /// A park slice.
    Park { start: u64, dur: u64 },
    /// Time between finishing a job (or unparking) and starting the
    /// next job; never empty.
    QueueWait { start: u64, dur: u64 },
    /// The span stack changes at `ts`; `stack` is how it stood since
    /// the previous edge, bottom frame first.
    SpanEdge { ts: u64, stack: &'a [SpanFrame] },
    /// A closed span. Its ticks are already added to its parent's
    /// `child_ticks`.
    Span { frame: SpanFrame, dur: u64 },
    /// An unpaired event.
    Instant(Event),
}

/// Hands every non-empty ring's resident events to `f` with the
/// ring's worker id, workers ascending and ring order within a worker.
/// Returns the torn reads skipped.
pub(crate) fn for_each_ring(rec: &FlightRecorder, mut f: impl FnMut(u32, &[Event])) -> u64 {
    let mut skipped_reads = 0u64;
    for w in 0..rec.worker_count() {
        let ring = rec.ring(w);
        // lint: allow(alloc): one event buffer per ring per read.
        let mut events: Vec<Event> = Vec::with_capacity(ring.len());
        skipped_reads += ring.for_each(|e| events.push(e));
        if !events.is_empty() {
            f(ring.worker(), &events);
        }
    }
    skipped_reads
}

/// Pairs one worker's events into [`Piece`]s, in event order.
pub(crate) fn fold_worker(events: &[Event], mut emit: impl FnMut(Piece<'_>)) {
    // lint: allow(alloc): per-fold construction; the per-event arms
    // below only push into these stacks.
    let mut job_start: Vec<(u64, u64)> = Vec::with_capacity(4); // (ts, outstanding)
    let mut park_start: Option<u64> = None;
    // lint: allow(alloc): per-fold construction (see above).
    let mut span_stack: Vec<SpanFrame> = Vec::with_capacity(8);
    let mut idle_since: Option<u64> = None; // set by JobEnd / Unpark
    for e in events {
        match e.kind {
            EventKind::JobStart => {
                if let Some(prev) = idle_since.take() {
                    if e.ts > prev {
                        emit(Piece::QueueWait {
                            start: prev,
                            dur: e.ts - prev,
                        });
                    }
                }
                job_start.push((e.ts, e.payload));
            }
            EventKind::JobEnd => {
                if let Some((start, outstanding)) = job_start.pop() {
                    emit(Piece::Job {
                        start,
                        dur: e.ts.saturating_sub(start),
                        outstanding,
                        panicked: e.payload != 0,
                    });
                }
                idle_since = Some(e.ts);
            }
            EventKind::Park => park_start = Some(e.ts),
            EventKind::Unpark => {
                if let Some(start) = park_start.take() {
                    emit(Piece::Park {
                        start,
                        dur: e.ts.saturating_sub(start),
                    });
                }
                idle_since = Some(e.ts);
            }
            EventKind::SpanBegin => {
                emit(Piece::SpanEdge {
                    ts: e.ts,
                    stack: &span_stack,
                });
                span_stack.push(SpanFrame {
                    phase: (e.payload & 0xff) as u8,
                    open: e.ts,
                    child_ticks: 0,
                });
            }
            EventKind::SpanEnd => {
                emit(Piece::SpanEdge {
                    ts: e.ts,
                    stack: &span_stack,
                });
                let want = (e.payload & 0xff) as u8;
                if let Some(pos) = span_stack.iter().rposition(|f| f.phase == want) {
                    let frame = span_stack.remove(pos);
                    let dur = e.ts.saturating_sub(frame.open);
                    // The closed span is its parent's child time.
                    if let Some(parent) = span_stack.last_mut() {
                        parent.child_ticks += dur;
                    }
                    emit(Piece::Span { frame, dur });
                }
            }
            EventKind::QueuePush
            | EventKind::QueuePop
            | EventKind::Requeue
            | EventKind::ScoreMark => emit(Piece::Instant(*e)),
        }
    }
}
