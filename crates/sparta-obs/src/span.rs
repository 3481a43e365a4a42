//! Phase spans of a search.
//!
//! A span marks which *phase* ran when: the planning step, each
//! posting-list segment, each cleaner pass, the final heap merge.
//! Algorithms open one with [`span`] and close it by dropping the
//! guard. The flight recorder is the only sink: the span lands in the
//! ring installed on the running thread, if any, as a
//! `SpanBegin`/`SpanEnd` pair that `trace_export` draws as a slice and
//! `profile` folds into per-phase tables. Under a logical-clock
//! recorder and the deterministic executor those bytes replay
//! identically for the same seed.

use crate::recorder::record;
use crate::ring::EventKind;

/// The phases of a top-k search, uniform across algorithm families.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Query planning: opening cursors, seeding the job queue.
    Plan,
    /// One posting-list segment traversal (Sparta, pNRA, pJASS; pRA's
    /// also claims and probes each batch).
    TermProcess,
    /// One Sparta cleaner pass.
    Cleaner,
    /// One pNRA stopping-condition scan.
    StopCheck,
    /// One sNRA shard's local NRA run.
    ShardSearch,
    /// One pBMW document-range scan.
    RangeScan,
    /// Final result assembly: heap drain / shard merge / accumulator
    /// selection.
    HeapMerge,
}

impl Phase {
    /// All phases, in declaration order.
    pub const ALL: [Phase; 7] = [
        Phase::Plan,
        Phase::TermProcess,
        Phase::Cleaner,
        Phase::StopCheck,
        Phase::ShardSearch,
        Phase::RangeScan,
        Phase::HeapMerge,
    ];

    /// Position in [`Phase::ALL`] — the flight recorder's span event
    /// payload.
    pub fn index(self) -> u8 {
        self as u8
    }

    /// Inverse of [`Phase::index`]; `None` out of range.
    pub fn from_index(i: u8) -> Option<Phase> {
        Phase::ALL.get(usize::from(i)).copied()
    }

    /// Stable snake_case name used in exports.
    pub fn as_str(&self) -> &'static str {
        match self {
            Phase::Plan => "plan",
            Phase::TermProcess => "term_process",
            Phase::Cleaner => "cleaner",
            Phase::StopCheck => "stop_check",
            Phase::ShardSearch => "shard_search",
            Phase::RangeScan => "range_scan",
            Phase::HeapMerge => "heap_merge",
        }
    }
}

/// Opens a `phase` span in this thread's flight-recorder ring: a
/// `SpanBegin` now and a `SpanEnd` when the guard drops, both stamped
/// by the recorder's clock. With no ring installed both are the
/// one-branch no-op of [`recorder::record`](crate::recorder::record),
/// so algorithms call this unconditionally.
#[inline]
pub fn span(phase: Phase) -> SpanGuard {
    record(EventKind::SpanBegin, u64::from(phase.index()));
    SpanGuard { phase }
}

/// RAII guard returned by [`span`]; dropping it closes the span.
#[must_use = "the span closes when the guard drops"]
pub struct SpanGuard {
    phase: Phase,
}

impl Drop for SpanGuard {
    #[inline]
    fn drop(&mut self) {
        record(EventKind::SpanEnd, u64::from(self.phase.index()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ClockMode;
    use crate::recorder::FlightRecorder;

    #[test]
    fn spans_nest_in_the_installed_ring_only() {
        let rec = FlightRecorder::new(1, 16, ClockMode::Logical);
        drop(span(Phase::Plan)); // no ring installed yet
        {
            let _g = rec.install(0);
            let _plan = span(Phase::Plan);
            drop(span(Phase::TermProcess));
        }
        drop(span(Phase::Cleaner)); // uninstalled again
        let mut events = Vec::new();
        rec.ring(0).for_each(|e| events.push((e.kind, e.payload)));
        let (b, e) = (EventKind::SpanBegin, EventKind::SpanEnd);
        let (plan, seg) = (
            Phase::Plan.index().into(),
            Phase::TermProcess.index().into(),
        );
        assert_eq!(events, [(b, plan), (b, seg), (e, seg), (e, plan)]);
    }
}
