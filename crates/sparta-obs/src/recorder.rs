//! The flight recorder: per-worker [`EventRing`]s plus the
//! thread-local plumbing that lets deep call sites record without
//! threading a recorder reference through every layer.
//!
//! A [`FlightRecorder`] is one ring per worker sharing one injected
//! [`ObsClock`]. Executors *install* a worker's ring into a thread
//! local for the duration of that worker's run (scoped by
//! [`RecorderGuard`]); instrumentation points anywhere below — the job
//! queue, phase spans — call the free function [`record`], which
//! no-ops in a branch when no ring is installed. The install
//! discipline is what makes each ring SPSC: only the thread a ring is
//! installed on writes to it (sequential re-installs, e.g. a
//! deterministic executor multiplexing virtual workers on one thread,
//! are fine — there is never more than one writer at a time).
//!
//! Everything on the record path is allocation-free (enforced by the
//! `alloc` lint rule); the construction-time allocations are the
//! annotated exceptions.

use crate::clock::{ClockMode, ObsClock};
use crate::ring::{EventKind, EventRing};
use std::cell::RefCell;
use std::sync::Arc;

/// One event ring per worker, sharing one clock. See the module docs.
pub struct FlightRecorder {
    rings: Box<[Arc<EventRing>]>,
    clock: Arc<ObsClock>,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("workers", &self.rings.len())
            .field("total_events", &self.total_events())
            .finish()
    }
}

impl FlightRecorder {
    /// Builds a recorder with `workers` rings (minimum 1) of
    /// `capacity` events each, stamped by a fresh clock in `mode`.
    /// This is the only allocation in the recorder's lifetime.
    pub fn new(workers: usize, capacity: usize, mode: ClockMode) -> Arc<FlightRecorder> {
        // lint: allow(alloc): one-time construction of the clock, the
        // rings, and the recorder itself; the record path never
        // allocates.
        let clock = Arc::new(ObsClock::new(mode));
        // lint: allow(alloc): see above — construction only.
        let rings: Box<[Arc<EventRing>]> = (0..workers.max(1))
            .map(|w| Arc::new(EventRing::new(w as u32, capacity, Arc::clone(&clock)))) // lint: allow(alloc): construction only.
            .collect(); // lint: allow(alloc): construction only.
                        // lint: allow(alloc): see above — construction only.
        Arc::new(FlightRecorder { rings, clock })
    }

    /// Number of per-worker rings.
    pub fn worker_count(&self) -> usize {
        self.rings.len()
    }

    /// The ring for `worker` (indexed modulo the ring count, mirroring
    /// `ExecMetrics::worker`).
    pub fn ring(&self, worker: usize) -> &Arc<EventRing> {
        &self.rings[worker % self.rings.len()]
    }

    /// The shared clock all rings stamp with.
    pub fn clock(&self) -> &ObsClock {
        &self.clock
    }

    /// The clock's mode (wall or logical).
    pub fn mode(&self) -> ClockMode {
        self.clock.mode()
    }

    /// Total events recorded across all rings. Monotone — the stall
    /// watchdog polls this to detect quiet periods.
    pub fn total_events(&self) -> u64 {
        self.rings.iter().map(|r| r.head()).sum()
    }

    /// Total events overwritten (lost off ring tails) across workers.
    pub fn dropped_events(&self) -> u64 {
        self.rings.iter().map(|r| r.dropped_events()).sum()
    }

    /// Total torn reads skipped by readers across all rings' lifetimes
    /// (the seqlock double-check failing against a concurrent writer).
    pub fn skipped_reads(&self) -> u64 {
        self.rings.iter().map(|r| r.skipped_reads()).sum()
    }

    /// Installs `worker`'s ring into this thread's slot; instrumentation
    /// below records into it until the guard drops (which restores the
    /// previously installed ring, so installs nest).
    #[must_use = "recording stops when the guard drops"]
    pub fn install(&self, worker: usize) -> RecorderGuard {
        install_ring(Arc::clone(self.ring(worker)))
    }
}

thread_local! {
    /// The ring the current thread records into, if any.
    static CURRENT: RefCell<Option<Arc<EventRing>>> = const { RefCell::new(None) };
}

/// Scopes a thread-local ring install; see [`FlightRecorder::install`].
#[must_use = "recording stops when the guard drops"]
pub struct RecorderGuard {
    prev: Option<Arc<EventRing>>,
}

/// Installs an explicit ring on this thread (the general form of
/// [`FlightRecorder::install`]).
pub fn install_ring(ring: Arc<EventRing>) -> RecorderGuard {
    let prev = CURRENT.with(|c| c.borrow_mut().replace(ring));
    RecorderGuard { prev }
}

impl Drop for RecorderGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        CURRENT.with(|c| *c.borrow_mut() = prev);
    }
}

/// Records an event into the current thread's installed ring; a cheap
/// no-op (one thread-local branch) when none is installed.
#[inline]
pub fn record(kind: EventKind, payload: u64) {
    CURRENT.with(|c| {
        if let Some(ring) = c.borrow().as_ref() {
            ring.record(kind, payload);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_without_install_is_noop() {
        record(EventKind::Park, 0); // must not panic
    }

    #[test]
    fn install_scopes_and_nests() {
        let rec = FlightRecorder::new(2, 16, ClockMode::Logical);
        {
            let _g0 = rec.install(0);
            record(EventKind::JobStart, 1);
            {
                let _g1 = rec.install(1);
                record(EventKind::JobStart, 2);
            }
            // Inner guard dropped: back on ring 0.
            record(EventKind::JobEnd, 3);
        }
        record(EventKind::JobEnd, 4); // uninstalled: goes nowhere
        assert_eq!(rec.ring(0).head(), 2);
        assert_eq!(rec.ring(1).head(), 1);
        let mut payloads = Vec::new();
        rec.ring(0).for_each(|e| payloads.push(e.payload));
        assert_eq!(payloads, [1, 3]);
    }

    #[test]
    fn worker_index_wraps_like_exec_metrics() {
        let rec = FlightRecorder::new(2, 16, ClockMode::Logical);
        assert_eq!(rec.ring(5).worker(), 1);
        let _g = rec.install(4);
        record(EventKind::Unpark, 0);
        assert_eq!(rec.ring(0).head(), 1);
    }

    #[test]
    fn totals_aggregate_rings() {
        let rec = FlightRecorder::new(2, 2, ClockMode::Logical);
        for w in 0..2 {
            let _g = rec.install(w);
            for i in 0..5 {
                record(EventKind::QueuePop, i);
            }
        }
        assert_eq!(rec.total_events(), 10);
        assert_eq!(rec.dropped_events(), 6, "each 2-slot ring lost 3");
    }
}
