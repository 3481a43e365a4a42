//! Fixed-capacity, lock-free, allocation-free per-worker event rings.
//!
//! The flight recorder's storage primitive: each worker owns one
//! [`EventRing`] and is its only writer (SPSC — the single consumer is
//! a dumper: the stall watchdog or the trace exporter, reading
//! concurrently and tolerating overwrites). A ring never allocates
//! after construction and never blocks: recording an event is a
//! handful of atomic stores, cheap enough to leave on in production.
//!
//! ## Memory layout
//!
//! `capacity` slots (rounded up to a power of two) of four `AtomicU64`
//! words each:
//!
//! ```text
//! slot := { seq, ts, kind_worker, payload }      // 32 bytes
//! ```
//!
//! `head` counts events ever recorded; event `n` lives in slot
//! `n & (capacity - 1)` until overwritten by event `n + capacity`.
//! Overwrites are *accounted*, never silent:
//! [`EventRing::dropped_events`] reports how many events fell off the
//! tail.
//!
//! ## Seqlock protocol
//!
//! Each slot is a tiny seqlock so a concurrent dumper can detect torn
//! reads without ever making the writer wait:
//!
//! - writer: `seq ← 2n+1` (odd = write in progress), then the fields,
//!   then `seq ← 2n+2` (even = event `n` published);
//! - reader: read `seq`, the fields, `seq` again — accept only if both
//!   reads saw the expected even value `2n+2`.
//!
//! A slot rewritten while being read shows a different `seq` on the
//! second read and is skipped (counted by the return value of
//! [`EventRing::for_each`]). The writer is strictly wait-free.
//!
//! Timestamps come from the recorder's injected [`ObsClock`]: under
//! [`ClockMode::Logical`](crate::clock::ClockMode) every event costs
//! one tick of a shared counter, so a recording made under the
//! deterministic executor is bit-identical across replays of the same
//! seed.

use crate::clock::ObsClock;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::Arc;

/// What a recorded scheduler event describes. The taxonomy is fixed
/// and documented in DESIGN.md; payload meaning is per-kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum EventKind {
    /// A job began executing on this worker (payload: jobs outstanding).
    JobStart = 0,
    /// The job finished (payload: 1 if it panicked, else 0).
    JobEnd = 1,
    /// A job was pushed onto a queue (payload: queue depth after push).
    QueuePush = 2,
    /// A job was popped from a queue (payload: queue depth after pop).
    QueuePop = 3,
    /// The worker parked on a condvar (payload: unused).
    Park = 4,
    /// The worker woke from a park (payload: unused).
    Unpark = 5,
    /// Cyclic jobs were requeued (payload: queue depth after the batch).
    Requeue = 6,
    /// A query phase span opened (payload: `Phase` index).
    SpanBegin = 7,
    /// A query phase span closed (payload: `Phase` index).
    SpanEnd = 8,
    /// Periodic heap-trace progress mark (payload: doc id).
    ScoreMark = 9,
}

impl EventKind {
    /// Every kind, in discriminant order.
    pub const ALL: [EventKind; 10] = [
        EventKind::JobStart,
        EventKind::JobEnd,
        EventKind::QueuePush,
        EventKind::QueuePop,
        EventKind::Park,
        EventKind::Unpark,
        EventKind::Requeue,
        EventKind::SpanBegin,
        EventKind::SpanEnd,
        EventKind::ScoreMark,
    ];

    /// Stable snake_case name (used in dumps and trace JSON).
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::JobStart => "job_start",
            EventKind::JobEnd => "job_end",
            EventKind::QueuePush => "queue_push",
            EventKind::QueuePop => "queue_pop",
            EventKind::Park => "park",
            EventKind::Unpark => "unpark",
            EventKind::Requeue => "requeue",
            EventKind::SpanBegin => "span_begin",
            EventKind::SpanEnd => "span_end",
            EventKind::ScoreMark => "score_mark",
        }
    }

    /// Inverse of the discriminant; `None` for out-of-range values
    /// (a torn or corrupt slot).
    pub fn from_u8(v: u8) -> Option<EventKind> {
        EventKind::ALL.get(v as usize).copied()
    }
}

/// One decoded event, as handed to [`EventRing::for_each`] consumers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Clock timestamp (ns under a wall clock, ticks under a logical
    /// clock).
    pub ts: u64,
    /// The recording worker's id.
    pub worker: u32,
    /// What happened.
    pub kind: EventKind,
    /// Kind-specific payload (see [`EventKind`]).
    pub payload: u64,
}

/// One ring slot: a 4-word seqlock (see the module docs).
struct Slot {
    seq: AtomicU64,
    ts: AtomicU64,
    kind_worker: AtomicU64,
    payload: AtomicU64,
}

impl Slot {
    const fn empty() -> Self {
        Slot {
            seq: AtomicU64::new(0),
            ts: AtomicU64::new(0),
            kind_worker: AtomicU64::new(0),
            payload: AtomicU64::new(0),
        }
    }
}

/// A single worker's event ring. See the module docs for the layout
/// and the seqlock protocol.
pub struct EventRing {
    worker: u32,
    clock: Arc<ObsClock>,
    slots: Box<[Slot]>,
    mask: u64,
    head: AtomicU64,
    skipped: AtomicU64,
}

impl std::fmt::Debug for EventRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventRing")
            .field("worker", &self.worker)
            .field("capacity", &self.capacity())
            .field("head", &self.head())
            .finish()
    }
}

impl EventRing {
    /// Builds a ring for `worker` holding the last `capacity` events
    /// (rounded up to a power of two, minimum 2), stamping them with
    /// `clock`. This is the ring's only allocation — recording is
    /// allocation-free by policy (enforced by the `alloc` lint rule).
    pub fn new(worker: u32, capacity: usize, clock: Arc<ObsClock>) -> Self {
        let cap = capacity.max(2).next_power_of_two();
        // lint: allow(alloc): the ring's one-time slot buffer; nothing
        // allocates after construction.
        let slots: Box<[Slot]> = (0..cap).map(|_| Slot::empty()).collect();
        EventRing {
            worker,
            clock,
            slots,
            mask: (cap - 1) as u64,
            head: AtomicU64::new(0),
            skipped: AtomicU64::new(0),
        }
    }

    /// The owning worker's id (stamped into every event).
    pub fn worker(&self) -> u32 {
        self.worker
    }

    /// Slot count (power of two).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// The clock events are stamped with.
    pub fn clock(&self) -> &ObsClock {
        &self.clock
    }

    /// Records one event, stamped now. Wait-free, allocation-free.
    #[inline]
    pub fn record(&self, kind: EventKind, payload: u64) {
        self.record_at(self.clock.tick(), kind, payload);
    }

    /// Records one event with an explicit timestamp.
    pub fn record_at(&self, ts: u64, kind: EventKind, payload: u64) {
        // ordering: single producer — only the owning worker writes (model: seqlock_ring)
        // `head`, so its own read needs no synchronization.
        let h = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(h & self.mask) as usize];
        // ordering: seqlock begin marker (odd); the Release fence below (model: seqlock_ring)
        // keeps it ahead of the field stores, and readers validate with
        // the seq double-check.
        slot.seq.store(2 * h + 1, Ordering::Relaxed);
        // ordering: StoreStore barrier — the odd marker above must be (model: seqlock_ring)
        // visible before any field store below.
        fence(Ordering::Release);
        slot.ts.store(ts, Ordering::Relaxed);
        slot.kind_worker
            .store(u64::from(self.worker) << 8 | kind as u64, Ordering::Relaxed);
        slot.payload.store(payload, Ordering::Relaxed);
        // ordering: StoreStore barrier — all field stores must be (model: seqlock_ring)
        // visible before the even publish marker below.
        fence(Ordering::Release);
        slot.seq.store(2 * (h + 1), Ordering::Release);
        self.head.store(h + 1, Ordering::Release);
    }

    /// Total events ever recorded (monotone; not bounded by capacity).
    pub fn head(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Events currently resident in the ring.
    pub fn len(&self) -> usize {
        self.head().min(self.slots.len() as u64) as usize
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.head() == 0
    }

    /// How many events have been overwritten (lost off the tail). The
    /// ring is never *silently* lossy: this is exact, derived from the
    /// monotone head counter.
    pub fn dropped_events(&self) -> u64 {
        self.head().saturating_sub(self.slots.len() as u64)
    }

    /// Visits the resident events oldest-first. Returns the number of
    /// slots *skipped* because a concurrent writer raced the read (the
    /// seqlock double-check failed); 0 whenever the owner is quiescent.
    pub fn for_each<F: FnMut(Event)>(&self, mut f: F) -> u64 {
        let head = self.head();
        let start = head.saturating_sub(self.slots.len() as u64);
        let mut skipped = 0u64;
        for n in start..head {
            let slot = &self.slots[(n & self.mask) as usize];
            let expect = 2 * (n + 1);
            let s1 = slot.seq.load(Ordering::Acquire);
            let ts = slot.ts.load(Ordering::Relaxed);
            let kw = slot.kind_worker.load(Ordering::Relaxed);
            let payload = slot.payload.load(Ordering::Relaxed);
            // ordering: LoadLoad barrier — the field loads above must (model: seqlock_ring)
            // complete before the validating seq re-read below.
            fence(Ordering::Acquire);
            // ordering: the Acquire fence above orders this validation (model: seqlock_ring)
            // load after the field loads; Acquire on the load itself
            // adds nothing further.
            let s2 = slot.seq.load(Ordering::Relaxed);
            let kind = EventKind::from_u8((kw & 0xff) as u8);
            match kind {
                Some(kind) if s1 == expect && s2 == expect => f(Event {
                    ts,
                    worker: (kw >> 8) as u32,
                    kind,
                    payload,
                }),
                _ => skipped += 1,
            }
        }
        if skipped > 0 {
            // ordering: pure Relaxed monotone counter — readers only (model: seqlock_ring)
            // need eventual visibility of the torn-read total, never an
            // ordering relation with the slots themselves.
            self.skipped.fetch_add(skipped, Ordering::Relaxed);
        }
        skipped
    }

    /// Cumulative count of torn reads skipped by [`EventRing::for_each`]
    /// passes over this ring's lifetime (0 whenever every read pass ran
    /// against a quiescent writer).
    pub fn skipped_reads(&self) -> u64 {
        // ordering: pure Relaxed monotone counter read (model: seqlock_ring)
        self.skipped.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ClockMode;

    fn ring(cap: usize) -> EventRing {
        EventRing::new(3, cap, Arc::new(ObsClock::new(ClockMode::Logical)))
    }

    #[test]
    fn records_and_reads_back_in_order() {
        let r = ring(8);
        for i in 0..5u64 {
            r.record(EventKind::QueuePush, i);
        }
        let mut seen = Vec::new();
        let skipped = r.for_each(|e| seen.push(e));
        assert_eq!(skipped, 0);
        assert_eq!(seen.len(), 5);
        assert_eq!(r.dropped_events(), 0);
        for (i, e) in seen.iter().enumerate() {
            assert_eq!(e.worker, 3);
            assert_eq!(e.kind, EventKind::QueuePush);
            assert_eq!(e.payload, i as u64);
            assert_eq!(e.ts, i as u64, "logical clock ticks once per event");
        }
    }

    #[test]
    fn wraparound_keeps_newest_and_accounts_drops() {
        let r = ring(8);
        for i in 0..20u64 {
            r.record(EventKind::JobStart, i);
        }
        assert_eq!(r.head(), 20);
        assert_eq!(r.len(), 8);
        assert_eq!(r.dropped_events(), 12, "exactly head - capacity lost");
        let mut payloads = Vec::new();
        let skipped = r.for_each(|e| payloads.push(e.payload));
        assert_eq!(skipped, 0);
        assert_eq!(payloads, (12..20).collect::<Vec<_>>());
    }

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        assert_eq!(ring(0).capacity(), 2);
        assert_eq!(ring(3).capacity(), 4);
        assert_eq!(ring(8).capacity(), 8);
        assert_eq!(ring(9).capacity(), 16);
    }

    #[test]
    fn kind_roundtrip_and_names() {
        for (i, k) in EventKind::ALL.iter().enumerate() {
            assert_eq!(EventKind::from_u8(i as u8), Some(*k));
            assert!(!k.as_str().is_empty());
        }
        assert_eq!(EventKind::from_u8(EventKind::ALL.len() as u8), None);
    }

    #[test]
    fn clean_reads_leave_skip_counter_at_zero() {
        let r = ring(8);
        for i in 0..5u64 {
            r.record(EventKind::QueuePush, i);
        }
        assert_eq!(r.for_each(|_| {}), 0);
        assert_eq!(r.for_each(|_| {}), 0);
        assert_eq!(r.skipped_reads(), 0);
    }

    #[test]
    fn explicit_timestamp_is_preserved() {
        let r = ring(4);
        r.record_at(777, EventKind::ScoreMark, 42);
        let mut got = None;
        r.for_each(|e| got = Some(e));
        let e = got.unwrap();
        assert_eq!(e.ts, 777);
        assert_eq!(e.payload, 42);
    }
}
