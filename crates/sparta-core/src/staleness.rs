//! Δ's clock: how long a query's top-k has gone unchanged.
//!
//! The approximate variants stop once the heap has not changed for Δ
//! (Alg. 1 line 46). Every heap an algorithm ranks by keeps one
//! [`Staleness`] inline — [`SpartaHeap`](crate::sparta::SpartaHeap)
//! (Sparta, pNRA, NRA, sNRA), [`SharedHeap`](crate::shared_heap::SharedHeap)
//! (pRA) and RA's local heap — stamps it on every successful change,
//! and asks [`exceeds`](Staleness::exceeds) whether Δ has run out.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// `heapUpdTime` (Table 1): the time of the last heap change, kept as
/// nanoseconds since the heap was made so that readers never lock.
#[derive(Debug)]
pub struct Staleness {
    start: Instant,
    /// Nanoseconds since `start` at the last [`stamp`](Self::stamp).
    upd_nanos: AtomicU64,
}

impl Staleness {
    /// A clock whose last change is "now" (Table 1's initial value).
    #[expect(
        clippy::disallowed_methods,
        reason = "Δ's clock: the approximate variants stop on wall time since the last heap change"
    )]
    pub fn new() -> Self {
        Self {
            start: Instant::now(),
            upd_nanos: AtomicU64::new(0),
        }
    }

    /// Records a heap change now (Alg. 1 line 37: `heapUpdTime` ←
    /// current time).
    #[inline]
    pub fn stamp(&self) {
        self.upd_nanos
            .store(self.start.elapsed().as_nanos() as u64, Ordering::Release);
    }

    /// Time since the last change (since creation if none).
    pub fn since_last_update(&self) -> Duration {
        let last = Duration::from_nanos(self.upd_nanos.load(Ordering::Acquire));
        self.start.elapsed().saturating_sub(last)
    }

    /// Whether the heap has gone unchanged for at least Δ. Never with
    /// no Δ (exact mode), which then reads no clock.
    #[inline]
    pub fn exceeds(&self, delta: Option<Duration>) -> bool {
        delta.is_some_and(|d| self.since_last_update() >= d)
    }
}

impl Default for Staleness {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "the test measures elapsed wall time, so it must sleep"
    )]
    fn a_stamp_restarts_the_clock() {
        let s = Staleness::new();
        assert!(!s.exceeds(None), "no Δ never times out");
        assert!(s.exceeds(Some(Duration::ZERO)));
        std::thread::sleep(Duration::from_millis(5));
        let before = s.since_last_update();
        assert!(before >= Duration::from_millis(5));
        assert!(s.exceeds(Some(Duration::from_millis(5))));
        s.stamp();
        assert!(s.since_last_update() < before);
        assert!(!s.exceeds(Some(Duration::from_secs(60))));
    }
}
