//! A contention-avoiding counter.
//!
//! Hot counters (postings scanned, I/O blocks fetched) are incremented
//! from every worker thread. A single `AtomicU64` would bounce its
//! cache line between cores on every increment; [`ShardedCounter`]
//! spreads increments over per-slot cache-line-padded atomics and sums
//! them on read, the standard HPC pattern for write-heavy/read-rare
//! statistics.

use crossbeam::utils::CachePadded;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Number of counter slots; a small power of two ≥ typical core counts.
const SLOTS: usize = 16;

/// The calling thread's slot index, handed out round-robin from a
/// process-wide counter on the thread's first use. Hashing the thread
/// id instead (as this type once did) collides like a birthday
/// problem: with per-query worker threads, two live workers shared a
/// slot — and its cache line — in about one query of sixteen.
/// Round-robin gives any `SLOTS` consecutively started threads
/// distinct slots.
fn thread_slot() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SLOT: usize = NEXT.fetch_add(1, Ordering::Relaxed) % SLOTS;
    }
    SLOT.with(|s| *s)
}

/// A counter sharded over cache-line-padded slots.
///
/// `add` uses the calling thread's own slot, so up to `SLOTS` live
/// threads hit distinct cache lines. `get` sums all slots;
/// the result is exact once all writers are quiescent, and a valid
/// (possibly slightly stale) lower bound while they are running.
pub struct ShardedCounter {
    slots: Box<[CachePadded<AtomicU64>]>,
}

impl ShardedCounter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        let slots: Vec<_> = (0..SLOTS)
            .map(|_| CachePadded::new(AtomicU64::new(0)))
            .collect();
        Self {
            slots: slots.into_boxed_slice(),
        }
    }

    #[inline]
    fn slot(&self) -> &AtomicU64 {
        &self.slots[thread_slot()]
    }

    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.slot().fetch_add(n, Ordering::Relaxed);
    }

    /// Increments the counter by one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Sums all slots.
    pub fn get(&self) -> u64 {
        self.slots.iter().map(|s| s.load(Ordering::Relaxed)).sum()
    }

    /// Resets all slots to zero. Only meaningful while writers are
    /// quiescent.
    pub fn reset(&self) {
        for s in self.slots.iter() {
            s.store(0, Ordering::Relaxed);
        }
    }
}

impl Default for ShardedCounter {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for ShardedCounter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ShardedCounter({})", self.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counts_single_thread() {
        let c = ShardedCounter::new();
        c.incr();
        c.add(9);
        assert_eq!(c.get(), 10);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn counts_across_threads() {
        let c = Arc::new(ShardedCounter::new());
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for _ in 0..10_000 {
                        c.incr();
                    }
                });
            }
        });
        assert_eq!(c.get(), 80_000);
    }

    /// `SLOTS` concurrently live threads that take their slots back to
    /// back must get `SLOTS` distinct ones. Other tests of this binary
    /// may start threads in between, so retry until a round runs
    /// undisturbed; the thread-id hash this replaces passed a round
    /// with probability 16!/16^16 ≈ 10⁻⁶.
    #[test]
    fn concurrently_live_threads_get_distinct_slots() {
        use std::sync::Barrier;
        for _attempt in 0..64 {
            let barrier = Barrier::new(SLOTS);
            let mut slots: Vec<usize> = std::thread::scope(|s| {
                let workers: Vec<_> = (0..SLOTS)
                    .map(|_| {
                        s.spawn(|| {
                            let slot = thread_slot();
                            // Keep every thread alive until all hold
                            // a slot: "concurrently live".
                            barrier.wait();
                            slot
                        })
                    })
                    .collect();
                workers.into_iter().map(|w| w.join().unwrap()).collect()
            });
            slots.sort_unstable();
            slots.dedup();
            if slots.len() == SLOTS {
                return;
            }
        }
        panic!("16 live threads never received 16 distinct slots");
    }
}
