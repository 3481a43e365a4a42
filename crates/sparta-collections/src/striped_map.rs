//! A lock-striped concurrent hash map.
//!
//! The paper protects each bucket of Sparta's shared `docMap` with "a
//! granular lock, which performs better than the generic Java
//! concurrent hashmap" (§4.3). [`StripedMap`] is the analogous
//! structure: the key space is partitioned into a fixed power-of-two
//! number of *stripes*, each an independent `Mutex<HashMap>`. No
//! algorithm uses it any more — Sparta, pNRA and pJASS admit through
//! [`DocTable`](crate::DocTable), pRA claims through
//! [`DocBitset`](crate::DocBitset) — and it survives only for the repo
//! benchmark's `collections.striped_upsert_ns` probe, so it keeps
//! exactly that probe's calls.
//!
//! Hashing: each key is hashed **once** with
//! [`FastIntHasher`](crate::fast_hash::FastIntHasher); the high 32 bits
//! pick the stripe. They must be the *high* bits: the stripe's
//! `HashMap` (same hasher) consumes the low bits for bucket placement,
//! and striping on those would make every stripe's keys agree on them.

use crate::fast_hash::{fast_hash_one, FastBuildHasher, FastHashMap};
use parking_lot::Mutex;
use std::borrow::Borrow;
use std::hash::Hash;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Number of stripes; enough that 12 worker threads (the paper's
/// hardware) rarely collide.
const STRIPES: usize = 64;

/// A concurrent hash map sharded into independently locked stripes.
///
/// ```
/// use sparta_collections::StripedMap;
/// let map: StripedMap<u32, u32> = StripedMap::new();
/// std::thread::scope(|s| {
///     for t in 0..4u32 {
///         let map = &map;
///         s.spawn(move || {
///             for i in 0..100 {
///                 map.get_or_insert_with(t * 100 + i, || 0);
///                 map.update(&(t * 100 + i), |v| *v += 1);
///             }
///         });
///     }
/// });
/// assert_eq!(map.len(), 400);
/// ```
pub struct StripedMap<K, V> {
    stripes: Box<[Mutex<FastHashMap<K, V>>]>,
    len: AtomicUsize,
}

impl<K: Hash + Eq + Clone, V: Clone> StripedMap<K, V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self {
            stripes: (0..STRIPES)
                .map(|_| Mutex::new(FastHashMap::with_hasher(FastBuildHasher)))
                .collect(),
            len: AtomicUsize::new(0),
        }
    }

    #[inline]
    fn stripe<Q: Hash + ?Sized>(&self, key: &Q) -> &Mutex<FastHashMap<K, V>> {
        &self.stripes[((fast_hash_one(&key) >> 32) as usize) & (STRIPES - 1)]
    }

    /// Current number of entries. Exact (maintained with atomic
    /// increments), but may be stale by the time the caller reads it.
    #[inline]
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// Whether the map is empty (same staleness caveat as [`len`](Self::len)).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns the value for `key`, inserting `make()` first if absent.
    /// The factory runs under the stripe lock, so exactly one value is
    /// ever created per key even under concurrent calls.
    pub fn get_or_insert_with<F: FnOnce() -> V>(&self, key: K, make: F) -> V {
        let mut stripe = self.stripe(&key).lock();
        if let Some(v) = stripe.get(&key) {
            return v.clone();
        }
        let v = make();
        stripe.insert(key, v.clone());
        drop(stripe);
        self.len.fetch_add(1, Ordering::AcqRel);
        v
    }

    /// Mutates the value for `key` in place under the stripe lock.
    /// Returns whether the key was present.
    pub fn update<Q, F>(&self, key: &Q, f: F) -> bool
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
        F: FnOnce(&mut V),
    {
        match self.stripe(key).lock().get_mut(key) {
            Some(v) => {
                f(v);
                true
            }
            None => false,
        }
    }
}

impl<K: Hash + Eq + Clone, V: Clone> Default for StripedMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_insert_creates_once_and_update_sees_it() {
        let m: StripedMap<u32, u32> = StripedMap::new();
        assert!(m.is_empty());
        assert!(!m.update(&7, |v| *v += 1), "absent keys are not created");
        assert_eq!(m.get_or_insert_with(7, || 70), 70);
        assert_eq!(m.get_or_insert_with(7, || 71), 70, "one value per key");
        assert!(m.update(&7, |v| *v += 1));
        assert_eq!(m.get_or_insert_with(7, || 0), 71);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn concurrent_get_or_insert_is_unique() {
        let m: StripedMap<u32, u32> = StripedMap::new();
        let made = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for key in 0..1000u32 {
                        m.get_or_insert_with(key % 100, || {
                            made.fetch_add(1, Ordering::Relaxed);
                            0
                        });
                        m.update(&(key % 100), |v| *v += 1);
                    }
                });
            }
        });
        assert_eq!(made.load(Ordering::Relaxed), 100, "one creation per key");
        assert_eq!(m.len(), 100);
        let total: u32 = (0..100).map(|k| m.get_or_insert_with(k, || 0)).sum();
        assert_eq!(total, 8 * 1000);
    }
}
