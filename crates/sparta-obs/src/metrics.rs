//! Lock-free metric primitives: counters, max-gauges, and log-bucketed
//! latency histograms.
//!
//! Recording is a single atomic RMW on the hot path; reads ("scrape")
//! may race with writers and observe a slightly stale but internally
//! consistent-enough view — the standard monitoring trade-off.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Adds one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge that retains the maximum observed value (high-water marks).
#[derive(Debug, Default)]
pub struct MaxGauge(AtomicU64);

impl MaxGauge {
    /// A gauge at zero.
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Raises the gauge to `v` if `v` exceeds the current maximum.
    #[inline]
    pub fn observe(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// The maximum observed so far.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of buckets in a [`Histogram`]: one per power of two of the
/// `u64` range, plus a dedicated zero bucket.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A lock-free histogram with logarithmic (base-2) buckets.
///
/// Bucket 0 holds the value 0; bucket `i ≥ 1` holds values `v` with
/// `2^(i-1) ≤ v < 2^i`. Recording is one `fetch_add` on the bucket
/// plus count/sum updates — no locks, suitable for per-worker hot
/// paths. Percentile readouts return the upper bound of the bucket
/// containing the requested rank, so they are conservative (never
/// under-report) and monotone in `p`.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Bucket index for a value: 0 for 0, else `floor(log2(v)) + 1`.
#[inline]
fn bucket_index(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i` (0 for the zero bucket).
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Self {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: [ZERO; HISTOGRAM_BUCKETS],
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// An owned point-in-time copy, for aggregation and export.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        for (b, a) in buckets.iter_mut().zip(&self.buckets) {
            *b = a.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            buckets,
        }
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        self.snapshot().mean()
    }

    /// Conservative p-th percentile (see type docs), `p ∈ [0, 1]`.
    pub fn percentile(&self, p: f64) -> u64 {
        self.snapshot().percentile(p)
    }
}

/// An owned copy of a [`Histogram`]'s state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Per-bucket counts (see [`Histogram`] for the bucket layout).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self {
            count: 0,
            sum: 0,
            buckets: [0; HISTOGRAM_BUCKETS],
        }
    }
}

impl HistogramSnapshot {
    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Conservative p-th percentile: the upper bound of the bucket
    /// containing rank `ceil(p · count)`. Monotone in `p`.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64) * p.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper_bound(i);
            }
        }
        bucket_upper_bound(HISTOGRAM_BUCKETS - 1)
    }

    /// Adds another snapshot's observations into this one
    /// (saturating, so fault-injection storms cannot overflow).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a = a.saturating_add(*b);
        }
    }
}

/// Nearest-rank p-th percentile (`p ∈ [0, 1]`) of an ascending sample:
/// the element at `round((n − 1) · p)`, or `T::default()` when the
/// sample is empty. Exact, unlike [`HistogramSnapshot::percentile`].
pub fn percentile<T: Copy + Default>(sorted: &[T], p: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let idx = ((sorted.len() as f64 - 1.0) * p.clamp(0.0, 1.0)).round() as usize;
    sorted[idx]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_percentile_picks_expected_entries() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.95), 95);
        assert_eq!(percentile::<u64>(&[], 0.5), 0);
        let d = [std::time::Duration::from_millis(3)];
        assert_eq!(percentile(&d, 0.99), d[0]);
    }

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = MaxGauge::new();
        g.observe(3);
        g.observe(9);
        g.observe(7);
        assert_eq!(g.get(), 9);
    }

    #[test]
    fn bucket_boundaries() {
        // Zero gets its own bucket; powers of two open new buckets.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
        // Upper bounds bracket the bucket contents.
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(2), 3);
        assert_eq!(bucket_upper_bound(10), 1023);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
        for v in [0u64, 1, 2, 3, 7, 8, 1000, 1 << 40] {
            let i = bucket_index(v);
            assert!(v <= bucket_upper_bound(i), "v={v} bucket={i}");
            if i > 0 {
                assert!(v > bucket_upper_bound(i - 1), "v={v} bucket={i}");
            }
        }
    }

    #[test]
    fn percentiles_are_monotone_and_conservative() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.sum(), 500_500);
        let mut last = 0;
        for p in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0] {
            let q = h.percentile(p);
            assert!(q >= last, "percentile not monotone at p={p}");
            last = q;
        }
        // Conservative: p50 of 1..=1000 is ≥ 500 (bucket upper bound).
        assert!(h.percentile(0.5) >= 500);
        assert!(h.percentile(1.0) >= 1000);
        assert!((h.mean() - 500.5).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_reads_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.percentile(0.99), 0);
    }

    #[test]
    fn snapshot_merge_is_saturating() {
        let mut a = HistogramSnapshot {
            count: u64::MAX - 1,
            sum: u64::MAX - 1,
            ..Default::default()
        };
        let b = HistogramSnapshot {
            count: 5,
            sum: 5,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.count, u64::MAX);
        assert_eq!(a.sum, u64::MAX);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = std::sync::Arc::new(Histogram::new());
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let h = std::sync::Arc::clone(&h);
                s.spawn(move || {
                    for i in 0..1000 {
                        h.record(t * 1000 + i);
                    }
                });
            }
        });
        assert_eq!(h.count(), 4000);
        let snap = h.snapshot();
        assert_eq!(snap.buckets.iter().sum::<u64>(), 4000);
    }
}
