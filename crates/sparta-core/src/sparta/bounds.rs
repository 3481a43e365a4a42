//! The shared upper-bound vector `UB[m]` and a pass's private copy of it.

use std::sync::atomic::{AtomicU64, Ordering};

/// The shared `UB[m]` vector (Table 1, init ∞). Entry i is written
/// only by the worker owning term i — by Sparta at the **end of each
/// segment**, not per posting, to keep other workers' cached copies
/// valid longer ("instead of updating UB after each document
/// evaluation, the workers update it at the end of a segment
/// traversal", §4.3); the naïve baselines store it per posting.
#[derive(Debug)]
pub struct SharedUb {
    ub: Box<[AtomicU64]>,
}

impl SharedUb {
    /// Creates bounds for `m` terms, all ∞ (`u32::MAX` suffices: no
    /// term score exceeds it).
    pub fn new(m: usize) -> Self {
        Self {
            ub: (0..m)
                .map(|_| AtomicU64::new(u64::from(u32::MAX)))
                .collect(),
        }
    }

    /// `UB[i]`.
    #[inline]
    pub fn get(&self, i: usize) -> u64 {
        self.ub[i].load(Ordering::Acquire)
    }

    /// Sets `UB[i]` to the last traversed score.
    #[inline]
    pub fn set(&self, i: usize, score: u32) {
        self.ub[i].store(u64::from(score), Ordering::Release);
    }

    /// Marks term i exhausted: no untraversed postings remain.
    #[inline]
    pub fn exhaust(&self, i: usize) {
        self.ub[i].store(0, Ordering::Release);
    }

    /// Σᵢ `UB[i]`.
    #[inline]
    pub fn sum(&self) -> u64 {
        self.ub.iter().map(|u| u.load(Ordering::Acquire)).sum()
    }

    /// Equation 1: Σᵢ `UB[i]` ≤ Θ.
    #[inline]
    pub fn ub_stop(&self, theta: u64) -> bool {
        self.sum() <= theta
    }

    /// Copies the bounds, γ-scaled, into `out` (reusing its buffer).
    /// Take the snapshot *before* reading any record: a record write
    /// the snapshot's `UB[i]` does not cover (same or later segment)
    /// carries a score ≤ that `UB[i]`, so a bound computed from the
    /// snapshot can only over-estimate.
    pub fn snapshot_into(&self, gamma: f64, out: &mut UbSnapshot) {
        out.fill(self.ub.iter().map(|u| {
            let u = u.load(Ordering::Acquire);
            if gamma >= 1.0 {
                u
            } else {
                (u as f64 * gamma) as u64
            }
        }));
    }
}

/// One pass's (Sparta's cleaner, pNRA's stop check, NRA's sweep) private copy of
/// `UB[m]`, γ-scaled for the probabilistic-pruning extension (γ = 1 is
/// the safe bound), with its total: `UB(D)` for a slab record is then
/// one subtraction per *known* term instead of one shared load per
/// unknown one.
#[derive(Debug, Default)]
pub struct UbSnapshot {
    bounds: Vec<u64>,
    total: u64,
}

impl UbSnapshot {
    /// Replaces the copy with `bounds`, reusing its buffer.
    pub(crate) fn fill(&mut self, bounds: impl Iterator<Item = u64>) {
        self.bounds.clear();
        self.bounds.extend(bounds);
        self.total = self.bounds.iter().sum();
    }

    /// The (scaled) bound of term i.
    #[inline]
    pub fn get(&self, i: usize) -> u64 {
        self.bounds[i]
    }

    /// Σᵢ of the (scaled) bounds.
    #[inline]
    pub fn total(&self) -> u64 {
        self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_ub_starts_infinite_and_stops_on_exhaustion() {
        let ub = SharedUb::new(2);
        assert!(!ub.ub_stop(u64::from(u32::MAX)), "2·MAX > MAX");
        ub.set(0, 10);
        ub.exhaust(1);
        assert_eq!(ub.sum(), 10);
        assert!(ub.ub_stop(10));
        assert!(!ub.ub_stop(9));
    }

    #[test]
    fn snapshot_scales_every_bound_by_gamma() {
        let ub = SharedUb::new(3);
        ub.set(0, 100);
        ub.set(1, 40);
        ub.exhaust(2);
        let mut snap = UbSnapshot::default();
        ub.snapshot_into(0.5, &mut snap);
        assert_eq!(
            (snap.get(0), snap.get(1), snap.get(2), snap.total()),
            (50, 20, 0, 70)
        );
    }
}
