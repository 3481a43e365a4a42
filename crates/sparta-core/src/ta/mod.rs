//! The Threshold Algorithm (Fagin, Lotem & Naor) in the IR setting
//! (§3.2): sequential NRA over score-ordered posting lists.
//!
//! Sequential NRA is a substrate, not a registered algorithm:
//! [`snra`](crate::snra) runs [`nra::run_nra`] per shard, and the
//! [`UpperBounds`] it keeps are the `UBStop` state Sparta's stopping
//! conditions extend.

pub mod nra;

/// Shared upper-bound state of an interleaved score-order traversal.
///
/// `UB[i]` bounds the term scores of documents not yet visited in term
/// i's posting list: the last traversed score, or ∞ before the first
/// posting, or 0 once the list is exhausted (nothing untraversed
/// remains).
#[derive(Debug, Clone)]
pub struct UpperBounds {
    ub: Vec<u64>,
    exhausted: Vec<bool>,
}

impl UpperBounds {
    /// Creates bounds for `m` terms, all ∞.
    pub fn new(m: usize) -> Self {
        Self {
            ub: vec![u64::from(u32::MAX); m],
            exhausted: vec![false; m],
        }
    }

    /// Records the last traversed score of term `i`.
    #[inline]
    pub fn update(&mut self, i: usize, score: u32) {
        self.ub[i] = u64::from(score);
    }

    /// Marks term `i`'s list exhausted (UB drops to 0).
    #[inline]
    pub fn exhaust(&mut self, i: usize) {
        self.ub[i] = 0;
        self.exhausted[i] = true;
    }

    /// Whether term `i`'s list is exhausted.
    #[inline]
    pub fn is_exhausted(&self, i: usize) -> bool {
        self.exhausted[i]
    }

    /// Whether every list is exhausted.
    pub fn all_exhausted(&self) -> bool {
        self.exhausted.iter().all(|&e| e)
    }

    /// Σᵢ `UB[i]`.
    #[inline]
    pub fn sum(&self) -> u64 {
        self.ub.iter().sum()
    }

    /// `UB[i]`.
    #[inline]
    pub fn get(&self, i: usize) -> u64 {
        self.ub[i]
    }

    /// The `UBStop` condition (Equation 1): Σᵢ `UB[i]` ≤ Θ. With Θ = 0
    /// (heap not yet full) this only fires when every list is
    /// exhausted — the degenerate "fewer than k matches" case.
    #[inline]
    pub fn ub_stop(&self, theta: u64) -> bool {
        self.sum() <= theta
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_bounds_are_infinite() {
        let ub = UpperBounds::new(3);
        assert!(ub.sum() >= 3 * u64::from(u32::MAX));
        assert!(!ub.ub_stop(1_000_000));
    }

    #[test]
    fn figure_1_worked_example() {
        // Figure 1: UB = [38, 32, 41]. (D57's UB of 38+40+41 is a
        // record's: see `doc_slab`'s `figure_1_ub`.)
        let mut ub = UpperBounds::new(3);
        ub.update(0, 38);
        ub.update(1, 32);
        ub.update(2, 41);
        assert_eq!(ub.sum(), 111);
        assert!(ub.ub_stop(111) && !ub.ub_stop(110));
    }

    #[test]
    fn exhaustion_zeroes_bounds() {
        let mut ub = UpperBounds::new(2);
        ub.update(0, 10);
        ub.exhaust(1);
        assert_eq!(ub.sum(), 10);
        assert!(!ub.all_exhausted());
        ub.exhaust(0);
        assert!(ub.all_exhausted());
        assert!(ub.ub_stop(0), "all exhausted stops even with Θ = 0");
    }

    #[test]
    fn ub_stop_thresholding() {
        let mut ub = UpperBounds::new(2);
        ub.update(0, 30);
        ub.update(1, 20);
        assert!(!ub.ub_stop(49));
        assert!(ub.ub_stop(50));
    }
}
