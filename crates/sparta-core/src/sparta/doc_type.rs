//! Sparta's shared per-document record and upper-bound vector.

use sparta_corpus::types::DocId;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// The paper's `DocType`: ⟨id, score[m], LB⟩ (Table 1) — the
/// free-standing refcounted record the pNRA baseline keeps (Sparta's
/// own candidates are `DocSlab` records).
///
/// `score[i]` is written **only** by the worker currently processing
/// term i ("at most one thread processes each term", §4.3), and read
/// by all; plain atomics with release/acquire ordering suffice — no
/// lock. `LB` is "updated in a lazy manner while holding the global
/// lock on docHeap" (§4.3); it is only meaningful under that lock, so
/// it lives in the heap's own entries (`SpartaHeap`), not here.
#[derive(Debug)]
pub struct DocType {
    /// Document id.
    pub id: DocId,
    scores: Box<[AtomicU32]>,
    /// Running Σᵢ score[i], maintained by [`set_score`](Self::set_score)
    /// so the per-posting `current_sum()` (Alg. 1 line 23) is one load
    /// instead of m. Safe without CAS loops because each score slot has
    /// exactly one writer (§4.3): the delta `new − old` each owner adds
    /// is exact for its own slot, and `fetch_add` makes the concurrent
    /// additions from different owners commute.
    sum: AtomicU64,
}

impl DocType {
    /// Creates a record for `id` with `m` zeroed term scores.
    pub fn new(id: DocId, m: usize) -> Self {
        Self {
            id,
            scores: (0..m).map(|_| AtomicU32::new(0)).collect(),
            sum: AtomicU64::new(0),
        }
    }

    /// Number of term slots.
    pub fn arity(&self) -> usize {
        self.scores.len()
    }

    /// Sets term i's score (owner thread only) and folds the delta into
    /// the running sum. Two's-complement wrapping makes the delta
    /// correct even when a score is revised downward.
    #[inline]
    pub fn set_score(&self, i: usize, score: u32) {
        // ordering: both RMWs are AcqRel so the running sum stays a (model: doc_type_publish)
        // *publication point*: a thread that Acquire-loads `sum` in
        // current_sum() and observes this delta also observes the score
        // swap that produced it (release sequence through the two
        // RMWs). Relaxed here would let the Alg. 1 line 23 filter read
        // a sum whose constituent score is not yet visible.
        let old = self.scores[i].swap(score, Ordering::AcqRel);
        let delta = u64::from(score).wrapping_sub(u64::from(old));
        self.sum.fetch_add(delta, Ordering::AcqRel);
    }

    /// Term i's score so far (0 = not yet seen).
    #[inline]
    pub fn score(&self, i: usize) -> u32 {
        self.scores[i].load(Ordering::Acquire)
    }

    /// Sum of the known term scores — the document's lower bound
    /// (Alg. 1 line 23 / 31). One atomic load of the running sum.
    #[inline]
    pub fn current_sum(&self) -> u64 {
        self.sum.load(Ordering::Acquire)
    }

    /// Upper bound `UB(D) = Σᵢ (score[i] > 0 ? score[i] : UB[i])`
    /// (Table 1).
    pub fn ub(&self, ub: &SharedUb) -> u64 {
        self.ub_scaled(ub, 1.0)
    }

    /// Probabilistically *estimated* bound: unknown term contributions
    /// count as `γ·UB[i]` (γ = 1 gives the safe bound). The basis of
    /// the probabilistic-pruning extension (§6 future work).
    pub fn ub_scaled(&self, ub: &SharedUb, gamma: f64) -> u64 {
        self.scores
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let v = s.load(Ordering::Acquire);
                if v > 0 {
                    u64::from(v)
                } else if gamma >= 1.0 {
                    ub.get(i)
                } else {
                    (ub.get(i) as f64 * gamma) as u64
                }
            })
            .sum()
    }
}

/// The shared `UB[m]` vector (Table 1, init ∞). Entry i is written
/// only by the worker owning term i — at the **end of each segment**,
/// not per posting, to keep other workers' cached copies valid longer
/// ("instead of updating UB after each document evaluation, the
/// workers update it at the end of a segment traversal", §4.3).
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

    /// UB[i].
    #[inline]
    pub fn get(&self, i: usize) -> u64 {
        self.ub[i].load(Ordering::Acquire)
    }

    /// Sets UB[i] to the last traversed score (segment end).
    #[inline]
    pub fn set(&self, i: usize, score: u32) {
        self.ub[i].store(u64::from(score), Ordering::Release);
    }

    /// Marks term i exhausted: no untraversed postings remain.
    #[inline]
    pub fn exhaust(&self, i: usize) {
        self.ub[i].store(0, Ordering::Release);
    }

    /// Σᵢ UB[i].
    #[inline]
    pub fn sum(&self) -> u64 {
        self.ub.iter().map(|u| u.load(Ordering::Acquire)).sum()
    }

    /// Equation 1: Σᵢ UB[i] ≤ Θ.
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
        out.bounds.clear();
        out.bounds.extend(self.ub.iter().map(|u| {
            let u = u.load(Ordering::Acquire);
            if gamma >= 1.0 {
                u
            } else {
                (u as f64 * gamma) as u64
            }
        }));
        out.total = out.bounds.iter().sum();
    }
}

/// One cleaner pass's private copy of `UB[m]`, γ-scaled for the
/// probabilistic-pruning extension (γ = 1 is the safe bound), with
/// its total: `UB(D)` for a slab record is then one subtraction per
/// *known* term instead of one shared load per unknown one.
#[derive(Debug, Default)]
pub struct UbSnapshot {
    bounds: Vec<u64>,
    total: u64,
}

impl UbSnapshot {
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
    fn doc_type_scores_and_sum() {
        let d = DocType::new(7, 3);
        assert_eq!(d.arity(), 3);
        assert_eq!(d.current_sum(), 0);
        d.set_score(0, 11);
        d.set_score(2, 41);
        assert_eq!(d.score(0), 11);
        assert_eq!(d.score(1), 0);
        assert_eq!(d.current_sum(), 52);
    }

    #[test]
    fn running_sum_tracks_revisions() {
        let d = DocType::new(3, 2);
        d.set_score(0, 50);
        assert_eq!(d.current_sum(), 50);
        // Downward revision: the wrapping delta must subtract cleanly.
        d.set_score(0, 20);
        assert_eq!(d.current_sum(), 20);
        d.set_score(1, 5);
        assert_eq!(d.current_sum(), 25);
    }

    #[test]
    fn figure_1_doc_ub() {
        // UB = [38, 32, 41]; D57 knows terms 2 and 3 (40, 41).
        let ub = SharedUb::new(3);
        ub.set(0, 38);
        ub.set(1, 32);
        ub.set(2, 41);
        let d = DocType::new(57, 3);
        d.set_score(1, 40);
        d.set_score(2, 41);
        assert_eq!(d.ub(&ub), 38 + 40 + 41);
    }

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
    fn scaled_ub_discounts_unknown_terms_only() {
        let ub = SharedUb::new(3);
        ub.set(0, 100);
        ub.set(1, 100);
        ub.set(2, 100);
        let d = DocType::new(1, 3);
        d.set_score(0, 40);
        // Known score counts fully; two unknowns at γ = 0.5.
        assert_eq!(d.ub_scaled(&ub, 0.5), 40 + 50 + 50);
        assert_eq!(d.ub_scaled(&ub, 1.0), d.ub(&ub));
        assert_eq!(d.ub(&ub), 240);
    }

    #[test]
    fn concurrent_owner_writes_are_visible() {
        use std::sync::Arc;
        let d = Arc::new(DocType::new(1, 4));
        std::thread::scope(|s| {
            for i in 0..4usize {
                let d = Arc::clone(&d);
                s.spawn(move || d.set_score(i, (i as u32 + 1) * 10));
            }
        });
        assert_eq!(d.current_sum(), 10 + 20 + 30 + 40);
    }
}
