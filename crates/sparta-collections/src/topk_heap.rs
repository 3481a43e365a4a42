//! Bounded top-k min-heap with threshold tracking.
//!
//! Every top-k retrieval algorithm in the paper maintains "the top-k
//! documents among those scored so far in a heap" together with a
//! threshold Θ holding "the score of the k-th (lowest-ranked) document
//! in the heap; any document whose score is below this threshold is not
//! a candidate for the final top-k list. As long as the heap contains
//! fewer than k documents, Θ remains zero." (§3.1). [`BoundedTopK`]
//! implements exactly this contract.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A `(score, item)` pair ordered as a *min*-heap entry by score, with
/// the item as tie-breaker so heap contents are deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Entry<T> {
    /// Aggregated score of the item.
    pub score: u64,
    /// The item (usually a document id).
    pub item: T,
}

impl<T: Ord> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T: Ord> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the *lowest*
        // score at the top so it can be evicted in O(log k).
        other
            .score
            .cmp(&self.score)
            .then_with(|| other.item.cmp(&self.item))
    }
}

/// A bounded min-heap retaining the `k` highest-scoring items inserted
/// so far.
///
/// ```
/// use sparta_collections::BoundedTopK;
/// let mut heap = BoundedTopK::new(2);
/// heap.offer(30, 1u32);
/// heap.offer(10, 2);
/// heap.offer(20, 3); // displaces (10, 2)
/// assert_eq!(heap.threshold(), 20);
/// let top: Vec<u32> = heap.into_sorted_vec().iter().map(|e| e.item).collect();
/// assert_eq!(top, vec![1, 3]);
/// ```
///
/// The threshold Θ ([`BoundedTopK::threshold`]) is the k-th best score
/// once the heap is full and `0` before that, matching the paper's
/// definition. Ties at the threshold are broken by the item ordering
/// (larger items win), which keeps results deterministic across runs
/// and thread interleavings.
#[derive(Debug, Clone)]
pub struct BoundedTopK<T> {
    k: usize,
    heap: BinaryHeap<Entry<T>>,
}

impl<T: Ord + Copy> BoundedTopK<T> {
    /// Creates an empty heap that will retain at most `k` items.
    ///
    /// # Panics
    /// Panics if `k == 0`; a top-0 query is meaningless and would make
    /// the threshold semantics degenerate.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "top-k heap requires k >= 1");
        Self {
            k,
            heap: BinaryHeap::with_capacity(k + 1),
        }
    }

    /// The capacity bound `k`.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of items currently held (≤ k).
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the heap holds no items.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Whether the heap holds `k` items (the threshold is now "live").
    #[inline]
    pub fn is_full(&self) -> bool {
        self.heap.len() == self.k
    }

    /// The threshold Θ: the lowest score in the heap once full, `0`
    /// otherwise (§3.1).
    #[inline]
    pub fn threshold(&self) -> u64 {
        if self.is_full() {
            self.heap.peek().map_or(0, |e| e.score)
        } else {
            0
        }
    }

    /// Offers an item. Returns `true` if the heap changed (the item was
    /// admitted), `false` if it was rejected for scoring at or below
    /// the current contents' floor.
    ///
    /// An evicted item (when the heap was full and the new item
    /// displaced the minimum) does *not* count as "no change": the heap
    /// changed and callers tracking `heapUpdTime` must refresh it.
    pub fn offer(&mut self, score: u64, item: T) -> bool {
        let entry = Entry { score, item };
        if self.heap.len() < self.k {
            self.heap.push(entry);
            return true;
        }
        // Full: admit only if strictly better than the current minimum
        // (ties broken by item so outcomes are deterministic).
        match self.heap.peek() {
            // Reversed ordering: "better" entries compare *smaller*.
            Some(min) if entry < *min => {
                self.heap.pop();
                self.heap.push(entry);
                true
            }
            Some(_) => false,
            None => unreachable!("k >= 1 and len == k implies non-empty"),
        }
    }

    /// Iterates over the current entries in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = &Entry<T>> {
        self.heap.iter()
    }

    /// Consumes the heap and returns entries sorted by descending
    /// score (ties: descending item), i.e. rank order.
    pub fn into_sorted_vec(self) -> Vec<Entry<T>> {
        let mut v: Vec<Entry<T>> = self.heap.into_vec();
        v.sort_by(|a, b| b.score.cmp(&a.score).then_with(|| b.item.cmp(&a.item)));
        v
    }

    /// Returns entries sorted by rank without consuming the heap.
    pub fn sorted_entries(&self) -> Vec<Entry<T>> {
        let mut v: Vec<Entry<T>> = self.heap.iter().copied().collect();
        v.sort_by(|a, b| b.score.cmp(&a.score).then_with(|| b.item.cmp(&a.item)));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_zero_until_full() {
        let mut h = BoundedTopK::new(3);
        assert_eq!(h.threshold(), 0);
        h.offer(10, 1u32);
        h.offer(20, 2);
        assert_eq!(h.threshold(), 0, "not full yet");
        h.offer(30, 3);
        assert_eq!(h.threshold(), 10, "k-th best once full");
    }

    #[test]
    fn keeps_k_best() {
        let mut h = BoundedTopK::new(2);
        for (s, d) in [(5u64, 1u32), (9, 2), (1, 3), (7, 4)] {
            h.offer(s, d);
        }
        let top = h.into_sorted_vec();
        assert_eq!(
            top.iter().map(|e| (e.score, e.item)).collect::<Vec<_>>(),
            vec![(9, 2), (7, 4)]
        );
    }

    #[test]
    fn rejects_below_threshold() {
        let mut h = BoundedTopK::new(1);
        assert!(h.offer(10, 1u32));
        assert!(!h.offer(5, 2));
        assert!(!h.offer(10, 0), "tie broken toward larger item");
        assert!(h.offer(10, 3), "tie broken toward larger item");
        assert_eq!(h.sorted_entries()[0].item, 3);
    }

    #[test]
    fn deterministic_under_duplicate_scores() {
        // All items share one score; the k retained must be the k
        // largest item ids regardless of insertion order.
        let mut a = BoundedTopK::new(3);
        let mut b = BoundedTopK::new(3);
        let items = [5u32, 1, 9, 7, 3, 8];
        for &i in &items {
            a.offer(100, i);
        }
        for &i in items.iter().rev() {
            b.offer(100, i);
        }
        assert_eq!(a.sorted_entries(), b.sorted_entries());
        assert_eq!(
            a.sorted_entries()
                .iter()
                .map(|e| e.item)
                .collect::<Vec<_>>(),
            vec![9, 8, 7]
        );
    }

    #[test]
    #[should_panic(expected = "k >= 1")]
    fn zero_k_panics() {
        let _ = BoundedTopK::<u32>::new(0);
    }
}
