//! Search results and work accounting.

use crate::trace::TraceEvent;
use sparta_corpus::types::DocId;

/// One retrieved document.
///
/// For full-scoring algorithms (RA, BMW, JASS at completion) `score`
/// is the exact document score; for NRA-family algorithms it is the
/// *lower bound* the heap was ordered by (§3.2) — correct as a rank
/// key at termination, but possibly below the true score.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SearchHit {
    /// Document id.
    pub doc: DocId,
    /// Score (or lower bound) the algorithm ranked the document by.
    pub score: u64,
}

/// Work performed during one search — the scheduling-independent
/// metrics used alongside wall-clock latency (this reproduction runs
/// on fewer cores than the paper's 12, so work-based metrics carry the
/// algorithmic comparison; see DESIGN.md §3.4).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkStats {
    /// Posting-list entries traversed (sequential accesses).
    pub postings_scanned: u64,
    /// Secondary-index lookups (RA family only).
    pub random_accesses: u64,
    /// Successful heap insertions/updates.
    pub heap_updates: u64,
    /// Peak size of the candidate document map (docMap / accumulator
    /// table); the paper's memory-footprint argument (§6) shows up here.
    pub docmap_peak: u64,
    /// Cleaner passes executed (Sparta only).
    pub cleaner_passes: u64,
    /// Jobs whose closure panicked; the panic was caught by the job
    /// queue and the query still completed (see `JobQueue::run_job`).
    /// Nonzero only under fault injection or when something is wrong.
    pub jobs_panicked: u64,
    /// Continuation steps that recycled their job box instead of
    /// allocating a fresh one (see `sparta_exec::CyclicJob`) — each is
    /// one avoided heap allocation on the traversal hot path.
    pub jobs_recycled: u64,
    /// Size of the candidate map when the search stopped. For an exact
    /// Sparta run this equals `hits.len()` — the Eq. 2 termination
    /// condition `|docMap| == |docHeap|` — which tests assert across
    /// schedules.
    pub docmap_final: u64,
    /// Number of times the search stopped due to the Δ time budget
    /// rather than its exactness condition (0 or 1, or one per shard
    /// for sNRA; approximate variants only).
    pub timeout_stops: u64,
    /// Block-max skip decisions taken by doc-order traversal (BMW
    /// family): each is one aligned block group jumped over without
    /// scoring. On the compressed backend a skipped block is also a
    /// block never decoded.
    pub blocks_skipped: u64,
    /// Compressed posting blocks decoded while serving this query
    /// (compressed backend only; folded in from the index's
    /// [`sparta_index::IoStats`] by the measurement layer).
    pub blocks_decoded: u64,
    /// Compressed bytes moved through the block decoder — the
    /// bytes-moved companion to `postings_scanned` (compressed backend
    /// only).
    pub compressed_bytes: u64,
}

impl WorkStats {
    /// Folds another query's work into this one: counters add
    /// (saturating, so fault-injection storms cannot overflow) and
    /// `docmap_peak` takes the maximum. Both operations are
    /// associative and commutative, so aggregating a batch of queries
    /// gives the same totals in any grouping or order.
    pub fn merge(&mut self, other: &WorkStats) {
        self.postings_scanned = self.postings_scanned.saturating_add(other.postings_scanned);
        self.random_accesses = self.random_accesses.saturating_add(other.random_accesses);
        self.heap_updates = self.heap_updates.saturating_add(other.heap_updates);
        self.docmap_peak = self.docmap_peak.max(other.docmap_peak);
        self.cleaner_passes = self.cleaner_passes.saturating_add(other.cleaner_passes);
        self.jobs_panicked = self.jobs_panicked.saturating_add(other.jobs_panicked);
        self.jobs_recycled = self.jobs_recycled.saturating_add(other.jobs_recycled);
        self.docmap_final = self.docmap_final.saturating_add(other.docmap_final);
        self.timeout_stops = self.timeout_stops.saturating_add(other.timeout_stops);
        self.blocks_skipped = self.blocks_skipped.saturating_add(other.blocks_skipped);
        self.blocks_decoded = self.blocks_decoded.saturating_add(other.blocks_decoded);
        self.compressed_bytes = self.compressed_bytes.saturating_add(other.compressed_bytes);
    }
}

impl std::fmt::Display for WorkStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "postings={} random={} heap={} docmap_peak={} cleaner={} \
             panicked={} recycled={} docmap_final={} timeouts={} \
             blk_skip={} blk_dec={} cbytes={}",
            self.postings_scanned,
            self.random_accesses,
            self.heap_updates,
            self.docmap_peak,
            self.cleaner_passes,
            self.jobs_panicked,
            self.jobs_recycled,
            self.docmap_final,
            self.timeout_stops,
            self.blocks_skipped,
            self.blocks_decoded,
            self.compressed_bytes,
        )
    }
}

/// The outcome of one top-k search.
#[derive(Debug, Clone)]
pub struct TopKResult {
    /// Hits in rank order (descending score, ties by descending doc).
    pub hits: Vec<SearchHit>,
    /// Work counters.
    pub work: WorkStats,
    /// Heap trace, when requested via
    /// [`SearchConfig::trace`](crate::SearchConfig).
    pub trace: Option<Vec<TraceEvent>>,
}

impl TopKResult {
    /// The returned document ids in rank order.
    pub fn docs(&self) -> Vec<DocId> {
        self.hits.iter().map(|h| h.doc).collect()
    }

    /// The returned scores in rank order.
    pub fn scores(&self) -> Vec<u64> {
        self.hits.iter().map(|h| h.score).collect()
    }
}

/// Sorts hits into canonical rank order (descending score, ties by
/// descending doc id) and truncates to `k`.
pub fn finalize_hits(mut hits: Vec<SearchHit>, k: usize) -> Vec<SearchHit> {
    hits.sort_unstable_by(|a, b| b.score.cmp(&a.score).then(b.doc.cmp(&a.doc)));
    hits.truncate(k);
    hits
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finalize_orders_and_truncates() {
        let hits = vec![
            SearchHit { doc: 1, score: 10 },
            SearchHit { doc: 2, score: 30 },
            SearchHit { doc: 3, score: 30 },
            SearchHit { doc: 4, score: 5 },
        ];
        let out = finalize_hits(hits, 3);
        assert_eq!(
            out.iter().map(|h| h.doc).collect::<Vec<_>>(),
            vec![3, 2, 1],
            "score desc, tie by doc desc"
        );
    }

    #[test]
    fn accessors() {
        let r = TopKResult {
            hits: vec![SearchHit { doc: 7, score: 9 }],
            work: WorkStats::default(),
            trace: None,
        };
        assert_eq!(r.docs(), vec![7]);
        assert_eq!(r.scores(), vec![9]);
    }

    fn stats(seed: u64) -> WorkStats {
        WorkStats {
            postings_scanned: seed,
            random_accesses: seed.wrapping_mul(3),
            heap_updates: seed.wrapping_mul(5) % 97,
            docmap_peak: seed % 13,
            cleaner_passes: seed % 7,
            jobs_panicked: seed % 3,
            jobs_recycled: seed % 19,
            docmap_final: seed % 11,
            timeout_stops: seed % 2,
            blocks_skipped: seed % 23,
            blocks_decoded: seed % 29,
            compressed_bytes: seed.wrapping_mul(7) % 1013,
        }
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let (a, b, c) = (stats(17), stats(404), stats(9001));
        // (a ⊕ b) ⊕ c
        let mut left = a;
        left.merge(&b);
        left.merge(&c);
        // a ⊕ (b ⊕ c)
        let mut bc = b;
        bc.merge(&c);
        let mut right = a;
        right.merge(&bc);
        assert_eq!(left, right, "merge must be associative");
        // b ⊕ a == a ⊕ b
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba, "merge must be commutative");
    }

    #[test]
    fn merge_saturates_and_maxes_peak() {
        let mut a = WorkStats {
            postings_scanned: u64::MAX - 1,
            docmap_peak: 10,
            ..Default::default()
        };
        let b = WorkStats {
            postings_scanned: 5,
            docmap_peak: 3,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.postings_scanned, u64::MAX);
        assert_eq!(a.docmap_peak, 10, "peak is a max, not a sum");
    }

    #[test]
    fn workstats_display_names_every_counter() {
        let s = stats(42);
        let text = s.to_string();
        for key in [
            "postings=",
            "random=",
            "heap=",
            "docmap_peak=",
            "cleaner=",
            "panicked=",
            "recycled=",
            "docmap_final=",
            "timeouts=",
        ] {
            assert!(text.contains(key), "missing {key} in {text}");
        }
    }
}
