//! pBMW — parallel Block-Max WAND by document-space sharding (§5.2.1,
//! following Rojas, Gil-Costa & Marin).
//!
//! "The algorithm partitions the execution of the sequential BMW among
//! multiple threads. Each thread handles a distinct subset of
//! documents, and computes a local top-k result. The algorithm then
//! merges the partial results … a job defines a range of document ids
//! to scan. We set the number of jobs to be twice the number of worker
//! threads … Each thread maintains a thread-local heap … Similarly,
//! each thread T maintains a local threshold Θ_T … Θ_T is at least the
//! lowest score in the local heap, but may be higher due to the
//! progress of other threads. Thread T periodically compares Θ to its
//! local Θ_T and promotes the smaller of the two to max(Θ_T, Θ)."

use super::wand::wand_range;
use crate::config::SearchConfig;
use crate::result::{finalize_hits, SearchHit, TopKResult, WorkStats};
use crate::trace::TraceSink;
use crate::Algorithm;
use parking_lot::Mutex;
use sparta_collections::BoundedTopK;
use sparta_corpus::types::{DocId, Query};
use sparta_exec::{Executor, JobQueue};
use sparta_index::Index;
use sparta_obs::{Phase, QueryTrace};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The pBMW baseline.
#[derive(Debug, Default, Clone, Copy)]
pub struct PBmw;

struct Shared {
    /// Global Θ: the maximum of the thresholds published by any range
    /// job so far — a valid lower bound on the global k-th score.
    theta: AtomicU64,
    merged: Mutex<BoundedTopK<DocId>>,
    work: Mutex<WorkStats>,
    trace: TraceSink,
    spans: QueryTrace,
}

impl Algorithm for PBmw {
    fn name(&self) -> &'static str {
        "pbmw"
    }

    fn search(
        &self,
        index: &Arc<dyn Index>,
        query: &Query,
        cfg: &SearchConfig,
        exec: &dyn Executor,
    ) -> TopKResult {
        if query.terms.is_empty() {
            return TopKResult {
                hits: Vec::new(),
                work: WorkStats::default(),
                trace: cfg.trace.then(Vec::new),
                spans: cfg.spans.then(Vec::new),
            };
        }
        let shared = Arc::new(Shared {
            theta: AtomicU64::new(0),
            merged: Mutex::new(BoundedTopK::new(cfg.k.max(1))),
            work: Mutex::new(WorkStats::default()),
            trace: TraceSink::with_clock(cfg.trace, cfg.clock),
            spans: QueryTrace::new(cfg.spans, cfg.clock),
        });
        // Twice as many equal ranges as workers (§5.2.1) — "this
        // partition results in well-balanced executions".
        let jobs = (2 * exec.parallelism()).max(1) as u64;
        let n = index.num_docs().max(1);
        let queue = JobQueue::tagged(cfg.query_tag);
        let cfg = *cfg;
        let plan = shared.spans.span(Phase::Plan);
        for j in 0..jobs {
            // u64: the last range ends at `num_docs`, 2^32 at most.
            let (lo, hi) = (n * j / jobs, n * (j + 1) / jobs);
            if lo == hi {
                continue;
            }
            let shared = Arc::clone(&shared);
            let index = Arc::clone(index);
            let terms = query.terms.clone();
            queue.push(Box::new(move || {
                let _span = shared.spans.span(Phase::RangeScan);
                run_range(&shared, &index, &terms, &cfg, lo, hi);
            }));
        }
        drop(plan);
        exec.run(queue);

        let merge_span = shared.spans.span(Phase::HeapMerge);
        let hits = finalize_hits(
            shared
                .merged
                .lock()
                .sorted_entries()
                .iter()
                .map(|e| SearchHit {
                    doc: e.item,
                    score: e.score,
                })
                .collect(),
            cfg.k,
        );
        drop(merge_span);
        let work = *shared.work.lock();
        let shared = Arc::into_inner(shared).expect("all range jobs drained");
        TopKResult {
            hits,
            work,
            trace: shared.trace.into_events(),
            spans: shared.spans.into_spans(),
        }
    }
}

/// One range job: BMW over docs `[lo, hi)` with a thread-local heap,
/// seeded and periodically refreshed from the global Θ.
fn run_range(
    shared: &Shared,
    index: &Arc<dyn Index>,
    terms: &[u32],
    cfg: &SearchConfig,
    lo: u64,
    hi: u64,
) {
    let mut cursors: Vec<_> = terms.iter().map(|&t| index.doc_cursor(t)).collect();
    for c in cursors.iter_mut() {
        // `lo < hi ≤ num_docs ≤ 2^32`: a doc id.
        c.seek(lo as DocId);
    }
    let mut local = BoundedTopK::new(cfg.k.max(1));
    let mut work = WorkStats::default();
    // The floor closure reads the shared Θ on every pivot selection —
    // our "periodic" promotion is per-pivot, the natural granularity
    // of the WAND loop.
    wand_range(
        &mut cursors,
        hi,
        &mut local,
        cfg.bmw_f,
        &|| shared.theta.load(Ordering::Acquire),
        &mut work,
        &shared.trace,
        true,
    );
    // Publish the local threshold: Θ ← max(Θ, Θ_T).
    shared.theta.fetch_max(local.threshold(), Ordering::AcqRel);
    // Merge the local top-k into the global result.
    {
        let mut merged = shared.merged.lock();
        for e in local.sorted_entries() {
            merged.offer(e.score, e.item);
        }
        shared.theta.fetch_max(merged.threshold(), Ordering::AcqRel);
    }
    // Full-field merge: a hand-rolled two-field sum here silently
    // dropped `blocks_skipped` (and would drop every future counter).
    shared.work.lock().merge(&work);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::docorder::wand::tests::pseudo_index;
    use crate::docorder::SeqBmw;
    use crate::oracle::Oracle;
    use sparta_exec::WorkerPool;

    #[test]
    fn exact_pbmw_matches_oracle() {
        for threads in [1usize, 4] {
            let ix = pseudo_index(4000, 3, 6);
            let q = Query::new(vec![0, 1, 2]);
            let oracle = Oracle::compute(ix.as_ref(), &q, 10);
            let r = PBmw.search(&ix, &q, &SearchConfig::exact(10), &WorkerPool::new(threads));
            assert_eq!(oracle.recall(&r.docs()), 1.0, "threads={threads}");
            for h in &r.hits {
                assert_eq!(h.score, oracle.score(h.doc));
            }
        }
    }

    #[test]
    fn matches_sequential_bmw_results() {
        let ix = pseudo_index(10_000, 4, 8);
        let q = Query::new(vec![0, 1, 2, 3]);
        let cfg = SearchConfig::exact(20);
        let seq = SeqBmw.search(&ix, &q, &cfg, &WorkerPool::new(1));
        let par = PBmw.search(&ix, &q, &cfg, &WorkerPool::new(4));
        // Same score multiset (doc ties may differ at the boundary).
        assert_eq!(seq.scores(), par.scores());
    }

    #[test]
    fn range_jobs_cover_whole_corpus() {
        // A top doc in the last range must be found.
        let n = 10_000u32;
        let lists = vec![(0..n)
            .map(|d| sparta_index::Posting::new(d, if d == n - 1 { 9999 } else { 1 + d % 7 }))
            .collect()];
        let ix: Arc<dyn Index> = Arc::new(sparta_index::InMemoryIndex::from_term_postings(
            lists,
            u64::from(n),
        ));
        let q = Query::new(vec![0]);
        let r = PBmw.search(&ix, &q, &SearchConfig::exact(1), &WorkerPool::new(3));
        assert_eq!(r.docs(), vec![n - 1]);
    }

    #[test]
    fn block_skips_survive_the_work_merge() {
        // Regression: run_range once merged only postings/heap counters
        // into the shared stats, so pBMW always reported
        // `blocks_skipped == 0` even while skipping. Compare against
        // sequential BMW, which skips on this index.
        let ix = pseudo_index(20_000, 4, 8);
        let q = Query::new(vec![0, 1, 2, 3]);
        let cfg = SearchConfig::exact(10);
        let seq = SeqBmw.search(&ix, &q, &cfg, &WorkerPool::new(1));
        assert!(seq.work.blocks_skipped > 0, "seq BMW must skip here");
        for threads in [1usize, 4] {
            let par = PBmw.search(&ix, &q, &cfg, &WorkerPool::new(threads));
            assert!(
                par.work.blocks_skipped > 0,
                "pBMW dropped its skip counter (threads={threads})"
            );
        }
    }

    #[test]
    fn shared_theta_reduces_work_vs_isolated_ranges() {
        // With f=1 both are exact; the shared threshold lets later
        // ranges prune using earlier ranges' results, so the parallel
        // run never scores more than 2×-jobs-isolated would. We just
        // sanity-check pBMW does not exceed sequential BMW's scored
        // postings by more than the sharding overhead factor.
        let ix = pseudo_index(50_000, 3, 10);
        let q = Query::new(vec![0, 1, 2]);
        let cfg = SearchConfig::exact(10);
        let seq = SeqBmw.search(&ix, &q, &cfg, &WorkerPool::new(1));
        let par = PBmw.search(&ix, &q, &cfg, &WorkerPool::new(4));
        assert!(
            par.work.postings_scanned < seq.work.postings_scanned * 16,
            "par {} vs seq {}",
            par.work.postings_scanned,
            seq.work.postings_scanned
        );
    }
}
