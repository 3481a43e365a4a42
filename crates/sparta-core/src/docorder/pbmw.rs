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

use crate::config::SearchConfig;
use crate::result::{finalize_hits, SearchHit, TopKResult, WorkStats};
use crate::trace::TraceSink;
use crate::Algorithm;
use parking_lot::Mutex;
use sparta_collections::BoundedTopK;
use sparta_corpus::types::{DocId, Query};
use sparta_exec::{Executor, JobQueue};
use sparta_index::{DocCursor, Index};
use sparta_obs::{span, Phase};
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
            };
        }
        let shared = Arc::new(Shared {
            theta: AtomicU64::new(0),
            merged: Mutex::new(BoundedTopK::new(cfg.k.max(1))),
            work: Mutex::new(WorkStats::default()),
            trace: TraceSink::with_clock(cfg.trace, exec.clock_mode()),
        });
        // Twice as many equal ranges as workers (§5.2.1) — "this
        // partition results in well-balanced executions".
        let jobs = (2 * exec.parallelism()).max(1) as u64;
        let n = index.num_docs().max(1);
        let queue = JobQueue::tagged(cfg.query_tag);
        let cfg = *cfg;
        let plan = span(Phase::Plan);
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
                let _span = span(Phase::RangeScan);
                run_range(&shared, &index, &terms, &cfg, lo, hi);
            }));
        }
        drop(plan);
        exec.run(queue);

        let merge_span = span(Phase::HeapMerge);
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
    bmw_range(
        &mut cursors,
        hi,
        &mut local,
        cfg.bmw_f,
        &|| shared.theta.load(Ordering::Acquire),
        &mut work,
        &shared.trace,
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

/// Block-Max WAND (Ding & Suel, SIGIR'11) over pre-opened doc cursors,
/// bounded to docs `< limit` (up to 2^32, hence `u64`): WAND's pivot
/// selection over list-wide bounds, then "block-level statistics to
/// prune the search" (§5.2.1). `f ≥ 1` relaxes pruning for the
/// approximate variant (bounds must exceed `Θ·f`).
///
/// `theta_floor` supplies an external lower bound on the k-th score
/// (the promoted global Θ); a closure returning 0 adds none. pBMW runs
/// this once per range job; one call over `[0, num_docs)` with a zero
/// floor is sequential BMW.
pub fn bmw_range(
    cursors: &mut [Box<dyn DocCursor>],
    limit: u64,
    heap: &mut BoundedTopK<DocId>,
    f: f64,
    theta_floor: &dyn Fn() -> u64,
    work: &mut WorkStats,
    trace: &TraceSink,
) {
    let m = cursors.len();
    let mut order: Vec<usize> = (0..m).collect();
    loop {
        super::sort_by_doc(&mut order, cursors);
        let theta = heap.threshold().max(theta_floor());
        let pruned = (theta as f64 * f) as u64;
        let Some(pivot_pos) = super::find_pivot(&order, cursors, pruned) else {
            return;
        };
        let pivot_doc = cursors[order[pivot_pos]]
            .doc()
            .expect("pivot cursor non-exhausted");
        if u64::from(pivot_doc) >= limit {
            return;
        }

        // The block-max check: the *block-level* bounds of every list
        // that can contribute to the pivot document must also beat the
        // threshold. Lists beyond the pivot position that are parked on
        // the same document contribute real score, so they are included
        // (`last_pos`); omitting them would under-estimate the pivot's
        // potential and skip true hits.
        let mut last_pos = pivot_pos;
        while last_pos + 1 < m && cursors[order[last_pos + 1]].doc() == Some(pivot_doc) {
            last_pos += 1;
        }
        let mut block_sum = 0u64;
        let mut min_block_last = DocId::MAX;
        for &i in &order[..=last_pos] {
            if let Some((last, bmax)) = cursors[i].block_at(pivot_doc) {
                block_sum += u64::from(bmax);
                min_block_last = min_block_last.min(last);
            }
        }
        if block_sum <= pruned {
            // The aligned blocks cannot produce a winner: jump to the
            // first doc past the shallowest block boundary (bounded by
            // the next list's head).
            work.blocks_skipped += 1;
            let mut next = u64::from(min_block_last) + 1;
            if last_pos + 1 < m {
                if let Some(d) = cursors[order[last_pos + 1]].doc() {
                    next = next.min(u64::from(d));
                }
            }
            let next = next.max(u64::from(pivot_doc) + 1);
            if next >= limit {
                // Every list is at or past `next` once these move.
                return;
            }
            let next = next as DocId;
            for &i in &order[..=last_pos] {
                if cursors[i].doc().is_some_and(|d| d < next) {
                    cursors[i].seek(next);
                }
            }
            continue;
        }

        if cursors[order[0]].doc() == Some(pivot_doc) {
            // All lists up to the pivot are aligned: fully score the
            // pivot document.
            let mut score = 0u64;
            for cursor in cursors.iter_mut() {
                if cursor.doc() == Some(pivot_doc) {
                    score += u64::from(cursor.score());
                    cursor.advance();
                    work.postings_scanned += 1;
                }
            }
            if score > theta && heap.offer(score, pivot_doc) {
                work.heap_updates += 1;
                trace.record(pivot_doc, score);
            }
        } else {
            // Advance one of the leading lists up to the pivot; pick
            // the one with the largest upper bound (it skips the most).
            let lead = order[..pivot_pos]
                .iter()
                .copied()
                .filter(|&i| cursors[i].doc().is_some_and(|d| d < pivot_doc))
                .max_by_key(|&i| cursors[i].max_score())
                .expect("unaligned pivot implies a lagging cursor");
            cursors[lead].seek(pivot_doc);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::Oracle;
    use sparta_exec::WorkerPool;
    use sparta_index::{InMemoryIndex, Posting};

    fn pseudo_index(n: u32, m: usize, seed: u32) -> Arc<dyn Index> {
        let lists: Vec<Vec<Posting>> = (0..m as u32)
            .map(|t| {
                (0..n)
                    .filter(|d| (d.wrapping_mul(97).wrapping_add(t)) % 3 != 0)
                    .map(|d| {
                        let x = d
                            .wrapping_mul(2654435761)
                            .wrapping_add(t * 61 + seed)
                            .wrapping_mul(2246822519);
                        // Heavy-tailed scores (like tf-idf): ~1% of
                        // postings score an order of magnitude higher.
                        let r = x % 1000;
                        let score = if r >= 990 { 10_000 + x % 5_000 } else { 1 + r };
                        Posting::new(d, score)
                    })
                    .collect()
            })
            .collect();
        Arc::new(InMemoryIndex::from_term_postings(lists, u64::from(n)))
    }

    /// An index whose per-document quality is correlated across terms
    /// (as in real corpora, where relevant documents score high for
    /// several query terms). WAND-style pruning needs Θ to exceed
    /// partial sums of list maxima, which requires such correlation.
    fn correlated_index(n: u32, m: usize, seed: u32) -> Arc<dyn Index> {
        let lists: Vec<Vec<Posting>> = (0..m as u32)
            .map(|t| {
                (0..n)
                    // Sparse lists (~40% density, different docs per
                    // term): skipping requires that low-quality docs
                    // appear in few lists.
                    .filter(|d| d.wrapping_mul(2246822519).wrapping_add(t * 977) % 5 < 2)
                    .map(|d| {
                        let base = d.wrapping_mul(2654435761).wrapping_add(seed) % 500;
                        let noise = d
                            .wrapping_mul(2246822519)
                            .wrapping_add(t * 7919)
                            .wrapping_mul(3266489917)
                            % 100;
                        Posting::new(d, 1 + base + noise)
                    })
                    .collect()
            })
            .collect();
        Arc::new(InMemoryIndex::from_term_postings(lists, u64::from(n)))
    }

    /// One range scan over the whole corpus, `[0, num_docs)`, with no
    /// Θ floor: the block-max engine on its own.
    fn full_scan(ix: &Arc<dyn Index>, q: &Query, k: usize, f: f64) -> TopKResult {
        let mut cursors: Vec<_> = q.terms.iter().map(|&t| ix.doc_cursor(t)).collect();
        let mut heap = BoundedTopK::new(k);
        let mut work = WorkStats::default();
        let trace = TraceSink::new(false);
        bmw_range(
            &mut cursors,
            ix.num_docs(),
            &mut heap,
            f,
            &|| 0,
            &mut work,
            &trace,
        );
        let hits = heap
            .into_sorted_vec()
            .into_iter()
            .map(|e| SearchHit {
                doc: e.item,
                score: e.score,
            })
            .collect();
        TopKResult {
            hits: finalize_hits(hits, k),
            work,
            trace: None,
        }
    }

    #[test]
    fn exact_range_scan_matches_oracle() {
        for seed in [1u32, 7, 42] {
            let ix = pseudo_index(4000, 3, seed);
            let q = Query::new(vec![0, 1, 2]);
            let oracle = Oracle::compute(ix.as_ref(), &q, 10);
            let r = full_scan(&ix, &q, 10, 1.0);
            assert_eq!(oracle.recall(&r.docs()), 1.0, "seed {seed}");
            for h in &r.hits {
                assert_eq!(h.score, oracle.score(h.doc), "seed {seed}: full scores");
            }
        }
    }

    #[test]
    fn range_scan_scores_fewer_postings_than_exhaustive() {
        let ix = correlated_index(50_000, 3, 4);
        let q = Query::new(vec![0, 1, 2]);
        let r = full_scan(&ix, &q, 10, 1.0);
        let total: u64 = (0..3u32).map(|t| ix.doc_freq(t)).sum();
        assert!(
            r.work.postings_scanned < total / 2,
            "scored {} of {total}",
            r.work.postings_scanned
        );
        let oracle = Oracle::compute(ix.as_ref(), &q, 10);
        assert_eq!(oracle.recall(&r.docs()), 1.0);
    }

    #[test]
    fn disjoint_lists_are_unioned() {
        // Documents appearing in a single list must still be scored
        // (top-k is disjunctive, not conjunctive).
        let t0 = vec![Posting::new(1, 100)];
        let t1 = vec![Posting::new(2, 90)];
        let ix: Arc<dyn Index> = Arc::new(InMemoryIndex::from_term_postings(vec![t0, t1], 5));
        let q = Query::new(vec![0, 1]);
        assert_eq!(full_scan(&ix, &q, 2, 1.0).docs(), vec![1, 2]);
        let r = PBmw.search(&ix, &q, &SearchConfig::exact(2), &WorkerPool::new(2));
        assert_eq!(r.docs(), vec![1, 2]);
    }

    #[test]
    fn relaxed_f_prunes_more() {
        let ix = pseudo_index(30_000, 3, 5);
        let q = Query::new(vec![0, 1, 2]);
        let exact = full_scan(&ix, &q, 100, 1.0);
        let relaxed = full_scan(&ix, &q, 100, 5.0);
        assert!(relaxed.work.postings_scanned < exact.work.postings_scanned);
    }

    #[test]
    fn approximate_f_trades_recall_for_speed() {
        let ix = correlated_index(50_000, 4, 11);
        let q = Query::new(vec![0, 1, 2, 3]);
        let oracle = Oracle::compute(ix.as_ref(), &q, 100);
        let exact = full_scan(&ix, &q, 100, 1.0);
        let high = full_scan(&ix, &q, 100, 1.1);
        let low = full_scan(&ix, &q, 100, 1.5);
        assert_eq!(oracle.recall(&exact.docs()), 1.0);
        // Larger f ⇒ more pruning ⇒ fewer scored postings, lower or
        // equal recall — the paper's high/low trade-off. (The f values
        // achieving a given recall are corpus-dependent; the paper's
        // f = 5/10 on ClueWeb correspond to much smaller factors on
        // this small synthetic index, where Θ saturates quickly.)
        assert!(high.work.postings_scanned <= exact.work.postings_scanned);
        assert!(low.work.postings_scanned <= high.work.postings_scanned);
        let (rh, rl) = (oracle.recall(&high.docs()), oracle.recall(&low.docs()));
        assert!(rh >= rl, "f=1.1 recall {rh} < f=1.5 recall {rl}");
        assert!(rl < 1.0, "f=1.5 should actually approximate");
        // Absolute recall at a given f is corpus-dependent (this
        // synthetic index has a compressed top-score band, so even
        // small f cuts deep); only the trade-off direction is asserted.
    }

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
    fn matches_the_single_range_scan() {
        let ix = pseudo_index(10_000, 4, 8);
        let q = Query::new(vec![0, 1, 2, 3]);
        let seq = full_scan(&ix, &q, 20, 1.0);
        let par = PBmw.search(&ix, &q, &SearchConfig::exact(20), &WorkerPool::new(4));
        // Same score multiset (doc ties may differ at the boundary).
        assert_eq!(seq.scores(), par.scores());
    }

    #[test]
    fn range_jobs_cover_whole_corpus() {
        // A top doc in the last range must be found.
        let n = 10_000u32;
        let lists = vec![(0..n)
            .map(|d| Posting::new(d, if d == n - 1 { 9999 } else { 1 + d % 7 }))
            .collect()];
        let ix: Arc<dyn Index> = Arc::new(InMemoryIndex::from_term_postings(lists, u64::from(n)));
        let q = Query::new(vec![0]);
        let r = PBmw.search(&ix, &q, &SearchConfig::exact(1), &WorkerPool::new(3));
        assert_eq!(r.docs(), vec![n - 1]);
    }

    #[test]
    fn block_skips_survive_the_work_merge() {
        // Regression: run_range once merged only postings/heap counters
        // into the shared stats, so pBMW always reported
        // `blocks_skipped == 0` even while skipping. At one worker
        // pBMW's two ranges skip on this index; the counter must reach
        // the result at every worker count.
        let ix = pseudo_index(20_000, 4, 8);
        let q = Query::new(vec![0, 1, 2, 3]);
        let cfg = SearchConfig::exact(10);
        let one = PBmw.search(&ix, &q, &cfg, &WorkerPool::new(1));
        assert!(one.work.blocks_skipped > 0, "pBMW at T = 1 must skip here");
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
        // sanity-check pBMW at T = 4 does not exceed pBMW at T = 1 by
        // more than the sharding overhead factor.
        let ix = pseudo_index(50_000, 3, 10);
        let q = Query::new(vec![0, 1, 2]);
        let cfg = SearchConfig::exact(10);
        let one = PBmw.search(&ix, &q, &cfg, &WorkerPool::new(1));
        let par = PBmw.search(&ix, &q, &cfg, &WorkerPool::new(4));
        assert!(
            par.work.postings_scanned < one.work.postings_scanned * 16,
            "T=4 {} vs T=1 {}",
            par.work.postings_scanned,
            one.work.postings_scanned
        );
    }
}
