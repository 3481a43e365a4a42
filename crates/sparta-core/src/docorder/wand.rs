//! WAND (Broder et al., CIKM'03): document-order retrieval with
//! list-wide upper-bound pruning.
//!
//! At each step the cursors are ordered by current document; the
//! *pivot* is the first position where the cumulative maximum scores
//! exceed Θ. Documents before the pivot cannot beat Θ and are skipped
//! wholesale with `seek`.

use crate::config::SearchConfig;
use crate::result::{finalize_hits, SearchHit, TopKResult, WorkStats};
use crate::trace::TraceSink;
use crate::Algorithm;
use sparta_collections::BoundedTopK;
use sparta_corpus::types::{DocId, Query};
use sparta_exec::Executor;
use sparta_index::{DocCursor, Index};
use std::sync::Arc;

/// Sequential WAND.
#[derive(Debug, Default, Clone, Copy)]
pub struct Wand;

/// Runs WAND over pre-opened doc cursors, bounded to docs `< limit`
/// (`num_docs` for the full corpus: up to 2^32, hence `u64`). `f ≥ 1`
/// relaxes pruning for the approximate variant (bounds must exceed `Θ·f`).
///
/// `theta_floor` supplies an external lower bound on the k-th score
/// (pBMW's promoted global Θ); pass a closure returning 0 when unused.
#[allow(clippy::too_many_arguments)]
pub(crate) fn wand_range(
    cursors: &mut [Box<dyn DocCursor>],
    limit: u64,
    heap: &mut BoundedTopK<DocId>,
    f: f64,
    theta_floor: &dyn Fn() -> u64,
    work: &mut WorkStats,
    trace: &TraceSink,
    use_block_max: bool,
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

        if use_block_max {
            // BMW's block-max check: the *block-level* bounds of every
            // list that can contribute to the pivot document must also
            // beat the threshold. Lists beyond the pivot position that
            // are parked on the same document contribute real score,
            // so they are included (`last_pos`); omitting them would
            // under-estimate the pivot's potential and skip true hits.
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
                // The aligned blocks cannot produce a winner: jump to
                // the first doc past the shallowest block boundary
                // (bounded by the next list's head).
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

impl Algorithm for Wand {
    fn name(&self) -> &'static str {
        "wand"
    }

    fn search(
        &self,
        index: &Arc<dyn Index>,
        query: &Query,
        cfg: &SearchConfig,
        _exec: &dyn Executor,
    ) -> TopKResult {
        let trace = TraceSink::new(cfg.trace);
        let mut cursors: Vec<_> = query.terms.iter().map(|&t| index.doc_cursor(t)).collect();
        let mut heap = BoundedTopK::new(cfg.k.max(1));
        let mut work = WorkStats::default();
        wand_range(
            &mut cursors,
            index.num_docs(),
            &mut heap,
            cfg.bmw_f,
            &|| 0,
            &mut work,
            &trace,
            false,
        );
        let hits = finalize_hits(
            heap.into_sorted_vec()
                .into_iter()
                .map(|e| SearchHit {
                    doc: e.item,
                    score: e.score,
                })
                .collect(),
            cfg.k,
        );
        TopKResult {
            hits,
            work,
            trace: trace.into_events(),
            spans: None,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::oracle::Oracle;
    use sparta_exec::DedicatedExecutor;
    use sparta_index::{InMemoryIndex, Posting};

    pub(crate) fn pseudo_index(n: u32, m: usize, seed: u32) -> Arc<dyn Index> {
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

    #[test]
    fn exact_wand_matches_oracle() {
        let ix = pseudo_index(4000, 3, 3);
        let q = Query::new(vec![0, 1, 2]);
        let cfg = SearchConfig::exact(10);
        let oracle = Oracle::compute(ix.as_ref(), &q, 10);
        let r = Wand.search(&ix, &q, &cfg, &DedicatedExecutor::new(1));
        assert_eq!(oracle.recall(&r.docs()), 1.0);
        for h in &r.hits {
            assert_eq!(h.score, oracle.score(h.doc), "full scores");
        }
    }

    /// An index whose per-document quality is correlated across terms
    /// (as in real corpora, where relevant documents score high for
    /// several query terms). WAND-style pruning needs Θ to exceed
    /// partial sums of list maxima, which requires such correlation.
    pub(crate) fn correlated_index(n: u32, m: usize, seed: u32) -> Arc<dyn Index> {
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

    #[test]
    fn wand_scores_fewer_postings_than_exhaustive() {
        let ix = correlated_index(50_000, 3, 4);
        let q = Query::new(vec![0, 1, 2]);
        let r = Wand.search(
            &ix,
            &q,
            &SearchConfig::exact(10),
            &DedicatedExecutor::new(1),
        );
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
        let r = Wand.search(&ix, &q, &SearchConfig::exact(2), &DedicatedExecutor::new(1));
        assert_eq!(r.docs(), vec![1, 2]);
    }

    #[test]
    fn relaxed_f_prunes_more() {
        let ix = pseudo_index(30_000, 3, 5);
        let q = Query::new(vec![0, 1, 2]);
        let exact = Wand.search(
            &ix,
            &q,
            &SearchConfig::exact(100),
            &DedicatedExecutor::new(1),
        );
        let relaxed = Wand.search(
            &ix,
            &q,
            &SearchConfig::exact(100).with_bmw_f(5.0),
            &DedicatedExecutor::new(1),
        );
        assert!(relaxed.work.postings_scanned < exact.work.postings_scanned);
    }
}
