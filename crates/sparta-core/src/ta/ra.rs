//! Sequential Random-Access TA (§3.2).
//!
//! RA "computes the full score for every document it encounters" via
//! the secondary index, inserts it into the heap if it beats Θ, and
//! stops when `UBStop` (Equation 1) holds. Random access is costly by
//! design — on disk-resident indexes every lookup is an I/O request.

#![expect(
    clippy::disallowed_types,
    reason = "sequential RA's seen set: a reference baseline, off the parallel hot path"
)]

use super::UpperBounds;
use crate::config::SearchConfig;
use crate::result::{finalize_hits, SearchHit, TopKResult, WorkStats};
use crate::staleness::Staleness;
use crate::trace::TraceSink;
use crate::Algorithm;
use sparta_collections::BoundedTopK;
use sparta_corpus::types::{DocId, Query};
use sparta_exec::Executor;
use sparta_index::Index;
use std::collections::HashSet;
use std::sync::Arc;

/// Postings between Δ-timeout checks.
const DELTA_CHECK_EVERY: u64 = 1024;

/// Sequential RA as an [`Algorithm`].
#[derive(Debug, Default, Clone, Copy)]
pub struct SeqRa;

impl Algorithm for SeqRa {
    fn name(&self) -> &'static str {
        "ra"
    }

    fn search(
        &self,
        index: &Arc<dyn Index>,
        query: &Query,
        cfg: &SearchConfig,
        _exec: &dyn Executor,
    ) -> TopKResult {
        let trace = TraceSink::new(cfg.trace);
        let ra = index
            .random_access()
            .expect("RA requires an index with a secondary index");
        let m = query.terms.len();
        let mut cursors: Vec<_> = query.terms.iter().map(|&t| index.score_cursor(t)).collect();
        let mut ub = UpperBounds::new(m);
        let mut heap: BoundedTopK<DocId> = BoundedTopK::new(cfg.k);
        let mut seen: HashSet<DocId> = HashSet::new();
        let mut work = WorkStats::default();
        let staleness = Staleness::new();
        let mut since_check = 0u64;

        'outer: while !ub.all_exhausted() {
            for (i, cursor) in cursors.iter_mut().enumerate() {
                if ub.is_exhausted(i) {
                    continue;
                }
                let Some(p) = cursor.next() else {
                    ub.exhaust(i);
                    continue;
                };
                work.postings_scanned += 1;
                since_check += 1;
                ub.update(i, p.score);

                if seen.insert(p.doc) {
                    // Full scoring: one random access per *other* term
                    // (this term's score came from the posting).
                    let mut full = u64::from(p.score);
                    for (j, &t) in query.terms.iter().enumerate() {
                        if j != i {
                            full += u64::from(ra.term_score(t, p.doc));
                            work.random_accesses += 1;
                        }
                    }
                    work.docmap_peak = work.docmap_peak.max(seen.len() as u64);
                    if full > heap.threshold() && heap.offer(full, p.doc) {
                        work.heap_updates += 1;
                        staleness.stamp();
                        trace.record(p.doc, full);
                    }
                }

                // RA's stopping detection is lightweight (§5.2.2):
                // check UBStop after every posting.
                if ub.ub_stop(heap.threshold()) {
                    break 'outer;
                }
                if since_check >= DELTA_CHECK_EVERY {
                    since_check = 0;
                    if heap.is_full() && staleness.exceeds(cfg.delta) {
                        work.timeout_stops = 1;
                        break 'outer;
                    }
                }
            }
        }

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
mod tests {
    use super::*;
    use crate::oracle::Oracle;
    use sparta_exec::WorkerPool;
    use sparta_index::{InMemoryIndex, Posting};

    fn small_index() -> Arc<dyn Index> {
        let mk = |mul: u32, off: u32| -> Vec<Posting> {
            (0..50u32)
                .map(|d| Posting::new(d, (d * mul + off) % 101 + 1))
                .collect()
        };
        Arc::new(InMemoryIndex::from_term_postings(
            vec![mk(7, 3), mk(13, 11), mk(29, 5)],
            50,
        ))
    }

    #[test]
    fn exact_ra_returns_exact_scores() {
        let ix = small_index();
        let q = Query::new(vec![0, 1, 2]);
        let cfg = SearchConfig::exact(5);
        let oracle = Oracle::compute(ix.as_ref(), &q, 5);
        let r = SeqRa.search(&ix, &q, &cfg, &WorkerPool::new(1));
        assert_eq!(oracle.recall(&r.docs()), 1.0);
        // RA reports *full* scores, matching the oracle exactly.
        for h in &r.hits {
            assert_eq!(h.score, oracle.score(h.doc), "doc {}", h.doc);
        }
        assert!(r.work.random_accesses > 0);
    }

    #[test]
    fn ra_stops_early_on_skewed_lists() {
        let n = 50_000u32;
        let lists: Vec<Vec<Posting>> = (0..2)
            .map(|t| {
                (0..n)
                    .map(|d| {
                        Posting::new(
                            d,
                            if d < 5 {
                                1_000_000 - d
                            } else {
                                1 + (d + t) % 40
                            },
                        )
                    })
                    .collect()
            })
            .collect();
        let ix: Arc<dyn Index> = Arc::new(InMemoryIndex::from_term_postings(lists, u64::from(n)));
        let q = Query::new(vec![0, 1]);
        let r = SeqRa.search(&ix, &q, &SearchConfig::exact(5), &WorkerPool::new(1));
        let oracle = Oracle::compute(ix.as_ref(), &q, 5);
        assert_eq!(oracle.recall(&r.docs()), 1.0);
        assert!(
            r.work.postings_scanned < u64::from(n),
            "scanned {}",
            r.work.postings_scanned
        );
    }

    #[test]
    fn duplicate_encounters_scored_once() {
        let ix = small_index();
        let q = Query::new(vec![0, 1, 2]);
        // Every doc appears in all 3 lists; with exhaustive traversal
        // RA must perform exactly (m-1) lookups per distinct doc.
        let cfg = SearchConfig::exact(50); // k = all docs: no early stop
        let r = SeqRa.search(&ix, &q, &cfg, &WorkerPool::new(1));
        assert_eq!(r.work.random_accesses, 50 * 2);
        assert_eq!(r.hits.len(), 50);
    }
}
