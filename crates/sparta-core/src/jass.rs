//! JASS (Lin & Trotman, ICTIR'15): sequential score-at-a-time
//! ("anytime") retrieval over impact-ordered posting lists.
//!
//! JASS "performs very little processing per-posting" (§6): it merges
//! the query's posting lists in globally decreasing score order,
//! accumulating each document's partial score in a big accumulator
//! table, and simply stops after a budgeted number of postings ("the
//! algorithm stops after scanning a predefined fraction p of
//! postings", §5.2.1; p = 1 is exact). The top-k is extracted from the
//! accumulators at the end.

#![expect(
    clippy::disallowed_types,
    reason = "sequential JASS's accumulators: a reference baseline, off the parallel hot path"
)]

use crate::config::SearchConfig;
use crate::result::{finalize_hits, SearchHit, TopKResult, WorkStats};
use crate::trace::TraceSink;
use crate::Algorithm;
use sparta_collections::BoundedTopK;
use sparta_corpus::types::{DocId, Query};
use sparta_exec::Executor;
use sparta_index::Index;
use std::collections::HashMap;
use std::sync::Arc;

/// Sequential JASS.
#[derive(Debug, Default, Clone, Copy)]
pub struct Jass;

/// Posting budget for fraction `p` over lists of total length `total`.
pub(crate) fn posting_budget(total: u64, p: f64) -> u64 {
    ((total as f64) * p).ceil() as u64
}

impl Algorithm for Jass {
    fn name(&self) -> &'static str {
        "jass"
    }

    fn search(
        &self,
        index: &Arc<dyn Index>,
        query: &Query,
        cfg: &SearchConfig,
        _exec: &dyn Executor,
    ) -> TopKResult {
        let trace = TraceSink::new(cfg.trace);
        let mut cursors: Vec<_> = query.terms.iter().map(|&t| index.score_cursor(t)).collect();
        let total: u64 = cursors.iter().map(|c| c.len()).sum();
        let budget = posting_budget(total, cfg.jass_p);

        // Heads of the m lists; always consume the highest-scoring
        // head next (global score order).
        let mut heads: Vec<Option<sparta_index::Posting>> =
            cursors.iter_mut().map(|c| c.next()).collect();
        let mut acc: HashMap<DocId, u64> = HashMap::new();
        let mut work = WorkStats::default();

        while work.postings_scanned < budget {
            // Pick the head with the maximum score (m ≤ 12: linear scan).
            let Some((i, p)) = heads
                .iter()
                .enumerate()
                .filter_map(|(i, h)| h.map(|p| (i, p)))
                .max_by_key(|&(_, p)| p.score)
            else {
                break; // all lists exhausted
            };
            heads[i] = cursors[i].next();
            work.postings_scanned += 1;
            let total_score = acc
                .entry(p.doc)
                .and_modify(|s| *s += u64::from(p.score))
                .or_insert(u64::from(p.score));
            trace.record(p.doc, *total_score);
        }
        work.docmap_peak = acc.len() as u64;

        // Extract the top-k from the accumulator table.
        let mut heap = BoundedTopK::new(cfg.k.max(1));
        for (&d, &s) in &acc {
            heap.offer(s, d);
        }
        work.heap_updates = heap.len() as u64;
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
    use sparta_exec::DedicatedExecutor;
    use sparta_index::{InMemoryIndex, Posting};

    fn pseudo_index(n: u32, m: usize, seed: u32) -> Arc<dyn Index> {
        let lists: Vec<Vec<Posting>> = (0..m as u32)
            .map(|t| {
                (0..n)
                    .map(|d| {
                        let x = d
                            .wrapping_mul(2654435761)
                            .wrapping_add(t * 41 + seed)
                            .wrapping_mul(2246822519);
                        Posting::new(d, x % 5_000 + 1)
                    })
                    .collect()
            })
            .collect();
        Arc::new(InMemoryIndex::from_term_postings(lists, u64::from(n)))
    }

    #[test]
    fn exact_jass_matches_oracle() {
        let ix = pseudo_index(3000, 3, 1);
        let q = Query::new(vec![0, 1, 2]);
        let oracle = Oracle::compute(ix.as_ref(), &q, 10);
        let r = Jass.search(
            &ix,
            &q,
            &SearchConfig::exact(10),
            &DedicatedExecutor::new(1),
        );
        assert_eq!(oracle.recall(&r.docs()), 1.0);
        for h in &r.hits {
            assert_eq!(h.score, oracle.score(h.doc), "p=1 scores are exact");
        }
        // Exact JASS scans everything — the inefficiency the paper
        // notes ("its exact variant is inefficient", §6).
        let total: u64 = (0..3u32).map(|t| ix.doc_freq(t)).sum();
        assert_eq!(r.work.postings_scanned, total);
    }

    #[test]
    fn traversal_is_globally_score_ordered() {
        // With p = tiny, only the highest-impact postings are seen.
        let t0 = vec![Posting::new(0, 100), Posting::new(1, 1)];
        let t1 = vec![Posting::new(2, 50), Posting::new(3, 2)];
        let ix: Arc<dyn Index> = Arc::new(InMemoryIndex::from_term_postings(vec![t0, t1], 5));
        let q = Query::new(vec![0, 1]);
        let cfg = SearchConfig::exact(4).with_jass_p(0.5); // budget = 2 of 4
        let r = Jass.search(&ix, &q, &cfg, &DedicatedExecutor::new(1));
        // The two highest-impact postings are (0,100) and (2,50).
        assert_eq!(r.docs(), vec![0, 2]);
    }

    #[test]
    fn fraction_p_trades_recall_for_postings() {
        let ix = pseudo_index(20_000, 3, 2);
        let q = Query::new(vec![0, 1, 2]);
        let oracle = Oracle::compute(ix.as_ref(), &q, 100);
        let approx = Jass.search(
            &ix,
            &q,
            &SearchConfig::exact(100).with_jass_p(0.05),
            &DedicatedExecutor::new(1),
        );
        assert_eq!(approx.work.postings_scanned, 3000, "5% of 60000");
        let r = oracle.recall(&approx.docs());
        assert!(r > 0.1, "some recall achieved: {r}");
    }

    #[test]
    fn accumulator_table_is_large() {
        // JASS "maintains a huge in-memory document map" (§6): its
        // accumulator count is the number of distinct docs seen.
        let ix = pseudo_index(5000, 3, 3);
        let q = Query::new(vec![0, 1, 2]);
        let r = Jass.search(
            &ix,
            &q,
            &SearchConfig::exact(10),
            &DedicatedExecutor::new(1),
        );
        assert_eq!(r.work.docmap_peak, 5000);
    }
}
