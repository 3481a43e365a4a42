//! MaxScore (Turtle & Flood 1995; Strohman et al. 2005): document-
//! order retrieval that partitions lists into *essential* and
//! *non-essential* by their maximum scores (§3.1 cites it among the
//! popular production algorithms).
//!
//! Lists are sorted by ascending max score; the longest prefix whose
//! cumulative bound is ≤ Θ is non-essential — no document found only
//! there can beat Θ. Candidates are driven from the essential lists;
//! non-essential scores are added lazily with early bailout.

use crate::config::SearchConfig;
use crate::result::{finalize_hits, SearchHit, TopKResult, WorkStats};
use crate::trace::TraceSink;
use crate::Algorithm;
use sparta_collections::BoundedTopK;
use sparta_corpus::types::{DocId, Query};
use sparta_exec::Executor;
use sparta_index::Index;
use std::sync::Arc;

/// Sequential MaxScore.
#[derive(Debug, Default, Clone, Copy)]
pub struct MaxScore;

impl Algorithm for MaxScore {
    fn name(&self) -> &'static str {
        "maxscore"
    }

    fn search(
        &self,
        index: &Arc<dyn Index>,
        query: &Query,
        cfg: &SearchConfig,
        _exec: &dyn Executor,
    ) -> TopKResult {
        let trace = TraceSink::new(cfg.trace);
        let mut work = WorkStats::default();

        // Sort lists by ascending max score; prefix_bounds[i] = sum of
        // max scores of lists 0..=i.
        let mut terms = query.terms.clone();
        terms.sort_by_key(|&t| index.max_score(t));
        let mut cursors: Vec<_> = terms.iter().map(|&t| index.doc_cursor(t)).collect();
        let m = cursors.len();
        let prefix_bounds: Vec<u64> = cursors
            .iter()
            .scan(0u64, |acc, c| {
                *acc += u64::from(c.max_score());
                Some(*acc)
            })
            .collect();

        let mut heap = BoundedTopK::new(cfg.k.max(1));
        // First essential list index: lists below it cannot, together,
        // beat Θ.
        let mut first_essential = 0usize;

        loop {
            if first_essential >= m {
                break; // every list non-essential: nothing can beat Θ
            }
            // Next candidate: the minimum current doc among essentials.
            let mut cand: Option<DocId> = None;
            for c in cursors[first_essential..].iter() {
                if let Some(d) = c.doc() {
                    cand = Some(cand.map_or(d, |x: DocId| x.min(d)));
                }
            }
            let Some(d) = cand else { break };

            // Score essentials positioned on d.
            let mut score = 0u64;
            for c in cursors[first_essential..].iter_mut() {
                if c.doc() == Some(d) {
                    score += u64::from(c.score());
                    c.advance();
                    work.postings_scanned += 1;
                }
            }
            // Add non-essential lists in descending bound order,
            // bailing out as soon as even their full bounds cannot
            // lift the document over Θ.
            let theta = heap.threshold();
            for j in (0..first_essential).rev() {
                if score + prefix_bounds[j] <= theta {
                    score = 0; // cannot make it: suppress the offer
                    break;
                }
                if cursors[j].seek(d) == Some(d) {
                    score += u64::from(cursors[j].score());
                    work.postings_scanned += 1;
                }
            }
            if score > theta && heap.offer(score, d) {
                work.heap_updates += 1;
                trace.record(d, score);
                // Θ rose: recompute the essential split.
                let theta = heap.threshold();
                first_essential = prefix_bounds.partition_point(|&b| b <= theta);
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
    use crate::docorder::wand::tests::pseudo_index;
    use crate::oracle::Oracle;
    use sparta_exec::DedicatedExecutor;

    #[test]
    fn exact_maxscore_matches_oracle() {
        for seed in [2u32, 13, 77] {
            let ix = pseudo_index(4000, 4, seed);
            let q = Query::new(vec![0, 1, 2, 3]);
            let oracle = Oracle::compute(ix.as_ref(), &q, 10);
            let r = MaxScore.search(
                &ix,
                &q,
                &SearchConfig::exact(10),
                &DedicatedExecutor::new(1),
            );
            assert_eq!(oracle.recall(&r.docs()), 1.0, "seed {seed}: {:?}", r.docs());
        }
    }

    #[test]
    fn skips_non_essential_postings() {
        // One dominant list and one weak list: once Θ exceeds the weak
        // list's max, its postings are only probed by seek.
        let ix = pseudo_index(50_000, 3, 21);
        let q = Query::new(vec![0, 1, 2]);
        let r = MaxScore.search(
            &ix,
            &q,
            &SearchConfig::exact(10),
            &DedicatedExecutor::new(1),
        );
        let total: u64 = (0..3u32).map(|t| ix.doc_freq(t)).sum();
        assert!(r.work.postings_scanned < total);
        let oracle = Oracle::compute(ix.as_ref(), &q, 10);
        assert_eq!(oracle.recall(&r.docs()), 1.0);
    }

    #[test]
    fn single_list_degenerates_to_scan_prefix() {
        let ix = pseudo_index(1000, 1, 5);
        let q = Query::new(vec![0]);
        let oracle = Oracle::compute(ix.as_ref(), &q, 7);
        let r = MaxScore.search(&ix, &q, &SearchConfig::exact(7), &DedicatedExecutor::new(1));
        assert_eq!(oracle.recall(&r.docs()), 1.0);
    }
}
