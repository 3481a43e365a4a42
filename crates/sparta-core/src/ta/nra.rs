//! Sequential No-Random-Access TA (§3.2).
//!
//! NRA interleaves the m posting lists in score order, maintaining
//! per-candidate partial scores. The heap is ordered by document
//! *lower bounds*; the safe variant stops when (1) `UBStop` holds and
//! (2) every traversed non-heap candidate has an upper bound ≤ Θ.
//! Condition (2) is detected the way Sparta's cleaner does it: prune
//! dead candidates periodically and stop once the candidate map is the
//! same size as the heap.

use super::UpperBounds;
use crate::config::SearchConfig;
use crate::result::{finalize_hits, SearchHit, TopKResult, WorkStats};
use crate::trace::TraceSink;
use crate::Algorithm;
use sparta_collections::MutableTopK;
use sparta_corpus::types::{DocId, Query};
use sparta_exec::Executor;
use sparta_index::{Index, ScoreCursor};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// How many postings between stopping-condition / pruning sweeps.
/// Sweeps are O(|candidates|), so they are amortized over many O(1)
/// posting steps.
const SWEEP_EVERY: u64 = 4096;

/// Runs sequential NRA over pre-opened score cursors (`cursors[i]` for
/// query term i). Shared with sNRA, which calls this once per shard.
pub fn run_nra(
    mut cursors: Vec<Box<dyn ScoreCursor>>,
    cfg: &SearchConfig,
    trace: &TraceSink,
) -> (Vec<SearchHit>, WorkStats) {
    let m = cursors.len();
    let mut ub = UpperBounds::new(m);
    let mut candidates: HashMap<DocId, Vec<u32>> = HashMap::new();
    let mut heap: MutableTopK<DocId> = MutableTopK::new(cfg.k);
    let mut work = WorkStats::default();
    // lint: allow(wall-clock): sequential-baseline stall timeout (no queue to park on)
    let mut last_heap_change = Instant::now();
    let mut since_sweep = 0u64;

    'outer: loop {
        if ub.all_exhausted() {
            break;
        }
        for i in 0..m {
            if ub.is_exhausted(i) {
                continue;
            }
            let Some(p) = cursors[i].next() else {
                ub.exhaust(i);
                continue;
            };
            work.postings_scanned += 1;
            since_sweep += 1;
            ub.update(i, p.score);

            let theta = heap.threshold();
            let ub_stop = ub.ub_stop(theta);
            match candidates.get_mut(&p.doc) {
                Some(scores) => {
                    scores[i] = p.score;
                    let lb: u64 = scores.iter().map(|&s| u64::from(s)).sum();
                    if heap.offer(lb, p.doc) {
                        work.heap_updates += 1;
                        // lint: allow(wall-clock): sequential-baseline stall timeout (no queue to park on)
                        last_heap_change = Instant::now();
                        trace.record(p.doc, lb);
                    }
                }
                None if !ub_stop => {
                    // New candidate (only while new documents can
                    // still make the top-k).
                    let mut scores = vec![0u32; m];
                    scores[i] = p.score;
                    let lb = u64::from(p.score);
                    if heap.offer(lb, p.doc) {
                        work.heap_updates += 1;
                        // lint: allow(wall-clock): sequential-baseline stall timeout (no queue to park on)
                        last_heap_change = Instant::now();
                        trace.record(p.doc, lb);
                    }
                    candidates.insert(p.doc, scores);
                    work.docmap_peak = work.docmap_peak.max(candidates.len() as u64);
                }
                None => {}
            }

            if since_sweep >= SWEEP_EVERY {
                since_sweep = 0;
                if let Some(delta) = cfg.delta {
                    if heap.is_full() && last_heap_change.elapsed() >= delta {
                        break 'outer;
                    }
                }
                let theta = heap.threshold();
                if ub.ub_stop(theta) {
                    // Prune candidates that can no longer enter the
                    // heap (condition 2 bookkeeping).
                    candidates.retain(|d, scores| heap.contains(d) || ub.doc_ub(scores) > theta);
                    if candidates.len() == heap.len() {
                        break 'outer; // Equation 2 holds
                    }
                }
            }
        }
    }

    let hits = finalize_hits(
        heap.sorted()
            .into_iter()
            .map(|(score, doc)| SearchHit { doc, score })
            .collect(),
        cfg.k,
    );
    (hits, work)
}

/// Sequential NRA as an [`Algorithm`] (ignores the executor's
/// parallelism — it always runs on the calling thread).
#[derive(Debug, Default, Clone, Copy)]
pub struct SeqNra;

impl Algorithm for SeqNra {
    fn name(&self) -> &'static str {
        "nra"
    }

    fn search(
        &self,
        index: &Arc<dyn Index>,
        query: &Query,
        cfg: &SearchConfig,
        _exec: &dyn Executor,
    ) -> TopKResult {
        // lint: allow(wall-clock): end-to-end latency endpoint reported in TopKResult stats
        let start = Instant::now();
        let trace = TraceSink::new(cfg.trace);
        let cursors: Vec<_> = query.terms.iter().map(|&t| index.score_cursor(t)).collect();
        let (hits, work) = run_nra(cursors, cfg, &trace);
        TopKResult {
            hits,
            elapsed: start.elapsed(),
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

    fn small_index() -> Arc<dyn Index> {
        // 3 terms, 30 docs, deterministic scores.
        let mk = |mul: u32, off: u32| -> Vec<Posting> {
            (0..30u32)
                .map(|d| Posting::new(d, (d * mul + off) % 97 + 1))
                .collect()
        };
        Arc::new(InMemoryIndex::from_term_postings(
            vec![mk(7, 3), mk(13, 11), mk(29, 5)],
            30,
        ))
    }

    #[test]
    fn exact_nra_returns_true_topk_set() {
        let ix = small_index();
        let q = Query::new(vec![0, 1, 2]);
        let cfg = SearchConfig::exact(5);
        let oracle = Oracle::compute(ix.as_ref(), &q, 5);
        let r = SeqNra.search(&ix, &q, &cfg, &DedicatedExecutor::new(1));
        assert_eq!(r.hits.len(), 5);
        assert_eq!(oracle.recall(&r.docs()), 1.0, "docs {:?}", r.docs());
        // Lower bounds never exceed true scores.
        for h in &r.hits {
            assert!(h.score <= oracle.score(h.doc));
        }
    }

    #[test]
    fn handles_fewer_matches_than_k() {
        let t0 = vec![Posting::new(3, 10), Posting::new(7, 20)];
        let ix: Arc<dyn Index> = Arc::new(InMemoryIndex::from_term_postings(vec![t0], 10));
        let q = Query::new(vec![0]);
        let cfg = SearchConfig::exact(5);
        let r = SeqNra.search(&ix, &q, &cfg, &DedicatedExecutor::new(1));
        assert_eq!(r.docs(), vec![7, 3]);
    }

    #[test]
    fn single_term_query_is_prefix_of_list() {
        let ix = small_index();
        let q = Query::new(vec![1]);
        let cfg = SearchConfig::exact(3);
        let oracle = Oracle::compute(ix.as_ref(), &q, 3);
        let r = SeqNra.search(&ix, &q, &cfg, &DedicatedExecutor::new(1));
        assert_eq!(oracle.recall(&r.docs()), 1.0);
        // For m = 1, LB = true score.
        for h in &r.hits {
            assert_eq!(h.score, oracle.score(h.doc));
        }
    }

    #[test]
    fn early_stops_before_scanning_everything() {
        // One dominant doc per term; k=1 must stop early.
        let n = 100_000u32;
        let lists: Vec<Vec<Posting>> = (0..2)
            .map(|t| {
                (0..n)
                    .map(|d| Posting::new(d, if d == 42 { 1_000_000 } else { 1 + (d + t) % 50 }))
                    .collect()
            })
            .collect();
        let ix: Arc<dyn Index> = Arc::new(InMemoryIndex::from_term_postings(lists, u64::from(n)));
        let q = Query::new(vec![0, 1]);
        let cfg = SearchConfig::exact(1);
        let r = SeqNra.search(&ix, &q, &cfg, &DedicatedExecutor::new(1));
        assert_eq!(r.docs(), vec![42]);
        assert!(
            r.work.postings_scanned < u64::from(n), // far less than 2n total
            "scanned {} of {}",
            r.work.postings_scanned,
            2 * n
        );
    }

    #[test]
    fn trace_is_recorded_when_enabled() {
        let ix = small_index();
        let q = Query::new(vec![0, 1, 2]);
        let cfg = SearchConfig::exact(5).with_trace(true);
        let r = SeqNra.search(&ix, &q, &cfg, &DedicatedExecutor::new(1));
        let tr = r.trace.expect("trace requested");
        assert!(tr.len() as u64 >= 5);
    }
}
