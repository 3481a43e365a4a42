//! Sequential No-Random-Access TA (§3.2).
//!
//! NRA interleaves the m posting lists in score order, maintaining
//! per-candidate partial scores. The heap is ordered by document
//! *lower bounds*; the safe variant stops when (1) `UBStop` holds and
//! (2) every traversed non-heap candidate has an upper bound ≤ Θ.
//!
//! It runs on pNRA's substrate at one thread (DESIGN.md §10): a private
//! `Candidates` slab and table, admitted into only while `UBStop` is
//! false, ranked by a private [`SpartaHeap`]. Condition (2) is detected
//! the way Sparta's cleaner does it, once every `SWEEP_EVERY` postings:
//! the first sweep after `UBStop` collects the scored records, every
//! sweep keeps those that are heap members or still have `UB(D) > Θ`,
//! and the run stops once the kept set is the heap.

use super::UpperBounds;
use crate::config::SearchConfig;
use crate::result::{SearchHit, TopKResult, WorkStats};
use crate::sparta::candidates::{until_fits, Candidates};
use crate::sparta::{DocHandle, SlabRun, SpartaHeap, UbSnapshot};
use crate::trace::TraceSink;
use crate::Algorithm;
use sparta_collections::FastHashSet;
use sparta_corpus::types::Query;
use sparta_exec::Executor;
use sparta_index::{Index, ScoreCursor};
use std::sync::Arc;

/// How many postings between stopping-condition / pruning sweeps.
/// Sweeps are O(|candidates|), so they are amortized over many O(1)
/// posting steps.
const SWEEP_EVERY: u64 = 4096;

/// One run over one set of [`Candidates`].
struct Run {
    cands: Candidates,
    heap: SpartaHeap,
    work: WorkStats,
}

/// Runs sequential NRA over the score cursors `open` returns
/// (`cursors[i]` for query term i), whose doc ids are below
/// `num_docs`. Shared with sNRA, which calls this once per shard. A run
/// whose candidate table crowds starts over on freshly opened cursors.
pub fn run_nra(
    open: impl Fn() -> Vec<Box<dyn ScoreCursor>>,
    num_docs: u64,
    cfg: &SearchConfig,
    trace: &TraceSink,
) -> (Vec<SearchHit>, WorkStats) {
    let first = open();
    let m = first.len();
    let postings = first.iter().map(|c| c.len()).sum();
    let mut first = Some(first);
    let run = |cands| run_once(first.take().unwrap_or_else(&open), cands, cfg, trace);
    let Run { heap, work, .. } = until_fits(m, postings, num_docs, run, |r| &r.cands);
    let hits = heap.sorted_hits();
    // A member's growth is not a heap update, so its last traced score
    // may be partial: re-record the final sums, as Sparta does.
    for h in &hits {
        trace.record(h.doc, h.score);
    }
    (hits, work)
}

/// One NRA pass over `cursors`, admitting into `cands`; cut short if
/// an admission finds its probe window full.
fn run_once(
    mut cursors: Vec<Box<dyn ScoreCursor>>,
    cands: Candidates,
    cfg: &SearchConfig,
    trace: &TraceSink,
) -> Run {
    let m = cursors.len();
    let heap = SpartaHeap::new(Arc::clone(&cands.slab), cfg.k);
    let mut ub = UpperBounds::new(m);
    let mut run = SlabRun::default();
    let mut work = WorkStats::default();
    // Sweep scratch: the bounds and the members, refilled per sweep,
    // and from the first sweep after `UBStop` the candidates still live.
    let mut bounds = UbSnapshot::default();
    let mut members = FastHashSet::default();
    let mut live: Option<Vec<DocHandle>> = None;
    let mut since_sweep = 0u64;

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
            since_sweep += 1;
            ub.update(i, p.score);

            // New candidates only while new documents can still make
            // the top-k.
            let allow = !ub.ub_stop(heap.theta());
            match cands.admit(&mut run, p.doc, allow) {
                Some(h) => {
                    let sum = cands.slab.record(h).set_score(i, p.score);
                    if sum > heap.theta() && !heap.update(&h, trace) {
                        // A member grew, and Θ may have grown with it.
                        heap.refresh_theta();
                    }
                }
                // The table's probe window is full: `until_fits`
                // starts over with a larger one.
                None if cands.is_done() => break 'outer,
                None => {}
            }

            if since_sweep < SWEEP_EVERY {
                continue;
            }
            since_sweep = 0;
            if heap.len() == cfg.k && heap.staleness().exceeds(cfg.delta) {
                work.timeout_stops = 1;
                break 'outer;
            }
            let theta = heap.theta();
            if !ub.ub_stop(theta) {
                continue;
            }
            heap.members_snapshot_into(&mut members);
            bounds.fill((0..m).map(|j| ub.get(j)));
            let live = live.get_or_insert_with(|| {
                let mut scored = Vec::new();
                cands.slab.for_each_scored(|h, _| scored.push(h));
                scored
            });
            live.retain(|&h| {
                let rec = cands.slab.record(h);
                rec.ub(&bounds) > theta || members.contains(&rec.id())
            });
            if live.len() == heap.len() {
                break 'outer; // Equation 2 holds
            }
        }
    }

    cands.flush(&mut run);
    work.heap_updates = heap.update_count();
    // Nothing is admitted once `UBStop` holds, and nothing is removed
    // before: the table's size is the peak.
    work.docmap_peak = cands.table.len() as u64;
    Run { cands, heap, work }
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
        let trace = TraceSink::new(cfg.trace);
        let open = || query.terms.iter().map(|&t| index.score_cursor(t)).collect();
        let (hits, work) = run_nra(open, index.num_docs(), cfg, &trace);
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
        let r = SeqNra.search(&ix, &q, &cfg, &WorkerPool::new(1));
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
        let r = SeqNra.search(&ix, &q, &cfg, &WorkerPool::new(1));
        assert_eq!(r.docs(), vec![7, 3]);
    }

    #[test]
    fn single_term_query_is_prefix_of_list() {
        let ix = small_index();
        let q = Query::new(vec![1]);
        let cfg = SearchConfig::exact(3);
        let oracle = Oracle::compute(ix.as_ref(), &q, 3);
        let r = SeqNra.search(&ix, &q, &cfg, &WorkerPool::new(1));
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
        let r = SeqNra.search(&ix, &q, &cfg, &WorkerPool::new(1));
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
        let r = SeqNra.search(&ix, &q, &cfg, &WorkerPool::new(1));
        let tr = r.trace.expect("trace requested");
        assert!(tr.len() as u64 >= 5);
    }
}
