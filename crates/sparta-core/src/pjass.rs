//! pJASS (Mackenzie, Scholer & Culpepper, ADCS'17): parallel
//! score-at-a-time retrieval (§5.2.1).
//!
//! "It traverses all posting lists in parallel, in score order, and
//! accumulates the encountered scores per-document in docMap. Each
//! document is protected by a lock, and a thread that encounters a
//! document locks it, adds the partial score from the term it
//! traversed, and then unlocks it. The algorithm stops after scanning
//! a predefined fraction, p, of postings."
//!
//! We realize "per-document lock" as an atomic accumulator: a document's
//! running sum is one word of its record in the query's `DocSlab`
//! (Sparta's and pNRA's substrate, `sparta::candidates`), reached
//! through one lock-free `DocTable` — the same granularity, with no
//! mutex and no allocation per document. The map is intentionally
//! never pruned (the paper contrasts pJASS's "huge in-memory document
//! map" with Sparta's cleaning, §6).

use crate::config::SearchConfig;
use crate::jass::posting_budget;
use crate::result::{finalize_hits, SearchHit, TopKResult, WorkStats};
use crate::shared_heap::SharedHeap;
use crate::sparta::candidates::{postings, until_fits, Candidates, Segment};
use crate::sparta::SlabRun;
use crate::trace::TraceSink;
use crate::Algorithm;
use sparta_collections::BoundedTopK;
use sparta_corpus::types::Query;
use sparta_exec::{CyclicJob, Executor, Job, JobQueue};
use sparta_index::{Index, ScoreCursor};
use sparta_obs::{Phase, QueryTrace};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The pJASS baseline.
#[derive(Debug, Default, Clone, Copy)]
pub struct PJass;

struct State {
    cfg: SearchConfig,
    /// One record per accumulated document; its `sum` is the
    /// accumulator.
    cands: Candidates,
    /// Postings scanned, reported once per segment. A count: it
    /// publishes nothing (Relaxed); the stop it triggers travels
    /// through the run's `done` ([`Candidates::stop`]).
    scanned: AtomicU64,
    budget: u64,
    trace: TraceSink,
    spans: QueryTrace,
    /// Trace-only instrumentation: a small heap fed by accumulator
    /// updates so recall dynamics can be replayed. pJASS itself builds
    /// its heap only at the end; this exists only when tracing.
    trace_heap: Option<SharedHeap>,
}

/// One term's traversal as a recycled [`CyclicJob`] — each step is a
/// segment, fetched and resolved as Sparta's are; the same box
/// re-enqueues until the list exhausts or the budget is spent.
struct SegmentJob {
    state: Arc<State>,
    i: usize,
    cursor: Box<dyn ScoreCursor>,
    seg: Segment,
    /// Slab record indices reserved for this list's admissions.
    run: SlabRun,
}

impl CyclicJob for SegmentJob {
    fn run_step(&mut self) -> bool {
        let state = &self.state;
        if state.cands.is_done() {
            return false;
        }
        let _seg_span = state.spans.span(Phase::TermProcess);
        // The segment is capped at what is left of the budget, so one
        // worker at a time stops on the budget's exact posting and T
        // workers overshoot it by less than T segments.
        let before = state.scanned.load(Ordering::Relaxed);
        let limit = state
            .budget
            .saturating_sub(before)
            .min(state.cfg.seg_size as u64) as usize;
        let exhausted = self
            .seg
            .fetch(&mut *self.cursor, limit, |d| state.cands.find(d));
        let mut scanned = 0u64;
        for (p, found) in self.seg.iter() {
            if state.cands.is_done() {
                break;
            }
            scanned += 1;
            // Always allowed, so `None` means the run was abandoned.
            let Some(h) = found.or_else(|| state.cands.admit(&mut self.run, p.doc, true)) else {
                break;
            };
            let new_total = state.cands.slab.record(h).set_score(self.i, p.score);
            if let Some(th) = &state.trace_heap {
                th.offer(new_total, p.doc, &state.trace);
            }
        }
        state.cands.flush(&mut self.run);
        if state.scanned.fetch_add(scanned, Ordering::Relaxed) + scanned >= state.budget {
            state.cands.stop();
        }
        !exhausted && !state.cands.is_done()
    }
}

/// Runs the query once over `cands`; the caller starts over if the run
/// was abandoned.
fn run_once(
    index: &Arc<dyn Index>,
    query: &Query,
    cfg: &SearchConfig,
    exec: &dyn Executor,
    budget: u64,
    cands: Candidates,
) -> (Arc<State>, Arc<JobQueue>) {
    let state = Arc::new(State {
        cfg: *cfg,
        cands,
        scanned: AtomicU64::new(0),
        budget,
        trace: TraceSink::with_clock(cfg.trace, cfg.clock),
        spans: QueryTrace::new(cfg.spans, cfg.clock),
        trace_heap: cfg.trace.then(|| SharedHeap::new(cfg.k.max(1))),
    });
    let queue = JobQueue::tagged(cfg.query_tag);
    {
        let _plan = state.spans.span(Phase::Plan);
        for (i, &t) in query.terms.iter().enumerate() {
            let cursor = index.score_cursor(t);
            queue.push(Job::cyclic(SegmentJob {
                state: Arc::clone(&state),
                i,
                seg: Segment::new(cursor.as_ref(), cfg.seg_size),
                cursor,
                run: SlabRun::default(),
            }));
        }
    }
    exec.run(Arc::clone(&queue));
    (state, queue)
}

impl Algorithm for PJass {
    fn name(&self) -> &'static str {
        "pjass"
    }

    fn search(
        &self,
        index: &Arc<dyn Index>,
        query: &Query,
        cfg: &SearchConfig,
        exec: &dyn Executor,
    ) -> TopKResult {
        let postings = postings(index.as_ref(), query);
        let budget = posting_budget(postings, cfg.jass_p);
        let run = |cands| run_once(index, query, cfg, exec, budget, cands);
        let m = query.terms.len();
        let (state, queue) = until_fits(m, postings, index.num_docs(), run, |(s, _)| &s.cands);

        // Final selection over the accumulators.
        let merge_span = state.spans.span(Phase::HeapMerge);
        let mut heap = BoundedTopK::new(cfg.k.max(1));
        state.cands.slab.for_each_scored(|_, rec| {
            heap.offer(rec.current_sum(), rec.id());
        });
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
        drop(merge_span);
        let accumulators = state.cands.table.len() as u64;
        let work = WorkStats {
            postings_scanned: state.scanned.load(Ordering::Relaxed),
            random_accesses: 0,
            heap_updates: hits.len() as u64,
            docmap_peak: accumulators,
            cleaner_passes: 0,
            jobs_panicked: queue.panicked() as u64,
            jobs_recycled: queue.recycled() as u64,
            docmap_final: accumulators,
            timeout_stops: 0,
            ..WorkStats::default()
        };
        let state = Arc::into_inner(state).expect("all jobs drained");
        TopKResult {
            hits,
            work,
            trace: state.trace.into_events(),
            spans: state.spans.into_spans(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jass::Jass;
    use crate::oracle::Oracle;
    use crate::sparta::doc_slab::RUN;
    use sparta_exec::{DeterministicExecutor, WorkerPool};
    use sparta_index::{InMemoryIndex, Posting};

    fn pseudo_index(n: u32, m: usize, seed: u32) -> Arc<dyn Index> {
        let lists: Vec<Vec<Posting>> = (0..m as u32)
            .map(|t| {
                (0..n)
                    .map(|d| {
                        let x = d
                            .wrapping_mul(2654435761)
                            .wrapping_add(t * 53 + seed)
                            .wrapping_mul(2246822519);
                        Posting::new(d, x % 4_000 + 1)
                    })
                    .collect()
            })
            .collect();
        Arc::new(InMemoryIndex::from_term_postings(lists, u64::from(n)))
    }

    #[test]
    fn exact_pjass_matches_oracle() {
        for threads in [1usize, 4] {
            let ix = pseudo_index(3000, 3, 1);
            let q = Query::new(vec![0, 1, 2]);
            let oracle = Oracle::compute(ix.as_ref(), &q, 10);
            let r = PJass.search(&ix, &q, &SearchConfig::exact(10), &WorkerPool::new(threads));
            assert_eq!(oracle.recall(&r.docs()), 1.0, "threads={threads}");
        }
    }

    #[test]
    fn p_budget_is_respected() {
        let ix = pseudo_index(10_000, 3, 2);
        let q = Query::new(vec![0, 1, 2]);
        let cfg = SearchConfig::exact(10).with_jass_p(0.1).with_seg_size(64);
        let r = PJass.search(&ix, &q, &cfg, &WorkerPool::new(3));
        let budget = 3000;
        assert!(
            r.work.postings_scanned >= budget && r.work.postings_scanned < budget + 3 * 64,
            "scanned {} for budget {budget}",
            r.work.postings_scanned
        );
    }

    #[test]
    fn exact_matches_sequential_jass_scores() {
        let ix = pseudo_index(2000, 3, 3);
        let q = Query::new(vec![0, 1, 2]);
        let cfg = SearchConfig::exact(20);
        let seq = Jass.search(&ix, &q, &cfg, &WorkerPool::new(1));
        let par = PJass.search(&ix, &q, &cfg, &WorkerPool::new(4));
        assert_eq!(seq.scores(), par.scores());
    }

    #[test]
    fn accumulators_never_pruned() {
        let ix = pseudo_index(4000, 3, 4);
        let q = Query::new(vec![0, 1, 2]);
        let r = PJass.search(&ix, &q, &SearchConfig::exact(10), &WorkerPool::new(2));
        assert_eq!(r.work.docmap_peak, 4000, "every doc accumulated");
    }

    #[test]
    fn trace_mode_records_events() {
        let ix = pseudo_index(1000, 2, 5);
        let q = Query::new(vec![0, 1]);
        let cfg = SearchConfig::exact(10).with_trace(true);
        let r = PJass.search(&ix, &q, &cfg, &WorkerPool::new(2));
        assert!(r.trace.unwrap().len() >= 10);
    }

    /// One worker at a time stops on the budget's exact posting.
    #[test]
    fn stops_on_the_exact_budget() {
        let ix = pseudo_index(3000, 3, 8);
        let q = Query::new(vec![0, 1, 2]);
        let cfg = SearchConfig::exact(10).with_seg_size(64).with_jass_p(0.1);
        for seed in 0..8 {
            let r = PJass.search(&ix, &q, &cfg, &DeterministicExecutor::new(seed));
            assert_eq!(r.work.postings_scanned, 900, "seed {seed}");
        }
    }

    /// An accumulator costs a slab record, never an allocation of its
    /// own: the query's slab allocates one block per geometric step.
    #[test]
    fn accumulators_cost_slab_blocks_only() {
        let ix = pseudo_index(5000, 4, 6);
        let q = Query::new(vec![0, 1, 2, 3]);
        let cfg = SearchConfig::exact(10).with_seg_size(128);
        let exec = WorkerPool::new(4);
        let cands = Candidates::new(4, 5000);
        let (state, _queue) = run_once(&ix, &q, &cfg, &exec, u64::MAX, cands);
        assert_eq!(state.cands.table.len(), 5000);
        // Lost admission races re-stage the same record, so a list
        // wastes at most its last run's tail.
        let reserved = state.cands.slab.reserved();
        assert!(reserved <= 5000 + 4 * RUN, "{reserved} for 5000");
        // Blocks hold 256, 512, 1024, … records.
        let blocks_needed = (reserved.div_ceil(256) + 1)
            .next_power_of_two()
            .trailing_zeros() as usize;
        assert!(
            state.cands.slab.blocks_allocated() <= blocks_needed,
            "{} blocks for {reserved} records",
            state.cands.slab.blocks_allocated()
        );
    }
}
