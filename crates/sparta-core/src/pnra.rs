//! pNRA — the naïve shared-state parallelization of NRA (§5.2.2).
//!
//! "pNRA is a naïve shared-state parallelization of NRA that does not
//! employ Sparta's optimizations. Namely, it uses a shared document
//! map, which it does not clean, and it updates the term upper bounds
//! upon every document evaluation. As in Sparta, a dedicated task
//! checks the stopping condition."
//!
//! This is the paper's "what not to do" baseline: the shared map is
//! rebuilt by nobody, every posting invalidates the `UB` cache line,
//! and the stopping-condition task must scan the entire (huge) map to
//! evaluate Equation 2.
//!
//! What is *not* naïve is the substrate: candidates are Sparta's slab
//! records behind Sparta's lock-free table, ranked by Sparta's heap, so
//! the two algorithms pay the same per-candidate constants and differ
//! only in what the paper says they differ in.

use crate::config::SearchConfig;
use crate::result::{TopKResult, WorkStats};
use crate::sparta::candidates::{postings, until_fits, Candidates, Segment};
use crate::sparta::{SharedUb, SlabRun, SpartaHeap, UbSnapshot};
use crate::trace::TraceSink;
use crate::Algorithm;
use sparta_collections::{FastHashSet, ShardedCounter};
use sparta_corpus::types::{DocId, Query};
use sparta_exec::{CyclicJob, Executor, Job, JobQueue};
use sparta_index::{Index, ScoreCursor};
use sparta_obs::{span, Phase};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The pNRA baseline.
#[derive(Debug, Default, Clone, Copy)]
pub struct PNra;

/// Shared per-query state: Sparta's candidate substrate (DESIGN.md
/// §10) without Sparta's optimizations — the map is never replaced, so
/// it needs no `SwapCell`, and there are no term-local replicas.
struct State {
    cfg: SearchConfig,
    ub: SharedUb,
    cands: Candidates,
    heap: SpartaHeap,
    trace: TraceSink,
    postings: ShardedCounter,
    docmap_peak: AtomicU64,
    timeout_stops: AtomicU64,
}

impl State {
    #[inline]
    fn ub_stop(&self) -> bool {
        self.ub.ub_stop(self.heap.theta())
    }
}

/// One term's traversal as a recycled [`CyclicJob`] — each step is a
/// segment, fetched and resolved as Sparta's are; the same box
/// re-enqueues until the list exhausts.
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
        let i = self.i;
        if state.cands.is_done() {
            return false;
        }
        let _seg_span = span(Phase::TermProcess);
        let exhausted = self
            .seg
            .fetch(&mut *self.cursor, state.cfg.seg_size, &state.cands.table);
        let mut scanned = 0u64;
        for (p, found) in self.seg.iter() {
            if state.cands.is_done() {
                break;
            }
            scanned += 1;
            // Naïve: UB updated — and UBStop re-evaluated — on *every*
            // posting: the cache-miss storm Sparta's segment-lazy
            // updates avoid (§4.3).
            state.ub.set(i, p.score);
            let allow = !state.ub_stop();
            let Some(h) = found.or_else(|| state.cands.admit(&mut self.run, p.doc, allow)) else {
                continue;
            };
            let sum = state.cands.slab.record(h).set_score(i, p.score);
            if sum > state.heap.theta() {
                state.heap.update(&h, &state.trace);
            }
        }
        state.postings.add(scanned);
        state.cands.flush(&mut self.run);
        if exhausted {
            state.ub.exhaust(i);
        }
        !exhausted && !state.cands.is_done()
    }
}

/// The dedicated stopping-condition task: evaluates Eq. 1 and Eq. 2
/// over the whole (never-pruned) candidate set, plus the Δ timeout. A
/// recycled [`CyclicJob`]: one step per check.
struct StopChecker {
    state: Arc<State>,
    queue: Arc<JobQueue>,
    /// This check's private copy of `UB[m]`; the buffer is reused.
    bounds: UbSnapshot,
    /// This check's copy of the heap's member ids; likewise reused.
    members: FastHashSet<DocId>,
}

impl CyclicJob for StopChecker {
    fn run_step(&mut self) -> bool {
        let state = &self.state;
        if state.cands.is_done() {
            return false;
        }
        let _check_span = span(Phase::StopCheck);
        state
            .docmap_peak
            .fetch_max(state.cands.table.len() as u64, Ordering::Relaxed);
        // Equation 2: every traversed non-heap candidate has
        // UB(D) ≤ Θ. Without cleaning, this is a full scan of the
        // slab. Θ, then the members, then the bounds are read before
        // any record is (see `SharedUb::snapshot_into`).
        let mut eq2 = state.ub_stop();
        if eq2 {
            let theta = state.heap.theta();
            state.heap.members_snapshot_into(&mut self.members);
            state.ub.snapshot_into(1.0, &mut self.bounds);
            let (bounds, members) = (&self.bounds, &self.members);
            state.cands.slab.for_each_scored(|_, rec| {
                if eq2 && rec.ub(bounds) > theta && !members.contains(&rec.id()) {
                    eq2 = false;
                }
            });
        }
        let timed_out = state.heap.staleness().exceeds(state.cfg.delta);
        // Starvation guard: if this checker is the only outstanding
        // job, all traversal jobs are gone (exhausted or lost to a
        // fault); no further updates can arrive, so spinning is futile.
        let starved = self.queue.outstanding() <= 1;
        if eq2 || timed_out || starved {
            if timed_out && !eq2 {
                // The Δ budget (approximate variant) fired before Eq. 2.
                state.timeout_stops.fetch_add(1, Ordering::Relaxed);
            }
            state.cands.stop();
            false
        } else {
            true
        }
    }
}

/// Runs the query once over `cands`; the caller starts over if the run
/// was abandoned.
fn run_once(
    index: &Arc<dyn Index>,
    query: &Query,
    cfg: &SearchConfig,
    exec: &dyn Executor,
    cands: Candidates,
) -> (Arc<State>, Arc<JobQueue>) {
    let state = Arc::new(State {
        cfg: *cfg,
        ub: SharedUb::new(query.terms.len()),
        heap: SpartaHeap::new(Arc::clone(&cands.slab), cfg.k),
        cands,
        trace: TraceSink::with_clock(cfg.trace, exec.clock_mode()),
        postings: ShardedCounter::new(),
        docmap_peak: AtomicU64::new(0),
        timeout_stops: AtomicU64::new(0),
    });
    let queue = JobQueue::tagged(cfg.query_tag);
    {
        let _plan = span(Phase::Plan);
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
        queue.push(Job::cyclic(StopChecker {
            state: Arc::clone(&state),
            queue: Arc::clone(&queue),
            bounds: UbSnapshot::default(),
            members: FastHashSet::default(),
        }));
    }
    exec.run(Arc::clone(&queue));
    (state, queue)
}

impl Algorithm for PNra {
    fn name(&self) -> &'static str {
        "pnra"
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
        let run = |cands| run_once(index, query, cfg, exec, cands);
        let (m, postings) = (query.terms.len(), postings(index.as_ref(), query));
        let (state, queue) = until_fits(m, postings, index.num_docs(), run, |(s, _)| &s.cands);

        let merge = span(Phase::HeapMerge);
        let mut hits = state.heap.sorted_hits();
        hits.truncate(cfg.k);
        drop(merge);
        let docmap_final = state.cands.table.len() as u64;
        let work = WorkStats {
            postings_scanned: state.postings.get(),
            random_accesses: 0,
            heap_updates: state.heap.update_count(),
            docmap_peak: state.docmap_peak.load(Ordering::Relaxed).max(docmap_final),
            cleaner_passes: 0,
            jobs_panicked: queue.panicked() as u64,
            jobs_recycled: queue.recycled() as u64,
            docmap_final,
            timeout_stops: state.timeout_stops.load(Ordering::Relaxed),
            ..WorkStats::default()
        };
        let state = Arc::into_inner(state).expect("all jobs drained");
        TopKResult {
            hits,
            work,
            trace: state.trace.into_events(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::Oracle;
    use crate::sparta::doc_slab::RUN;
    use sparta_exec::{DeterministicExecutor, WorkerPool};
    use sparta_index::{InMemoryIndex, Posting};
    use std::time::Duration;

    fn pseudo_index(n: u32, m: usize, seed: u32) -> Arc<dyn Index> {
        let lists: Vec<Vec<Posting>> = (0..m as u32)
            .map(|t| {
                (0..n)
                    .map(|d| {
                        let x = d
                            .wrapping_mul(2654435761)
                            .wrapping_add(t * 131 + seed)
                            .wrapping_mul(2246822519);
                        Posting::new(d, x % 9_000 + 1)
                    })
                    .collect()
            })
            .collect();
        Arc::new(InMemoryIndex::from_term_postings(lists, u64::from(n)))
    }

    #[test]
    fn exact_matches_oracle() {
        for threads in [1, 4] {
            let ix = pseudo_index(3000, 3, 5);
            let q = Query::new(vec![0, 1, 2]);
            let cfg = SearchConfig::exact(10).with_seg_size(128);
            let oracle = Oracle::compute(ix.as_ref(), &q, 10);
            let r = PNra.search(&ix, &q, &cfg, &WorkerPool::new(threads));
            assert_eq!(oracle.recall(&r.docs()), 1.0, "threads={threads}");
        }
    }

    #[test]
    fn docmap_never_shrinks() {
        // pNRA's map only grows: its peak equals its final size and
        // far exceeds k (Sparta's cleaner would have pruned it to k;
        // exact peak comparisons across the two algorithms depend on
        // scheduling, so only the growth property is asserted).
        let ix = pseudo_index(5000, 4, 6);
        let q = Query::new(vec![0, 1, 2, 3]);
        let cfg = SearchConfig::exact(10).with_seg_size(128).with_phi(512);
        let naive = PNra.search(&ix, &q, &cfg, &WorkerPool::new(4));
        assert!(
            naive.work.docmap_peak > 50 * 10,
            "pNRA peak {} suspiciously small",
            naive.work.docmap_peak
        );
    }

    #[test]
    fn fewer_matches_than_k() {
        let t0 = vec![Posting::new(2, 8), Posting::new(9, 3)];
        let ix: Arc<dyn Index> = Arc::new(InMemoryIndex::from_term_postings(vec![t0], 16));
        let q = Query::new(vec![0]);
        let r = PNra.search(&ix, &q, &SearchConfig::exact(4), &WorkerPool::new(2));
        assert_eq!(r.docs(), vec![2, 9]);
    }

    /// A stop the Δ budget caused (Δ = 0: the first check, long before
    /// Eq. 2) is reported as one.
    #[test]
    fn reports_delta_stop() {
        let ix = pseudo_index(3000, 3, 8);
        let q = Query::new(vec![0, 1, 2]);
        let cfg = SearchConfig::exact(10)
            .with_seg_size(64)
            .with_delta(Some(Duration::ZERO));
        for seed in 0..8 {
            let r = PNra.search(&ix, &q, &cfg, &DeterministicExecutor::new(seed));
            assert_eq!(r.work.timeout_stops, 1, "seed {seed}");
        }
        let exact = cfg.with_delta(None);
        let r = PNra.search(&ix, &q, &exact, &DeterministicExecutor::new(0));
        assert_eq!(r.work.timeout_stops, 0, "an Eq. 2 stop is not a Δ stop");
    }

    /// A candidate costs a slab record, never an allocation of its own:
    /// the query's slab allocates one block per geometric step.
    #[test]
    fn candidates_cost_slab_blocks_only() {
        let ix = pseudo_index(5000, 4, 6);
        let q = Query::new(vec![0, 1, 2, 3]);
        let cfg = SearchConfig::exact(10).with_seg_size(128);
        let cands = Candidates::new(4, 5000, ix.num_docs());
        let (state, _queue) = run_once(&ix, &q, &cfg, &WorkerPool::new(4), cands);
        let candidates = state.cands.table.len();
        assert!(candidates > 50 * 10, "only {candidates} candidates");
        // Lost admission races re-stage the same record, so a list
        // wastes at most its last run's tail.
        let reserved = state.cands.slab.reserved();
        assert!(
            reserved <= candidates + 4 * RUN,
            "{reserved} for {candidates}"
        );
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
