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

use crate::config::SearchConfig;
use crate::result::{TopKResult, WorkStats};
use crate::sparta::{open_cursor, DocType, SharedUb, SpartaHeap};
use crate::trace::TraceSink;
use crate::Algorithm;
use sparta_collections::{FastHashSet, ShardedCounter, StripedMap};
use sparta_corpus::types::{DocId, Query};
use sparta_exec::{CyclicJob, Executor, Job, JobQueue};
use sparta_index::{Index, ScoreCursor};
use sparta_obs::{Phase, QueryTrace};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The pNRA baseline.
#[derive(Debug, Default, Clone, Copy)]
pub struct PNra;

struct State {
    m: usize,
    cfg: SearchConfig,
    ub: SharedUb,
    heap: SpartaHeap,
    doc_map: StripedMap<DocId, Arc<DocType>>,
    done: AtomicBool,
    trace: TraceSink,
    spans: QueryTrace,
    postings: ShardedCounter,
    docmap_peak: AtomicU64,
}

impl State {
    #[inline]
    fn ub_stop(&self) -> bool {
        self.ub.ub_stop(self.heap.theta())
    }

    #[inline]
    fn is_done(&self) -> bool {
        self.done.load(Ordering::Acquire)
    }
}

/// One term's traversal as a recycled [`CyclicJob`] — each step is a
/// segment; the same box re-enqueues until the list exhausts.
struct SegmentJob {
    state: Arc<State>,
    i: usize,
    cursor: Box<dyn ScoreCursor>,
}

impl CyclicJob for SegmentJob {
    fn run_step(&mut self) -> bool {
        let state = &self.state;
        let i = self.i;
        if state.is_done() {
            return false;
        }
        let _seg_span = state.spans.span(Phase::TermProcess);
        let mut exhausted = false;
        for _ in 0..state.cfg.seg_size {
            if state.is_done() {
                return false;
            }
            let Some(p) = self.cursor.next() else {
                exhausted = true;
                break;
            };
            state.postings.incr();
            // Naïve: UB updated on *every* posting — the cache-miss
            // storm Sparta's segment-lazy updates avoid (§4.3).
            state.ub.set(i, p.score);
            let d = state
                .doc_map
                .get_or_try_insert_with(p.doc, !state.ub_stop(), || {
                    Arc::new(DocType::new(p.doc, state.m))
                });
            if let Some(d) = d {
                d.set_score(i, p.score);
                if d.current_sum() > state.heap.theta() {
                    state.heap.update(&d, &state.trace);
                }
            }
        }
        if exhausted {
            state.ub.exhaust(i);
            false
        } else {
            !state.is_done()
        }
    }
}

/// The dedicated stopping-condition task: evaluates Eq. 1 and Eq. 2
/// over the whole (never-pruned) map, plus the Δ timeout. A recycled
/// [`CyclicJob`]: one step per check.
struct StopChecker {
    state: Arc<State>,
    queue: Arc<JobQueue>,
    /// This check's copy of the heap's member ids; the buffer is reused.
    members: FastHashSet<DocId>,
}

impl CyclicJob for StopChecker {
    fn run_step(&mut self) -> bool {
        let state = &self.state;
        if state.is_done() {
            return false;
        }
        let _check_span = state.spans.span(Phase::StopCheck);
        state
            .docmap_peak
            .fetch_max(state.doc_map.len() as u64, Ordering::Relaxed);
        let timed_out = state
            .cfg
            .delta
            .is_some_and(|d| state.heap.since_last_update() >= d);
        // Starvation guard: if this checker is the only outstanding
        // job, all traversal jobs are gone (exhausted or lost to a
        // fault); no further updates can arrive, so spinning is futile.
        // See the same guard in Sparta's cleaner.
        let mut stop = timed_out || self.queue.outstanding() <= 1;
        if !stop && state.ub_stop() {
            // Equation 2: every traversed non-heap candidate has
            // UB(D) ≤ Θ. Without cleaning, this is a full scan.
            let theta = state.heap.theta();
            state.heap.members_snapshot_into(&mut self.members);
            let members = &self.members;
            let mut ok = true;
            state.doc_map.for_each(|id, d| {
                if ok && !members.contains(id) && d.ub(&state.ub) > theta {
                    ok = false;
                }
            });
            stop = ok;
        }
        if stop {
            state.done.store(true, Ordering::Release);
            false
        } else {
            true
        }
    }
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
        // lint: allow(wall-clock): end-to-end latency endpoint reported in TopKResult stats
        let start = Instant::now();
        let m = query.terms.len();
        if m == 0 {
            return TopKResult {
                hits: Vec::new(),
                elapsed: start.elapsed(),
                work: WorkStats::default(),
                trace: cfg.trace.then(Vec::new),
                spans: cfg.spans.then(Vec::new),
            };
        }
        let state = Arc::new(State {
            m,
            cfg: *cfg,
            ub: SharedUb::new(m),
            heap: SpartaHeap::new(cfg.k),
            doc_map: StripedMap::new(),
            done: AtomicBool::new(false),
            trace: TraceSink::with_clock(cfg.trace, cfg.clock),
            spans: QueryTrace::new(cfg.spans, cfg.clock),
            postings: ShardedCounter::new(),
            docmap_peak: AtomicU64::new(0),
        });
        let queue = JobQueue::new();
        {
            let _plan = state.spans.span(Phase::Plan);
            for (i, &t) in query.terms.iter().enumerate() {
                let cursor = open_cursor(index, t);
                queue.push(Job::cyclic(SegmentJob {
                    state: Arc::clone(&state),
                    i,
                    cursor,
                }));
            }
            queue.push(Job::cyclic(StopChecker {
                state: Arc::clone(&state),
                queue: Arc::clone(&queue),
                members: FastHashSet::default(),
            }));
        }
        exec.run(Arc::clone(&queue));

        let merge = state.spans.span(Phase::HeapMerge);
        let mut hits = state.heap.sorted_hits();
        hits.truncate(cfg.k);
        drop(merge);
        let work = WorkStats {
            postings_scanned: state.postings.get(),
            random_accesses: 0,
            heap_updates: state.heap.update_count(),
            docmap_peak: state
                .docmap_peak
                .load(Ordering::Relaxed)
                .max(state.doc_map.len() as u64),
            cleaner_passes: 0,
            jobs_panicked: queue.panicked() as u64,
            jobs_recycled: queue.recycled() as u64,
            docmap_final: state.doc_map.len() as u64,
            timeout_stops: 0,
            ..WorkStats::default()
        };
        let state = Arc::into_inner(state).expect("all jobs drained");
        TopKResult {
            hits,
            elapsed: start.elapsed(),
            work,
            trace: state.trace.into_events(),
            spans: state.spans.into_spans(),
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
            let r = PNra.search(&ix, &q, &cfg, &DedicatedExecutor::new(threads));
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
        let naive = PNra.search(&ix, &q, &cfg, &DedicatedExecutor::new(4));
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
        let r = PNra.search(&ix, &q, &SearchConfig::exact(4), &DedicatedExecutor::new(2));
        assert_eq!(r.docs(), vec![2, 9]);
    }
}
