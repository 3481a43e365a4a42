//! pRA — parallel Random-Access TA (§5.2.2).
//!
//! "Our implementation of pRA maintains its results in a shared heap
//! … the algorithm's multiple worker threads may encounter postings
//! of the same document independently, and consequently score that
//! document and try to insert it into the heap multiple times. The
//! implementation allows only the first to take effect. Since RA's
//! stopping detection is lightweight, we do not dedicate a task to it.
//! Instead, all workers check the UBStop condition, monitor the time
//! elapsed since the last heap update and notify each other if they
//! decide to stop."

use crate::config::SearchConfig;
use crate::result::{finalize_hits, SearchHit, TopKResult, WorkStats};
use crate::shared_heap::SharedHeap;
use crate::sparta::{open_cursor, SharedUb};
use crate::trace::TraceSink;
use crate::Algorithm;
use sparta_collections::{DocBitset, ShardedCounter};
use sparta_corpus::types::Query;
use sparta_exec::{CyclicJob, Executor, Job, JobQueue};
use sparta_index::{Index, ScoreCursor};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The pRA baseline.
#[derive(Debug, Default, Clone, Copy)]
pub struct PRa;

struct State {
    cfg: SearchConfig,
    terms: Vec<u32>,
    ub: SharedUb,
    heap: SharedHeap,
    /// First-wins dedup: one bit per document of the index
    /// (`Index::num_docs` bounds every id a cursor yields).
    seen: DocBitset,
    done: AtomicBool,
    timeout_stops: AtomicU64,
    trace: TraceSink,
    postings: ShardedCounter,
    randoms: ShardedCounter,
    index: Arc<dyn Index>,
}

impl State {
    #[inline]
    fn is_done(&self) -> bool {
        self.done.load(Ordering::Acquire)
    }

    /// All workers run the stopping check (no dedicated task).
    fn check_stop(&self) {
        let ub_stop = self.ub.ub_stop(self.heap.theta());
        let timed_out = self
            .cfg
            .delta
            .is_some_and(|d| self.heap.since_last_update() >= d);
        if ub_stop || timed_out {
            // Whoever flips `done` ended the query; on the Δ budget
            // alone (approximate variant) that is the query's one
            // timeout stop.
            let ended_here = !self.done.swap(true, Ordering::AcqRel);
            if ended_here && !ub_stop {
                self.timeout_stops.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// One term's traversal as a recycled [`CyclicJob`], a segment a step.
struct TermJob {
    state: Arc<State>,
    i: usize,
    cursor: Box<dyn ScoreCursor>,
}

impl CyclicJob for TermJob {
    fn run_step(&mut self) -> bool {
        let (state, i) = (&self.state, self.i);
        if state.is_done() {
            return false;
        }
        let ra = state
            .index
            .random_access()
            .expect("pRA requires a secondary index");
        let mut exhausted = false;
        // Only this term's job writes UB[i], so the value read here
        // stays the stored one for the whole segment.
        let mut stored_ub = state.ub.get(i);
        let (mut postings, mut randoms) = (0u64, 0u64);
        for _ in 0..state.cfg.seg_size {
            if state.is_done() {
                break;
            }
            let Some(p) = self.cursor.next() else {
                exhausted = true;
                break;
            };
            postings += 1;
            // RA updates UB per posting (stopping detection is the cheap
            // part of RA). Storing the value already there would still
            // invalidate the line every worker reads in `check_stop`, and
            // score-ordered lists repeat scores in runs.
            if u64::from(p.score) != stored_ub {
                state.ub.set(i, p.score);
                stored_ub = u64::from(p.score);
            }
            // First-wins claim (one `fetch_or`): the one first worker
            // computes the full score via random access.
            if state.seen.claim(p.doc) {
                let mut full = u64::from(p.score);
                for (j, &t) in state.terms.iter().enumerate() {
                    if j != i {
                        full += u64::from(ra.term_score(t, p.doc));
                        randoms += 1;
                    }
                }
                state.heap.offer(full, p.doc, &state.trace);
            }
            state.check_stop();
        }
        // One flush per segment, not one shared RMW per posting and probe.
        state.postings.add(postings);
        state.randoms.add(randoms);
        if exhausted {
            state.ub.exhaust(i);
            state.check_stop();
        }
        !exhausted && !state.is_done()
    }
}

impl Algorithm for PRa {
    fn name(&self) -> &'static str {
        "pra"
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
        if query.terms.is_empty() {
            return TopKResult {
                hits: Vec::new(),
                elapsed: start.elapsed(),
                work: WorkStats::default(),
                trace: cfg.trace.then(Vec::new),
                spans: None,
            };
        }
        let state = Arc::new(State {
            cfg: *cfg,
            terms: query.terms.clone(),
            ub: SharedUb::new(query.terms.len()),
            heap: SharedHeap::new(cfg.k),
            seen: DocBitset::with_capacity(index.num_docs() as usize),
            done: AtomicBool::new(false),
            timeout_stops: AtomicU64::new(0),
            trace: TraceSink::with_clock(cfg.trace, cfg.clock),
            postings: ShardedCounter::new(),
            randoms: ShardedCounter::new(),
            index: Arc::clone(index),
        });
        let queue = JobQueue::tagged(cfg.query_tag);
        for (i, &t) in query.terms.iter().enumerate() {
            queue.push(Job::cyclic(TermJob {
                state: Arc::clone(&state),
                i,
                cursor: open_cursor(index, t),
            }));
        }
        exec.run(Arc::clone(&queue));

        let hits = finalize_hits(
            state
                .heap
                .sorted()
                .into_iter()
                .map(|(score, doc)| SearchHit { doc, score })
                .collect(),
            cfg.k,
        );
        // Claims are never withdrawn: the set's peak is its final size.
        let claimed = state.seen.len() as u64;
        let work = WorkStats {
            postings_scanned: state.postings.get(),
            random_accesses: state.randoms.get(),
            heap_updates: state.heap.update_count(),
            docmap_peak: claimed,
            cleaner_passes: 0,
            jobs_panicked: queue.panicked() as u64,
            jobs_recycled: queue.recycled() as u64,
            docmap_final: claimed,
            timeout_stops: state.timeout_stops.load(Ordering::Relaxed),
            ..WorkStats::default()
        };
        let state = Arc::into_inner(state).expect("all jobs drained");
        TopKResult {
            hits,
            elapsed: start.elapsed(),
            work,
            trace: state.trace.into_events(),
            spans: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::Oracle;
    use crate::test_support::TagSpy;
    use sparta_exec::{DedicatedExecutor, DeterministicExecutor};
    use sparta_index::{InMemoryIndex, Posting};
    use std::time::Duration;

    fn pseudo_index(n: u32, m: usize, seed: u32) -> Arc<dyn Index> {
        let lists: Vec<Vec<Posting>> = (0..m as u32)
            .map(|t| {
                (0..n)
                    .map(|d| {
                        let x = d
                            .wrapping_mul(2654435761)
                            .wrapping_add(t * 31 + seed)
                            .wrapping_mul(2246822519);
                        Posting::new(d, x % 7_000 + 1)
                    })
                    .collect()
            })
            .collect();
        Arc::new(InMemoryIndex::from_term_postings(lists, u64::from(n)))
    }

    #[test]
    fn exact_matches_oracle_with_full_scores() {
        for threads in [1, 4] {
            let ix = pseudo_index(3000, 3, 4);
            let q = Query::new(vec![0, 1, 2]);
            let cfg = SearchConfig::exact(10).with_seg_size(128);
            let oracle = Oracle::compute(ix.as_ref(), &q, 10);
            let r = PRa.search(&ix, &q, &cfg, &DedicatedExecutor::new(threads));
            assert_eq!(oracle.recall(&r.docs()), 1.0, "threads={threads}");
            for h in &r.hits {
                assert_eq!(h.score, oracle.score(h.doc), "pRA reports full scores");
            }
        }
    }

    #[test]
    fn performs_random_accesses() {
        let ix = pseudo_index(2000, 3, 8);
        let q = Query::new(vec![0, 1, 2]);
        let r = PRa.search(
            &ix,
            &q,
            &SearchConfig::exact(10).with_seg_size(64),
            &DedicatedExecutor::new(3),
        );
        assert!(r.work.random_accesses > 0);
        // Each distinct doc claimed costs exactly m-1 lookups.
        assert_eq!(r.work.random_accesses % 2, 0);
    }

    #[test]
    fn dedup_scores_each_doc_once() {
        let ix = pseudo_index(500, 4, 9);
        let q = Query::new(vec![0, 1, 2, 3]);
        // Exhaustive (k = all docs): every doc appears in all 4 lists,
        // so claims = 500 and lookups = 500 × 3.
        let cfg = SearchConfig::exact(500).with_seg_size(32);
        let r = PRa.search(&ix, &q, &cfg, &DedicatedExecutor::new(4));
        assert_eq!(r.work.random_accesses, 500 * 3);
        assert_eq!(r.hits.len(), 500);
    }

    /// What a served `pra` request is attributed and accounted by: the
    /// queue carries the config's tag, and a stop the Δ budget caused
    /// (Δ = 0: the first posting's check, long before `UBStop`) is
    /// counted once, by the one worker whose check ended the query.
    #[test]
    fn reports_delta_stop_and_query_tag() {
        let ix = pseudo_index(3000, 3, 8);
        let q = Query::new(vec![0, 1, 2]);
        let cfg = SearchConfig::exact(10)
            .with_seg_size(64)
            .with_delta(Some(Duration::ZERO))
            .with_query_tag(77);
        for seed in 0..8 {
            let exec = TagSpy::new(seed);
            let r = PRa.search(&ix, &q, &cfg, &exec);
            assert_eq!(r.work.timeout_stops, 1, "seed {seed}");
            assert_eq!(exec.tag(), 77, "seed {seed}");
        }
        let exact = cfg.with_delta(None);
        let r = PRa.search(&ix, &q, &exact, &DeterministicExecutor::new(0));
        assert_eq!(r.work.timeout_stops, 0, "a UBStop stop is not a Δ stop");
    }
}
