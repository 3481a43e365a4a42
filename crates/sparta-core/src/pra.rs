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
//!
//! Each term's job reads its list a batch at a time, a batch ending on
//! the next block boundary of the list. It claims every doc of the
//! batch, probes each other term once over the claimed docs in
//! ascending id order ([`RandomAccess::term_scores`]), then replays UB
//! updates, offers and stop checks in posting order, so the scan stops
//! on the posting the per-posting loop would stop on. Every claimed doc
//! is offered, even past a stop: the claim keeps every other worker
//! from scoring it. Docs claimed past a stop are the only extra work,
//! counted in `random_accesses`.

use crate::config::SearchConfig;
use crate::result::{finalize_hits, SearchHit, TopKResult, WorkStats};
use crate::shared_heap::SharedHeap;
use crate::sparta::SharedUb;
use crate::trace::TraceSink;
use crate::Algorithm;
use sparta_collections::{DocBitset, ShardedCounter};
use sparta_corpus::types::{DocId, Query};
use sparta_exec::{CyclicJob, Executor, Job, JobQueue};
use sparta_index::{Index, Posting, RandomAccess, ScoreCursor, DEFAULT_BLOCK_SIZE};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

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
        let timed_out = self.heap.staleness().exceeds(self.cfg.delta);
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

/// One term's traversal as a recycled [`CyclicJob`], a segment a step,
/// fetched and scored a batch at a time.
struct TermJob {
    state: Arc<State>,
    i: usize,
    cursor: Box<dyn ScoreCursor>,
    /// Postings fetched from `cursor` so far (its list position).
    pos: usize,
    batch: Batch,
}

/// A batch's scratch, kept in the recycled job so steps do not
/// allocate.
struct Batch {
    /// The postings, in score order.
    postings: Vec<Posting>,
    /// Full score per posting; `None` where another worker claimed the
    /// doc first.
    full: Vec<Option<u64>>,
    /// The docs this job claimed, as `(doc, index in postings)`,
    /// ascending by doc.
    claimed: Vec<(DocId, usize)>,
    /// `claimed`'s docs alone: the batched probe's input.
    docs: Vec<DocId>,
    /// One other term's scores for `docs`.
    scores: Vec<u32>,
}

impl Batch {
    fn with_capacity(n: usize) -> Self {
        Self {
            postings: Vec::with_capacity(n),
            full: Vec::with_capacity(n),
            claimed: Vec::with_capacity(n),
            docs: Vec::with_capacity(n),
            scores: Vec::with_capacity(n),
        }
    }

    /// Claims every doc of the batch (first wins, one `fetch_or` each)
    /// and gives each claimed doc its full score: one `term_scores` call
    /// per other term over the claimed docs in ascending id order.
    /// Returns the random accesses made, m − 1 per claimed doc.
    fn claim_and_score(&mut self, state: &State, i: usize, ra: &dyn RandomAccess) -> u64 {
        self.full.clear();
        self.claimed.clear();
        for (k, p) in self.postings.iter().enumerate() {
            let won = state.seen.claim(p.doc);
            self.full.push(won.then_some(u64::from(p.score)));
            if won {
                self.claimed.push((p.doc, k));
            }
        }
        self.claimed.sort_unstable();
        self.docs.clear();
        self.docs.extend(self.claimed.iter().map(|&(doc, _)| doc));
        self.scores.resize(self.docs.len(), 0);
        for (j, &t) in state.terms.iter().enumerate() {
            if j == i {
                continue;
            }
            ra.term_scores(t, &self.docs, &mut self.scores);
            for (&(_, k), &s) in self.claimed.iter().zip(&self.scores) {
                if let Some(full) = &mut self.full[k] {
                    *full += u64::from(s);
                }
            }
        }
        (self.docs.len() * (state.terms.len() - 1)) as u64
    }

    /// Replays the batch in posting order with the per-posting loop's
    /// decisions: UB update, offer, stop check. A stop ends the scan,
    /// but every doc this job claimed is still offered, because no
    /// other worker will score it. Returns the postings scanned: those
    /// before the stop.
    fn replay(&self, state: &State, i: usize, stored_ub: &mut u64) -> u64 {
        let (mut scanned, mut stopped) = (0, false);
        for (k, (p, full)) in self.postings.iter().zip(&self.full).enumerate() {
            // The first posting's stop check is the one before the fetch.
            stopped = stopped || (k > 0 && state.is_done());
            if !stopped {
                scanned += 1;
                // RA updates UB per posting (stopping detection is the
                // cheap part of RA). Storing the value already there
                // would still invalidate the line every worker reads in
                // `check_stop`, and score-ordered lists repeat scores in
                // runs.
                if u64::from(p.score) != *stored_ub {
                    state.ub.set(i, p.score);
                    *stored_ub = u64::from(p.score);
                }
            }
            if let Some(full) = *full {
                state.heap.offer(full, p.doc, &state.trace);
            }
            if !stopped {
                state.check_stop();
            }
        }
        scanned
    }
}

impl CyclicJob for TermJob {
    fn run_step(&mut self) -> bool {
        let (state, i) = (&*self.state, self.i);
        let ra = state
            .index
            .random_access()
            .expect("pRA requires a secondary index");
        // Only this term's job writes UB[i], so the value read here
        // stays the stored one for the whole segment.
        let mut stored_ub = state.ub.get(i);
        let (mut postings, mut randoms) = (0u64, 0u64);
        let (mut left, mut exhausted) = (state.cfg.seg_size, false);
        while left > 0 && !state.is_done() {
            // A batch ends on a block boundary of the list, so the
            // compressed cursor decodes no block past the one the scan
            // stops in.
            let want = left.min(DEFAULT_BLOCK_SIZE - self.pos % DEFAULT_BLOCK_SIZE);
            let got = self.cursor.next_segment(want, &mut self.batch.postings);
            self.pos += got;
            left -= got;
            randoms += self.batch.claim_and_score(state, i, ra);
            postings += self.batch.replay(state, i, &mut stored_ub);
            if got < want {
                // The list ended here, unless a stop came first.
                exhausted = !state.is_done();
                break;
            }
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
        if query.terms.is_empty() {
            return TopKResult {
                hits: Vec::new(),
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
                cursor: index.score_cursor(t),
                pos: 0,
                batch: Batch::with_capacity(DEFAULT_BLOCK_SIZE),
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
            let r = PRa.search(&ix, &q, &cfg, &WorkerPool::new(threads));
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
            &WorkerPool::new(3),
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
        let r = PRa.search(&ix, &q, &cfg, &WorkerPool::new(4));
        assert_eq!(r.work.random_accesses, 500 * 3);
        assert_eq!(r.hits.len(), 500);
    }

    /// A stop the Δ budget caused (Δ = 0: the first posting's check,
    /// long before `UBStop`) is counted once, by the one worker whose
    /// check ended the query.
    #[test]
    fn reports_delta_stop() {
        let ix = pseudo_index(3000, 3, 8);
        let q = Query::new(vec![0, 1, 2]);
        let cfg = SearchConfig::exact(10)
            .with_seg_size(64)
            .with_delta(Some(Duration::ZERO));
        for seed in 0..8 {
            let r = PRa.search(&ix, &q, &cfg, &DeterministicExecutor::new(seed));
            assert_eq!(r.work.timeout_stops, 1, "seed {seed}");
        }
        let exact = cfg.with_delta(None);
        let r = PRa.search(&ix, &q, &exact, &DeterministicExecutor::new(0));
        assert_eq!(r.work.timeout_stops, 0, "a UBStop stop is not a Δ stop");
    }
}
