//! Sparta — Scalable PARallel Threshold Algorithm (Algorithm 1).
//!
//! Sparta parallelizes NRA across the query's m posting lists with
//! three locality/synchronization optimizations (§4):
//!
//! 1. **Segmented traversal with lazy UB updates** — posting lists are
//!    traversed in segments allocated through a job queue; the shared
//!    `UB[i]` is written once per segment, not per posting. A segment
//!    is fetched with one `next_segment` call and its records located
//!    by a load-only resolve pass before any is scored
//!    (`candidates::Segment`).
//! 2. **A cleaner task** — once `UBStop` (Eq. 1) first holds, no new
//!    document can enter the top-k, so the shared `docMap` stops
//!    growing; cleaner passes rebuild it without dead candidates
//!    (`UB(D) ≤ Θ`) and publish the pruned map with a single pointer
//!    swing. A pass also detects termination: Eq. 2 holds exactly when
//!    `|docMap| = |docHeap|`, and the Δ-timeout implements the
//!    approximate variant.
//! 3. **Term-local map replicas** — when `|docMap|` drops below Φ, the
//!    worker owning a posting list copies the entries still missing its
//!    term's score into a thread-local `termMap` that fits in cache,
//!    eliminating shared-map reads entirely.
//!
//! The shared candidate state is built around the cache line
//! (DESIGN.md §10): 16-byte `⟨id, sum | known-mask⟩` records in a
//! per-query [`DocSlab`], and a `docMap` that is an insert-only
//! lock-free table — doc-indexed
//! ([`DenseDocTable`](sparta_collections::DenseDocTable)) whenever that
//! is no larger than the hashed
//! [`DocTable`](sparta_collections::DocTable), which serves otherwise.
//! Lookups are plain loads, admission is one compare-and-swap, and
//! removal never happens in place because the cleaner publishes a
//! rebuilt map, chosen by the same size rule, instead. The first map
//! and its admission are `candidates`, which pNRA and pJASS share.
//!
//! Deviations from the pseudocode, documented:
//!
//! * Algorithm 1's *main thread* waits for `UBStop` and then enqueues
//!   CLEANER (lines 4–5). We have no dedicated main thread per query
//!   (the same code must run on a shared pool in throughput mode), so
//!   segment jobs schedule the cleaner at segment end instead.
//! * The cleaner is *paced*, not a loop (line 48): each pass is a
//!   one-shot job that runs only once the postings scanned since the
//!   previous pass reach the entries it will walk (or Δ has run out),
//!   so cleaning costs no more than the scan it rides on. The first
//!   worker to observe `UBStop` enqueues a *check*: it tests Eq. 2
//!   without pruning, and only if Eq. 2 holds does it prune and stop
//!   the query — where the loop's first pass would have. A check that
//!   fails sets the budget to `|docMap|` postings; a full pass that
//!   does not stop sets it to the survivors it kept. One pass is in
//!   flight at a time: the segment job that enqueues it claims
//!   `next_pass_at`, and the pass's store of the next budget releases
//!   the claim. Eq. 2 is seen at `UBStop` or at most one pass-size of
//!   postings late, and no pass re-enqueues itself.
//! * A list ending forces no pass. If every list runs dry before a
//!   pass stops the query, `search` runs one last pass inline after the
//!   workers have joined: every bound is then zero, so that pass proves
//!   Eq. 2 (`|docMap| = |docHeap|`) without racing a worker.
//! * The cleaner prunes on every full pass rather than only while
//!   `|docMap| > Φ`; pruning below Φ is required for the exact
//!   variant's `|docMap| = |docHeap|` condition to become true, and is
//!   exactly what shrinks `termMap`-eligible copies.

pub mod bounds;
pub(crate) mod candidates;
pub mod doc_slab;
pub mod heap;

pub use bounds::{SharedUb, UbSnapshot};
pub use doc_slab::{DocHandle, DocSlab, SlabRun};
pub use heap::SpartaHeap;

use crate::config::SearchConfig;
use crate::result::{TopKResult, WorkStats};
use crate::trace::TraceSink;
use crate::Algorithm;
use candidates::{postings, until_fits, CandidateMap, Candidates, Segment};
use sparta_collections::{FastBuildHasher, FastHashMap, FastHashSet, ShardedCounter, SwapCell};
use sparta_corpus::types::{DocId, Query};
use sparta_exec::{CyclicJob, Executor, Job, JobQueue};
use sparta_index::{Index, ScoreCursor};
use sparta_obs::{span, ClockMode, Phase};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The Sparta algorithm.
#[derive(Debug, Default, Clone, Copy)]
pub struct Sparta;

/// [`State::next_pass_at`] while a pass holds the claim: no other pass
/// is due.
const IN_FLIGHT: u64 = u64::MAX;

/// Shared per-query state (Table 1).
struct State {
    cfg: SearchConfig,
    ub: SharedUb,
    /// The run's records (which `doc_map`, `termMap`s and the heap
    /// refer into by [`DocHandle`]), first map and `done` flag.
    cands: Candidates,
    heap: SpartaHeap,
    doc_map: SwapCell<DocMap>,
    /// The postings count at which the next pass falls due once
    /// `UBStop` holds (0: the first pass is due at once), or
    /// [`IN_FLIGHT`] — the claim on the one pass in flight, taken by
    /// the segment job that enqueues it and released by that pass.
    next_pass_at: AtomicU64,
    trace: TraceSink,
    postings: ShardedCounter,
    docmap_peak: AtomicU64,
    cleaner_passes: AtomicU64,
    timeout_stops: AtomicU64,
}

/// One published version of `docMap`.
enum DocMap {
    /// The first map: the run's [`Candidates`] table, still being
    /// admitted into; its entries are the slab's scored records.
    Open,
    /// A pruned, sealed replacement the cleaner built — doc-indexed or
    /// hashed by the same size rule as the first map, applied to the
    /// survivors — with its handles in kept order: what the next pass
    /// and `termMap` construction walk, so neither scans a sparse slot
    /// array.
    Rebuilt {
        table: CandidateMap,
        live: Box<[DocHandle]>,
    },
}

impl DocMap {
    /// A pruned replacement holding exactly `live`, built privately.
    fn rebuilt(cands: &Candidates, live: Vec<DocHandle>) -> Self {
        let entries = live.iter().map(|&h| (cands.slab.record(h).id(), h.index()));
        Self::Rebuilt {
            table: CandidateMap::from_entries(cands.num_docs, entries),
            live: live.into_boxed_slice(),
        }
    }

    /// This version's lookup table: the run's open one or the rebuilt.
    #[inline]
    fn table<'a>(&'a self, cands: &'a Candidates) -> &'a CandidateMap {
        match self {
            Self::Open => &cands.table,
            Self::Rebuilt { table, .. } => table,
        }
    }

    /// Visits every entry, sequentially in memory order.
    fn for_each(&self, slab: &DocSlab, mut f: impl FnMut(DocHandle, doc_slab::Record<'_>)) {
        match self {
            Self::Open => slab.for_each_scored(f),
            Self::Rebuilt { live, .. } => live.iter().for_each(|&h| f(h, slab.record(h))),
        }
    }
}

impl State {
    fn new(m: usize, cands: Candidates, cfg: SearchConfig, clock: ClockMode) -> Self {
        Self {
            cfg,
            ub: SharedUb::new(m),
            heap: SpartaHeap::new(Arc::clone(&cands.slab), cfg.k),
            cands,
            doc_map: SwapCell::new(DocMap::Open),
            next_pass_at: AtomicU64::new(0),
            trace: TraceSink::with_clock(cfg.trace, clock),
            postings: ShardedCounter::new(),
            docmap_peak: AtomicU64::new(0),
            cleaner_passes: AtomicU64::new(0),
            timeout_stops: AtomicU64::new(0),
        }
    }

    #[inline]
    fn ub_stop(&self) -> bool {
        self.ub.ub_stop(self.heap.theta())
    }

    /// Called at every segment end: once `UBStop` holds, enqueues one
    /// pass when the budget in `next_pass_at` is spent or Δ has run out,
    /// and this worker wins the claim (see module docs).
    fn maybe_schedule_pass(self: &Arc<Self>, queue: &Arc<JobQueue>) {
        if !self.ub_stop() {
            return;
        }
        let next = &self.next_pass_at;
        // ordering: only a guess at the budget; the exchange below checks it (model: cleaner_pass)
        let due = next.load(Ordering::Relaxed);
        if due == IN_FLIGHT
            || (self.postings.get() < due && !self.heap.staleness().exceeds(self.cfg.delta))
        {
            return;
        }
        // ordering: the claim pairs with the last pass's release (model: cleaner_pass);
        // a stale `due` fails the exchange and claims nothing.
        let claim = next.compare_exchange(due, IN_FLIGHT, Ordering::Acquire, Ordering::Relaxed);
        if claim.is_ok() {
            let state = Arc::clone(self);
            queue.push(Box::new(move || state.clean(due == 0)));
        }
    }

    /// One CLEANER pass (Alg. 1 lines 40–47), run by the holder of the
    /// claim, or inline once every worker has joined. A pass that does
    /// not stop the query sets the next budget, which releases the
    /// claim; it never re-enqueues itself. The first pass, at `UBStop`,
    /// is a `check`: it prunes only if Eq. 2 already holds.
    fn clean(&self, check: bool) {
        if self.cands.is_done() {
            return;
        }
        let pass_span = span(Phase::Cleaner);
        self.cleaner_passes.fetch_add(1, Ordering::Relaxed);
        let start = self.postings.get();
        let cur = self.doc_map.load();
        let cands = &self.cands;
        let theta = self.heap.theta();
        let mut members = FastHashSet::default();
        self.heap.members_snapshot_into(&mut members);
        // With the probabilistic extension (γ < 1), "upper bound"
        // becomes the γ-scaled estimate — candidates merely *unlikely*
        // to reach Θ are dropped too.
        let gamma = self.cfg.prune_gamma.unwrap_or(1.0);
        let mut bounds = UbSnapshot::default();
        self.ub.snapshot_into(gamma, &mut bounds);
        let walked = cur.table(cands).len();
        self.docmap_peak.fetch_max(walked as u64, Ordering::Relaxed);
        if check {
            // Eq. 2 alone: is any candidate outside the heap still able
            // to qualify? Past the first such straggler the walk only
            // tests the flag, as pNRA's stop checker does.
            let mut eq2 = true;
            cur.for_each(&cands.slab, |_, rec| {
                if eq2 && rec.ub(&bounds) > theta && !members.contains(&rec.id()) {
                    eq2 = false;
                }
            });
            if !eq2 && !self.heap.staleness().exceeds(self.cfg.delta) {
                // The first full pass walks this map: it is due once as
                // many postings have been scanned since this check.
                drop(pass_span);
                self.next_pass_at
                    .store(start + walked as u64, Ordering::Release);
                return;
            }
        }
        // Lines 41–45: keep the entries whose upper bound still exceeds
        // Θ, plus all heap members (whose bounds may equal Θ), then
        // swing the global pointer to a map rebuilt from the survivors.
        // Pass 1 walks the slab's scored records, every later pass the
        // previous pass's survivors — both sequential. Membership is a
        // lookup only on the prune branch, and there only for a record
        // whose sum has reached Θ: a member's sum is never below the Θ
        // read above (Θ is the smallest member LB, sums only grow, and
        // Θ was read before the members were copied). Pruning removes
        // only the handle; the record stays in the slab until the
        // query drops.
        let mut survivors = Vec::with_capacity(walked);
        cur.for_each(&cands.slab, |h, rec| {
            if rec.ub(&bounds) > theta
                || (rec.current_sum() >= theta && members.contains(&rec.id()))
            {
                survivors.push(h);
            }
        });
        // `stragglers` counts retained non-members: the pseudocode's
        // `|docMap| = |docHeap|` stopping test assumes docHeap ⊆ docMap
        // and is exactly `stragglers == 0` then. We check stragglers
        // directly because with γ < 1 a pruned candidate can later
        // re-grow and re-enter the heap through a worker's termMap,
        // breaking the ⊆ invariant (a size-equality check would then
        // never fire and the query would degrade to a full scan).
        // Every member found in the map survived, so the non-members
        // are the rest.
        let members_in_map = members
            .iter()
            .filter(|&&d| cur.table(cands).get(d).is_some())
            .count();
        let kept = survivors.len();
        let stragglers = kept - members_in_map;
        if kept < walked {
            self.doc_map
                .swap(Arc::new(DocMap::rebuilt(cands, survivors)));
        }
        // Line 46: stopping conditions — Eq. 2 (no candidate outside
        // the heap can still qualify), or the Δ timeout (exact: Δ = ∞).
        let eq2 = stragglers == 0;
        let timed_out = self.heap.staleness().exceeds(self.cfg.delta);
        drop(pass_span);
        if eq2 || timed_out {
            if timed_out && !eq2 {
                // The Δ budget (approximate variant) fired before Eq. 2.
                self.timeout_stops.fetch_add(1, Ordering::Relaxed);
            }
            cands.stop(); // line 47
        } else {
            // The next pass walks `kept` entries: it is due once as
            // many postings have been scanned since this one began.
            // Storing the budget releases the claim.
            self.next_pass_at
                .store(start + kept as u64, Ordering::Release);
        }
    }
}

/// A worker's thread-local replica of `docMap` restricted to one term
/// (§4.3). Owned by whichever job currently processes the term, kept
/// in the job's recycled box across segments — "every posting list is
/// accessed by at most one worker at any given time, [so] no
/// synchronization is required".
type TermMap = FastHashMap<DocId, DocHandle>;

/// PROCESSTERM(i) (Alg. 1 lines 8–25) as a recycled [`CyclicJob`]:
/// each step traverses one segment of term i's posting list; returning
/// `true` re-enqueues this same box for the next segment (line 25), so
/// steady-state traversal allocates no job boxes and the cursor /
/// `termMap` / segment scratch never moves between heap objects.
struct SegmentJob {
    state: Arc<State>,
    queue: Arc<JobQueue>,
    i: usize,
    cursor: Box<dyn ScoreCursor>,
    seg: Segment,
    term_map: Option<TermMap>,
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
        let seg_span = span(Phase::TermProcess);
        // One snapshot per segment, taken *before* UBStop is evaluated:
        // a worker that then still sees UBStop false holds the query's
        // first map (the cleaner, which alone replaces it, is only
        // scheduled once UBStop holds), so admissions never target a
        // rebuilt map. After UBStop a stale snapshot can only contain
        // already-dead entries, so updating through it is harmless.
        let map = state.doc_map.load();
        let cands = &state.cands;
        // UBStop is Σ UB[i] ≤ Θ: m + 1 shared loads, so it is evaluated
        // here and again only after this worker's own successful heap
        // update — the one event inside a segment that moves it (UB[i]
        // is published at segment end). It is monotone, so a stale
        // `false` merely admits a candidate that is dead on arrival.
        let mut ub_stop = state.ub_stop();
        // Lines 9–12: once the shrinking docMap is small, build the
        // local replica of the entries still missing this term's score.
        if self.term_map.is_none() && ub_stop && map.table(cands).len() < state.cfg.phi {
            let mut local =
                TermMap::with_capacity_and_hasher(map.table(cands).len(), FastBuildHasher);
            map.for_each(&cands.slab, |h, rec| {
                if !rec.knows(i) {
                    local.insert(rec.id(), h);
                }
            });
            self.term_map = Some(local);
        }

        // Line 15 for the whole segment: one fetch, and a resolve pass
        // that locates every posting's record (lines 16–21) in the
        // termMap or this snapshot's map with loads only.
        let (cursor, n) = (&mut *self.cursor, state.cfg.seg_size);
        let exhausted = match &self.term_map {
            Some(local) => self
                .seg
                .fetch_with(cursor, n, |doc| local.get(&doc).copied()),
            None => self.seg.fetch(cursor, n, map.table(cands)),
        };
        // Only the first map admits, and only when no termMap serves.
        let admits = self.term_map.is_none() && matches!(*map, DocMap::Open);
        let mut last_score: Option<u32> = None;
        let mut aborted = false;
        // Counted locally and flushed once per segment: a shared RMW
        // per posting is a cache-line transfer per posting.
        let mut scanned = 0u64;
        for (p, found) in self.seg.iter() {
            if state.cands.is_done() {
                aborted = true; // line 14
                break;
            }
            scanned += 1;
            last_score = Some(p.score);
            let d = match found {
                None if admits => cands.admit(&mut self.run, p.doc, !ub_stop),
                found => found,
            };
            if let Some(h) = d {
                let sum = cands.slab.record(h).set_score(i, p.score); // line 22
                if sum > state.heap.theta() && state.heap.update(&h, &state.trace) {
                    ub_stop = state.ub_stop(); // line 23 moved Θ
                }
            }
        }
        state.postings.add(scanned);
        cands.flush(&mut self.run);
        if aborted {
            return false;
        }
        // Line 24: publish the term's upper bound once per segment.
        if let Some(s) = last_score {
            state.ub.set(i, s);
        }
        if exhausted {
            // A short segment ends the list: nothing untraversed
            // remains, so the bound drops to zero (the pseudocode leaves
            // list exhaustion implicit).
            state.ub.exhaust(i);
        }
        // Observe the map size every segment regardless of which branch
        // served the lookups — a single worker that jumps straight to a
        // termMap must still report the peak it admitted into the map.
        state.docmap_peak.fetch_max(
            state.doc_map.load().table(cands).len() as u64,
            Ordering::Relaxed,
        );
        state.maybe_schedule_pass(&self.queue);
        drop(seg_span);
        // Line 25: recycle this box as the next segment of the list.
        !exhausted && !state.cands.is_done()
    }
}

/// One run of `query` over `cands`: a segment job per term on `exec`,
/// then one inline pass.
fn run_once(
    index: &Arc<dyn Index>,
    query: &Query,
    cfg: &SearchConfig,
    exec: &dyn Executor,
    cands: Candidates,
) -> (Arc<State>, Arc<JobQueue>) {
    let m = query.terms.len();
    let state = Arc::new(State::new(m, cands, *cfg, exec.clock_mode()));
    let queue = JobQueue::tagged(cfg.query_tag);
    {
        let _plan = span(Phase::Plan);
        for (i, &t) in query.terms.iter().enumerate() {
            let cursor = index.score_cursor(t);
            queue.push(Job::cyclic(SegmentJob {
                state: Arc::clone(&state),
                queue: Arc::clone(&queue),
                i,
                seg: Segment::new(cursor.as_ref(), cfg.seg_size),
                cursor,
                term_map: None,
                run: SlabRun::default(),
            }));
        }
    }
    exec.run(Arc::clone(&queue));
    // Every list ran dry before a pass stopped the query (or a pass was
    // lost): all bounds are zero, so one last pass proves Eq. 2 with
    // the workers joined.
    state.clean(false);
    (state, queue)
}

impl Algorithm for Sparta {
    fn name(&self) -> &'static str {
        "sparta"
    }

    fn search(
        &self,
        index: &Arc<dyn Index>,
        query: &Query,
        cfg: &SearchConfig,
        exec: &dyn Executor,
    ) -> TopKResult {
        let m = query.terms.len();
        if m == 0 {
            return TopKResult {
                hits: Vec::new(),
                work: WorkStats::default(),
                trace: cfg.trace.then(Vec::new),
            };
        }
        // The first docMap is the run's candidate table (`candidates`).
        let run = |cands| run_once(index, query, cfg, exec, cands);
        let postings = postings(index.as_ref(), query);
        let (state, queue) = until_fits(m, postings, index.num_docs(), run, |(s, _)| &s.cands);

        let merge = span(Phase::HeapMerge);
        let mut hits = state.heap.sorted_hits();
        hits.truncate(cfg.k);
        // Re-record every final member with its settled sum:
        // `SpartaHeap::update` traces *inserts* only, so a member whose
        // score kept growing after its last insert would replay with a
        // stale partial sum — at the trace's final sample a non-member
        // whose traced score exceeds that stale sum then displaces the
        // member from the reconstructed top-k, and an exact run's
        // recall curve ends below 1.0 (schedule-dependent under ≥2
        // traversal threads). Recording here keeps the hot insert path
        // unchanged and stamps these events after every worker event,
        // so the final replay sample sees the true sums.
        for h in &hits {
            state.trace.record(h.doc, h.score);
        }
        drop(merge);
        let docmap_final = state.doc_map.load().table(&state.cands).len() as u64;
        let work = WorkStats {
            postings_scanned: state.postings.get(),
            random_accesses: 0,
            heap_updates: state.heap.update_count(),
            docmap_peak: state.docmap_peak.load(Ordering::Relaxed).max(docmap_final),
            cleaner_passes: state.cleaner_passes.load(Ordering::Relaxed),
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
    use sparta_exec::{DeterministicExecutor, WorkerPool};
    use sparta_index::{InMemoryIndex, Posting};
    use sparta_obs::{EventKind, FlightRecorder};

    fn pseudo_index(n: u32, m: usize, seed: u32) -> Arc<dyn Index> {
        let lists: Vec<Vec<Posting>> = (0..m as u32)
            .map(|t| {
                (0..n)
                    .map(|d| {
                        let x = d
                            .wrapping_mul(2654435761)
                            .wrapping_add(t * 97 + seed)
                            .wrapping_mul(2246822519);
                        Posting::new(d, x % 10_000 + 1)
                    })
                    .collect()
            })
            .collect();
        Arc::new(InMemoryIndex::from_term_postings(lists, u64::from(n)))
    }

    fn check_exact(n: u32, m: usize, k: usize, threads: usize, seed: u32) {
        let ix = pseudo_index(n, m, seed);
        let q = Query::new((0..m as u32).collect());
        let cfg = SearchConfig::exact(k).with_seg_size(64).with_phi(256);
        let oracle = Oracle::compute(ix.as_ref(), &q, k);
        let r = Sparta.search(&ix, &q, &cfg, &WorkerPool::new(threads));
        assert_eq!(
            oracle.recall(&r.docs()),
            1.0,
            "n={n} m={m} k={k} t={threads}: got {:?}",
            r.docs()
        );
    }

    #[test]
    fn exact_single_thread() {
        check_exact(2000, 3, 10, 1, 1);
    }

    #[test]
    fn exact_multi_thread() {
        check_exact(2000, 3, 10, 3, 2);
    }

    #[test]
    fn exact_more_threads_than_terms() {
        check_exact(1000, 2, 5, 8, 3);
    }

    #[test]
    fn exact_many_terms() {
        check_exact(1500, 8, 20, 8, 4);
    }

    /// m = 70 needs three term words per record; the same path
    /// handles it (no arity limit, no fallback layout).
    #[test]
    fn exact_wide_query_uses_three_term_words() {
        for threads in [1, 3] {
            check_exact(400, 70, 10, threads, 5);
        }
    }

    /// A list that is a multiple of the segment size ends on an empty
    /// fetch, and that fetch alone must zero the list's `UB[i]`.
    #[test]
    fn an_empty_final_segment_exhausts_the_bound() {
        let ix = pseudo_index(256, 1, 29);
        let cfg = SearchConfig::exact(10).with_seg_size(64);
        let cands = Candidates::new(1, 256, ix.num_docs());
        let state = Arc::new(State::new(1, cands, cfg, ClockMode::Wall));
        let cursor = ix.score_cursor(0);
        let mut job = SegmentJob {
            state: Arc::clone(&state),
            queue: JobQueue::tagged(0),
            i: 0,
            seg: Segment::new(cursor.as_ref(), cfg.seg_size),
            cursor,
            term_map: None,
            run: SlabRun::default(),
        };
        let mut steps = 1;
        while job.run_step() {
            assert_ne!(state.ub.get(0), 0, "zeroed before the list ended");
            steps += 1;
        }
        assert_eq!(steps, 5, "four full segments, then the empty one");
        assert_eq!(state.ub.get(0), 0);
        assert_eq!(state.postings.get(), 256);
    }

    /// Three lists of the same 1000 docs with k = 800: when `UBStop`
    /// first holds, the check finds candidates outside the heap that
    /// can still qualify, and the first full pass would walk more
    /// entries than there are postings left to scan, so no pass falls
    /// due before every list ends. Only the inline pass after the join
    /// can then prove Eq. 2 — at every thread count, and on every
    /// deterministic schedule.
    #[test]
    fn lists_that_run_dry_end_on_the_inline_pass() {
        let (n, m, k) = (1000, 3, 800);
        let ix = pseudo_index(n, m, 31);
        let q = Query::new((0..m as u32).collect());
        let cfg = SearchConfig::exact(k).with_seg_size(64).with_phi(256);
        let oracle = Oracle::compute(ix.as_ref(), &q, k);
        let check = |exec: &dyn Executor, ctx: &str| {
            let r = Sparta.search(&ix, &q, &cfg, exec);
            assert_eq!(oracle.recall(&r.docs()), 1.0, "{ctx}: {:?}", r.docs());
            assert_eq!(
                r.work.postings_scanned,
                u64::from(n) * m as u64,
                "{ctx}: the lists must run dry"
            );
            assert!(r.work.cleaner_passes >= 1, "{ctx}: no pass ran");
            assert_eq!(
                r.work.docmap_final,
                r.hits.len() as u64,
                "{ctx}: |docMap| != |docHeap| (Eq. 2)"
            );
            r.work.cleaner_passes
        };
        assert_eq!(
            check(&WorkerPool::new(1), "t=1"),
            2,
            "the check and the inline pass, and no pass between"
        );
        for threads in [2, 4] {
            check(&WorkerPool::new(threads), &format!("t={threads}"));
        }
        for seed in 0..16 {
            check(&DeterministicExecutor::new(seed), &format!("seed {seed}"));
        }
    }

    /// Two lists with k = 800 of 1000 docs: Eq. 2 already holds when
    /// `UBStop` first does, so the check that `UBStop` schedules stops
    /// the query there, before the lists run dry — no budget delays it.
    #[test]
    fn the_check_at_ubstop_stops_an_early_query() {
        let (n, m, k) = (1000, 2, 800);
        let ix = pseudo_index(n, m, 31);
        let q = Query::new((0..m as u32).collect());
        let cfg = SearchConfig::exact(k).with_seg_size(64).with_phi(256);
        let oracle = Oracle::compute(ix.as_ref(), &q, k);
        let r = Sparta.search(&ix, &q, &cfg, &WorkerPool::new(1));
        assert_eq!(oracle.recall(&r.docs()), 1.0);
        assert_eq!(r.work.cleaner_passes, 1, "the check alone stops it");
        assert!(
            r.work.postings_scanned < u64::from(n) * m as u64,
            "scanned {} postings: the lists ran dry",
            r.work.postings_scanned
        );
        assert_eq!(r.work.docmap_final, r.hits.len() as u64);
    }

    /// Once `UBStop` holds, a pass is due when its budget is spent or Δ
    /// has run out, whichever comes first; and while one is in flight
    /// no second one is enqueued.
    #[test]
    fn a_pass_falls_due_on_its_budget_or_on_delta() {
        let state_with = |delta| {
            let cfg = SearchConfig::exact(10).with_delta(delta);
            let state = Arc::new(State::new(
                1,
                Candidates::new(1, 256, 256),
                cfg,
                ClockMode::Wall,
            ));
            state.ub.exhaust(0); // UBStop: Σ UB = 0 ≤ Θ
            state.next_pass_at.store(1 << 40, Ordering::Relaxed);
            state
        };
        let queue = JobQueue::tagged(0);
        let waiting = state_with(None);
        waiting.maybe_schedule_pass(&queue);
        assert_eq!(queue.outstanding(), 0, "budget unspent, no Δ");
        let stale = state_with(Some(std::time::Duration::ZERO));
        stale.maybe_schedule_pass(&queue);
        assert_eq!(queue.outstanding(), 1, "Δ ran out before the budget");
        assert_eq!(stale.next_pass_at.load(Ordering::Relaxed), IN_FLIGHT);
        stale.maybe_schedule_pass(&queue);
        assert_eq!(queue.outstanding(), 1, "one pass in flight at a time");
        waiting.postings.add(1 << 40);
        waiting.maybe_schedule_pass(&queue);
        assert_eq!(queue.outstanding(), 2, "budget spent");
    }

    #[test]
    fn exact_k_larger_than_matches() {
        let t0 = vec![Posting::new(1, 10), Posting::new(5, 30)];
        let ix: Arc<dyn Index> = Arc::new(InMemoryIndex::from_term_postings(vec![t0], 10));
        let q = Query::new(vec![0]);
        let cfg = SearchConfig::exact(100);
        let r = Sparta.search(&ix, &q, &cfg, &WorkerPool::new(2));
        assert_eq!(r.docs(), vec![5, 1]);
    }

    #[test]
    fn empty_query_returns_empty() {
        let ix = pseudo_index(100, 2, 0);
        let r = Sparta.search(
            &ix,
            &Query::new(vec![]),
            &SearchConfig::exact(10),
            &WorkerPool::new(2),
        );
        assert!(r.hits.is_empty());
    }

    #[test]
    fn cleaner_shrinks_docmap() {
        let ix = pseudo_index(5000, 4, 7);
        let q = Query::new(vec![0, 1, 2, 3]);
        let cfg = SearchConfig::exact(10).with_seg_size(128).with_phi(512);
        let r = Sparta.search(&ix, &q, &cfg, &WorkerPool::new(4));
        assert!(r.work.cleaner_passes > 0, "cleaner must have run");
        assert!(r.work.docmap_peak > 10, "docMap grew beyond k");
    }

    #[test]
    fn approximate_delta_stops_and_keeps_high_recall() {
        let ix = pseudo_index(20_000, 4, 9);
        let q = Query::new(vec![0, 1, 2, 3]);
        let exact = SearchConfig::exact(50).with_seg_size(256);
        let oracle = Oracle::compute(ix.as_ref(), &q, 50);
        // A Δ far above the query's runtime must not harm exactness…
        let generous = exact.with_delta(Some(std::time::Duration::from_secs(30)));
        let r = Sparta.search(&ix, &q, &generous, &WorkerPool::new(4));
        assert_eq!(oracle.recall(&r.docs()), 1.0, "generous Δ stays exact");
        // …while a tiny Δ must terminate promptly with a full (if
        // imperfect) result set. Recall under a tiny Δ is timing
        // dependent, so only structural properties are asserted.
        let tiny = exact.with_delta(Some(std::time::Duration::from_micros(50)));
        let r = Sparta.search(&ix, &q, &tiny, &WorkerPool::new(4));
        assert_eq!(r.hits.len(), 50, "still returns a full result set");
        assert!(
            r.hits.windows(2).all(|w| w[0].score >= w[1].score),
            "rank order preserved"
        );
    }

    #[test]
    fn work_stats_populated() {
        let ix = pseudo_index(3000, 3, 11);
        let q = Query::new(vec![0, 1, 2]);
        let cfg = SearchConfig::exact(10).with_seg_size(64).with_phi(128);
        // Peak tracking must be branch-independent: a single worker
        // that jumps straight to termMaps used to under-report it.
        for threads in [1, 3] {
            let r = Sparta.search(&ix, &q, &cfg, &WorkerPool::new(threads));
            assert!(r.work.postings_scanned > 0);
            assert!(r.work.heap_updates >= 10);
            assert_eq!(r.work.random_accesses, 0, "Sparta never random-accesses");
            assert!(
                r.work.docmap_peak >= r.work.docmap_final,
                "threads={threads}: peak {} < final {}",
                r.work.docmap_peak,
                r.work.docmap_final
            );
            assert!(
                r.work.docmap_peak > 10,
                "threads={threads}: peak {} never observed above k",
                r.work.docmap_peak
            );
            assert!(
                r.work.jobs_recycled > 0,
                "threads={threads}: segment continuations must recycle"
            );
        }
    }

    #[test]
    fn probabilistic_pruning_gamma_one_is_exact() {
        let ix = pseudo_index(4000, 4, 17);
        let q = Query::new(vec![0, 1, 2, 3]);
        let cfg = SearchConfig::exact(20).with_prune_gamma(1.0);
        let oracle = Oracle::compute(ix.as_ref(), &q, 20);
        let r = Sparta.search(&ix, &q, &cfg, &WorkerPool::new(4));
        assert_eq!(oracle.recall(&r.docs()), 1.0, "γ = 1 must stay safe");
    }

    #[test]
    fn probabilistic_pruning_trades_work_for_recall() {
        let ix = pseudo_index(20_000, 4, 19);
        let q = Query::new(vec![0, 1, 2, 3]);
        let base = SearchConfig::exact(50).with_seg_size(256);
        let oracle = Oracle::compute(ix.as_ref(), &q, 50);
        // Single-threaded for a deterministic job schedule — posting
        // counts are only comparable under identical interleavings.
        let exact = Sparta.search(&ix, &q, &base, &WorkerPool::new(1));
        let prob = Sparta.search(&ix, &q, &base.with_prune_gamma(0.9), &WorkerPool::new(1));
        assert_eq!(oracle.recall(&exact.docs()), 1.0);
        // γ = 0.9 prunes boundary candidates early: no more postings
        // than the safe run at a small recall cost. (On this uniform
        // synthetic index the recall-vs-γ curve is a cliff: boundary
        // candidates all have similar estimated bounds, so γ ≲ 0.7
        // drops the whole band at once — documented in EXPERIMENTS.md.)
        assert!(
            prob.work.postings_scanned <= exact.work.postings_scanned,
            "prob {} > exact {}",
            prob.work.postings_scanned,
            exact.work.postings_scanned
        );
        let rec = oracle.recall(&prob.docs());
        assert!(rec >= 0.9, "γ=0.9 recall collapsed to {rec}");
        assert_eq!(prob.hits.len(), 50);
    }

    #[test]
    #[should_panic(expected = "γ must be in (0, 1]")]
    fn invalid_gamma_rejected() {
        let _ = SearchConfig::exact(10).with_prune_gamma(1.5);
    }

    /// The phases whose `SpanBegin` landed in `rec`'s rings `workers`.
    fn phases_begun(
        rec: &FlightRecorder,
        workers: std::ops::Range<usize>,
    ) -> std::collections::BTreeSet<Phase> {
        let mut phases = std::collections::BTreeSet::new();
        for w in workers {
            rec.ring(w).for_each(|e| {
                if e.kind == EventKind::SpanBegin {
                    phases.extend(u8::try_from(e.payload).ok().and_then(Phase::from_index));
                }
            });
        }
        phases
    }

    #[test]
    fn spans_cover_every_phase() {
        let ix = pseudo_index(5000, 4, 23);
        let q = Query::new(vec![0, 1, 2, 3]);
        let cfg = SearchConfig::exact(10).with_seg_size(128).with_phi(512);
        // Rings 0..4 are the pool's workers, ring 4 the calling thread.
        let rec = FlightRecorder::new(5, 1 << 14, ClockMode::Logical);
        // An unrecorded run leaves every ring empty.
        Sparta.search(&ix, &q, &cfg, &WorkerPool::new(4));
        assert_eq!(rec.total_events(), 0);

        let pool = WorkerPool::with_recorder(4, None, Arc::clone(&rec));
        Sparta.search(&ix, &q, &cfg, &pool);
        let workers = phases_begun(&rec, 0..4);
        for phase in [Phase::TermProcess, Phase::Cleaner] {
            assert!(workers.contains(&phase), "missing {phase:?} span");
        }
        // Plan and the merge run on the caller, which holds no ring.
        assert!(!workers.contains(&Phase::Plan) && !workers.contains(&Phase::HeapMerge));
        assert!(phases_begun(&rec, 4..5).is_empty());

        {
            let _caller = rec.install(4);
            Sparta.search(&ix, &q, &cfg, &pool);
        }
        drop(pool);
        let caller = phases_begun(&rec, 4..5);
        for phase in [Phase::Plan, Phase::HeapMerge] {
            assert!(caller.contains(&phase), "missing {phase:?} span");
        }
    }

    #[test]
    fn trace_events_cover_final_heap() {
        let ix = pseudo_index(2000, 3, 13);
        let q = Query::new(vec![0, 1, 2]);
        let cfg = SearchConfig::exact(10).with_trace(true);
        let r = Sparta.search(&ix, &q, &cfg, &WorkerPool::new(3));
        let trace = r.trace.expect("trace enabled");
        let traced: std::collections::HashSet<DocId> = trace.iter().map(|e| e.doc).collect();
        for h in &r.hits {
            assert!(traced.contains(&h.doc), "hit {} missing from trace", h.doc);
        }
    }
}
