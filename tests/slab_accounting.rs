//! Hot-path allocation accounting (ISSUE 3 acceptance): Sparta's,
//! pNRA's and pJASS's per-query candidate records live in a
//! [`DocSlab`] arena whose only heap allocations are its geometric
//! blocks, and segment
//! continuations recycle their job boxes instead of re-boxing a
//! closure per segment. Both claims are asserted here through the
//! slab's own accounting counters and the queue's recycle counter —
//! under deterministic schedule exploration, so a violation replays.
//!
//! Since PR 13 writers reserve record indices in runs of
//! [`RUN`](sparta::core::sparta::doc_slab::RUN) (one shared
//! `fetch_add` per run, not per document), so the accounting is over
//! *reserved* indices, and the cleaner's walk must skip what a run
//! reserved but never used.

use sparta::collections::{DocTable, Lookup};
use sparta::core::sparta::doc_slab::{DocHandle, DocSlab, SlabRun, RUN};
use sparta::exec::{CyclicJob, Job, JobQueue};
use sparta::prelude::*;
use sparta_testkit::{build_index, long_query, sweep_schedules};
use std::sync::{Arc, Mutex};

/// Smallest number of geometric blocks (base 256, doubling) whose
/// cumulative capacity covers `n` records.
fn blocks_needed(n: usize) -> usize {
    let mut blocks = 0;
    let mut cap = 0usize;
    while cap < n {
        cap += 256 << blocks;
        blocks += 1;
    }
    blocks
}

/// A writer that admits `per_step` documents per scheduling step as a
/// cyclic job — the same shape as Sparta's `PROCESSTERM` segments.
struct AdmitJob {
    slab: Arc<DocSlab>,
    handles: Arc<Mutex<Vec<DocHandle>>>,
    run: SlabRun,
    term: usize,
    next_id: u32,
    end_id: u32,
    per_step: u32,
}

impl CyclicJob for AdmitJob {
    fn run_step(&mut self) -> bool {
        let stop = self.end_id.min(self.next_id + self.per_step);
        let mut batch = Vec::with_capacity((stop - self.next_id) as usize);
        for id in self.next_id..stop {
            let h = self.slab.stage(&mut self.run, id);
            self.run.commit();
            // §4.3 ownership: this job is the sole scorer of its term;
            // the running sum commutes across owners.
            self.slab
                .record(h)
                .set_score(self.term, self.term as u32 + 1);
            batch.push(h);
        }
        self.handles.lock().unwrap().extend(batch);
        self.next_id = stop;
        self.next_id < self.end_id
    }
}

/// Direct slab stress across explored schedules: 4 cyclic writers
/// admit 1200 disjoint documents in interleaved steps, each from its
/// own reserved runs. Afterwards the slab must hold exactly one record
/// per document with the correct running sums, have performed exactly
/// one allocation per touched block (the ≤1-alloc-per-block acceptance
/// bound, with equality), the cleaner's walk must visit exactly the
/// admitted records — never a run's unused tail — and the queue must
/// have recycled every continuation step.
#[test]
fn doc_slab_stress_under_schedule_sweep() {
    const WRITERS: u32 = 4;
    const PER_WRITER: u32 = 300;
    const TOTAL: usize = (WRITERS * PER_WRITER) as usize;
    sweep_schedules(16, |seed, exec| {
        let slab = Arc::new(DocSlab::new(WRITERS as usize));
        let handles = Arc::new(Mutex::new(Vec::new()));
        let queue = JobQueue::new();
        for w in 0..WRITERS {
            queue.push(Job::cyclic(AdmitJob {
                slab: Arc::clone(&slab),
                handles: Arc::clone(&handles),
                run: SlabRun::default(),
                term: w as usize,
                next_id: w * PER_WRITER,
                end_id: (w + 1) * PER_WRITER,
                per_step: 30,
            }));
        }
        exec.run(Arc::clone(&queue));

        let ctx = format!("seed {seed}");
        // 300 admissions per writer = 9 full runs + 12 of a tenth:
        // every writer leaves a 20-record tail reserved but unused.
        let reserved = WRITERS as usize * (PER_WRITER as usize).next_multiple_of(RUN);
        assert_eq!(slab.reserved(), reserved, "{ctx}: run accounting");
        let handles = handles.lock().unwrap();
        let mut ids: Vec<DocId> = handles.iter().map(|&h| slab.record(h).id()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), TOTAL, "{ctx}: two handles share a record");
        let mut walked = Vec::with_capacity(TOTAL);
        slab.for_each_scored(|h, _| walked.push(h));
        let mut admitted: Vec<DocHandle> = handles.clone();
        admitted.sort_unstable_by_key(|h| h.index());
        assert_eq!(
            walked, admitted,
            "{ctx}: the cleaner's walk must visit every admitted record \
             and no unused run tail"
        );
        let total: u64 = handles.iter().map(|&h| slab.record(h).current_sum()).sum();
        assert_eq!(
            total,
            u64::from(PER_WRITER) * (1 + 2 + 3 + 4),
            "{ctx}: running sums corrupted under this schedule"
        );
        // Exactly one allocation per touched block: 1280 reserved
        // indices need blocks 0..=2 (256 + 512 + 1024 ≥ 1280), and the
        // last run staged lies in block 2 — never more.
        assert_eq!(
            slab.blocks_allocated(),
            blocks_needed(reserved),
            "{ctx}: slab performed more than one allocation per block"
        );
        // Each writer ran 10 steps as one recycled box: 9 recycles
        // per writer, zero fresh boxes after the initial push.
        assert_eq!(queue.recycled(), WRITERS as usize * 9, "{ctx}");
        assert_eq!(queue.executed(), TOTAL / 30, "{ctx}");
    });
}

/// One posting list's traversal in miniature: for each of its docs,
/// look the doc up in the shared table — staging a record from this
/// job's own run and claiming the slot if it is new — then score it.
/// Exactly the admission sequence of Sparta's and pNRA's `SegmentJob`.
struct ScoreJob {
    slab: Arc<DocSlab>,
    table: Arc<DocTable>,
    run: SlabRun,
    term: usize,
    docs: std::ops::Range<u32>,
    per_step: u32,
}

impl CyclicJob for ScoreJob {
    fn run_step(&mut self) -> bool {
        let stop = self.docs.end.min(self.docs.start + self.per_step);
        let mut admitted = 0;
        for doc in self.docs.start..stop {
            let make = || self.slab.stage(&mut self.run, doc).index();
            let h = match self.table.get_or_try_insert_with(doc, true, make) {
                Lookup::Found(h) => h,
                Lookup::Inserted(h) => {
                    self.run.commit();
                    admitted += 1;
                    h
                }
                other => unreachable!("insertion allowed and sized for: {other:?}"),
            };
            let score = doc * 2 + self.term as u32 + 1;
            self.slab
                .record(DocHandle::from_index(h))
                .set_score(self.term, score);
        }
        self.table.add_len(admitted);
        self.docs.start = stop;
        !self.docs.is_empty()
    }
}

/// Runs one `ScoreJob` per range (term = position) on `exec` and
/// checks that every doc ends with exactly one live record — the one
/// the table names — holding the scores of every range that covers it,
/// and that admitting them cost one allocation per slab block.
fn check_shared_records(ctx: &str, exec: &dyn Executor, ranges: &[std::ops::Range<u32>]) {
    let docs = ranges.iter().map(|r| r.end).max().unwrap();
    let slab = Arc::new(DocSlab::new(ranges.len()));
    let table = Arc::new(DocTable::with_capacity(docs as usize));
    let queue = JobQueue::new();
    for (term, docs) in ranges.iter().cloned().enumerate() {
        queue.push(Job::cyclic(ScoreJob {
            slab: Arc::clone(&slab),
            table: Arc::clone(&table),
            run: SlabRun::default(),
            term,
            docs,
            per_step: 25,
        }));
    }
    exec.run(Arc::clone(&queue));

    assert_eq!(
        table.len(),
        docs as usize,
        "{ctx}: admissions double-counted or lost"
    );
    let mut live = std::collections::HashMap::new();
    slab.for_each_scored(|h, rec| {
        let doc = rec.id();
        assert!(
            live.insert(doc, rec.current_sum()).is_none(),
            "{ctx}: doc {doc} has two live records"
        );
        assert_eq!(
            table.get(doc),
            Some(h.index()),
            "{ctx}: doc {doc}'s live record is not the one in the table"
        );
    });
    assert_eq!(live.len(), docs as usize, "{ctx}");
    // A lost claim re-stages the same record, so each job wastes at
    // most its last run's tail.
    assert!(
        slab.reserved() <= docs as usize + ranges.len() * RUN,
        "{ctx}: {} records reserved for {docs} docs",
        slab.reserved()
    );
    assert_eq!(
        slab.blocks_allocated(),
        blocks_needed(slab.reserved()),
        "{ctx}: an admission allocated outside the slab's blocks"
    );
    for doc in 0..docs {
        let want: u32 = ranges
            .iter()
            .enumerate()
            .filter(|(_, r)| r.contains(&doc))
            .map(|(term, _)| doc * 2 + term as u32 + 1)
            .sum();
        assert_eq!(live[&doc], u64::from(want), "{ctx}: doc {doc}");
    }
}

/// Two jobs admit *overlapping* document sets through the table under
/// explored schedules: whichever reaches a shared doc first admits it,
/// the other must find that record — so every doc ends with exactly
/// one live record, holding both jobs' scores where they overlap. Then
/// the same on real threads with four jobs walking the *same* docs in
/// lockstep, where claims are actually lost and the staged record must
/// be recycled, not leaked into the walk.
#[test]
fn overlapping_admissions_share_one_record() {
    sweep_schedules(16, |seed, exec| {
        check_shared_records(&format!("seed {seed}"), exec, &[0..400, 200..600]);
    });
    let exec = WorkerPool::new(4);
    for round in 0..8 {
        let ranges = [0..2000, 0..2000, 0..2000, 0..2000];
        check_shared_records(&format!("threads, round {round}"), &exec, &ranges);
    }
}

/// End-to-end accounting through Sparta itself: on every explored
/// schedule the reported work must show recycled segment
/// continuations (steady-state job boxes are reused, not
/// re-allocated), and the candidate map peak bounds the slab's record
/// count story (docmap_final ≤ docmap_peak).
#[test]
fn sparta_recycles_continuations_on_all_schedules() {
    let (ix, corpus) = build_index(67);
    let q = long_query(&corpus, 5);
    let cfg = SearchConfig::exact(15).with_seg_size(64).with_phi(256);
    sweep_schedules(16, |seed, exec| {
        let r = Sparta.search(&ix, &q, &cfg, exec);
        assert!(
            r.work.jobs_recycled > 0,
            "seed {seed}: multi-segment traversal allocated a fresh box \
             per segment instead of recycling"
        );
        assert!(
            r.work.docmap_final <= r.work.docmap_peak,
            "seed {seed}: docmap_peak {} below final {}",
            r.work.docmap_peak,
            r.work.docmap_final
        );
    });
}

/// pNRA never prunes, so every document of every list becomes — and
/// stays — a candidate. Its admission sequence at that scale costs
/// O(log candidates) allocations (four overlapping lists, 10 000
/// candidates, 6 blocks), and the search itself shows the map it
/// admitted into never shrank while its segment boxes were recycled.
#[test]
fn pnra_candidates_cost_slab_blocks_only() {
    sweep_schedules(4, |seed, exec| {
        let lists = [0..4000, 2000..6000, 4000..8000, 6000..10_000];
        check_shared_records(&format!("pnra scale, seed {seed}"), exec, &lists);
    });
    assert_eq!(blocks_needed(10_000 + 4 * RUN), 6);

    let (ix, corpus) = build_index(67);
    let q = long_query(&corpus, 5);
    let cfg = SearchConfig::exact(15).with_seg_size(64);
    sweep_schedules(16, |seed, exec| {
        let r = PNra.search(&ix, &q, &cfg, exec);
        assert!(r.work.jobs_recycled > 0, "seed {seed}: boxes not recycled");
        assert_eq!(
            r.work.docmap_final, r.work.docmap_peak,
            "seed {seed}: pNRA's candidate map shrank"
        );
        assert!(
            r.work.docmap_peak > 15,
            "seed {seed}: peak {} never grew beyond k",
            r.work.docmap_peak
        );
    });
}

/// pJASS accumulates into the same slab behind the same table: an
/// accumulator is a record (the admission mechanics are the ones
/// `check_shared_records` pins above), never an allocation of its own,
/// and nothing is ever pruned — the map ends holding exactly the
/// distinct documents of the query's lists.
#[test]
fn pjass_accumulators_are_slab_records() {
    let (ix, corpus) = build_index(67);
    let q = long_query(&corpus, 5);
    let mut distinct = std::collections::HashSet::new();
    for &t in &q.terms {
        let mut c = ix.doc_cursor(t);
        while let Some(d) = c.doc() {
            distinct.insert(d);
            c.advance();
        }
    }
    let cfg = SearchConfig::exact(15).with_seg_size(64);
    sweep_schedules(16, |seed, exec| {
        let r = PJass.search(&ix, &q, &cfg, exec);
        assert!(r.work.jobs_recycled > 0, "seed {seed}: boxes not recycled");
        assert_eq!(
            r.work.docmap_peak,
            distinct.len() as u64,
            "seed {seed}: one accumulator per distinct document"
        );
        assert_eq!(r.work.docmap_final, r.work.docmap_peak, "seed {seed}");
    });
}
