//! Deterministic schedule replay and fault injection.
//!
//! ```sh
//! cargo run --release --example determinism [seed]
//! ```
//!
//! Runs the same Sparta query under the seeded single-threaded
//! [`DeterministicExecutor`]: replaying a seed reproduces the exact
//! interleaving bit-for-bit, different seeds explore different
//! schedules, and a [`FaultPlan`] injects panics / delays / lost
//! continuations at chosen scheduling steps.

use sparta::prelude::*;
use std::sync::Arc;

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("seed must be a u64"))
        .unwrap_or(42);

    // A small synthetic corpus (the paper's ClueWeb-like generator).
    let corpus = SynthCorpus::build(CorpusModel::tiny(7));
    let index: Arc<dyn Index> = Arc::new(IndexBuilder::new(TfIdfScorer).build_memory(&corpus));
    // A 4-term query: enough segment jobs for seeds to interleave, and
    // for the faults below to land inside the run.
    let query = QueryLog::generate(corpus.stats(), 1, 4, 11).of_length(4)[0].clone();
    let cfg = SearchConfig::exact(10).with_seg_size(64);
    let oracle = Oracle::compute(index.as_ref(), &query, cfg.k);

    // 1. Same seed => bit-identical results AND work counters.
    let run = |exec: &DeterministicExecutor| Sparta.search(&index, &query, &cfg, exec);
    let a = run(&DeterministicExecutor::new(seed));
    let b = run(&DeterministicExecutor::new(seed));
    assert_eq!(a.hits, b.hits);
    assert_eq!(a.work, b.work);
    println!(
        "seed {seed}: replay is bit-identical ({} hits, {} postings scanned, {} cleaner passes)",
        a.hits.len(),
        a.work.postings_scanned,
        a.work.cleaner_passes
    );

    // 2. Different seeds explore different schedules; results never change.
    let mut profiles = std::collections::HashSet::new();
    for s in 0..16 {
        let r = run(&DeterministicExecutor::new(s));
        assert_eq!(oracle.recall(&r.docs()), 1.0, "seed {s} lost recall");
        assert_eq!(r.work.docmap_final, r.hits.len() as u64, "Eq. 2 at stop");
        profiles.insert((
            r.work.postings_scanned,
            r.work.cleaner_passes,
            r.work.docmap_peak,
        ));
    }
    println!(
        "16 seeds -> {} distinct schedule fingerprints, recall 1.0 on all",
        profiles.len()
    );

    // 3. Inject a panicking job: it is caught, counted, and the query
    //    still returns the exact top-k.
    let faulty = DeterministicExecutor::new(seed).with_faults(FaultPlan::none().panic_at(3));
    let r = run(&faulty);
    assert_eq!(r.work.jobs_panicked, 1);
    assert_eq!(oracle.recall(&r.docs()), 1.0);
    println!(
        "panic at step 3: jobs_panicked = {}, recall still {:.1}",
        r.work.jobs_panicked,
        oracle.recall(&r.docs())
    );

    // 4. Drop a continuation: the query may lose recall but must still
    //    terminate (the jobs drain, and one last cleaner pass runs
    //    inline after the join).
    let lossy = DeterministicExecutor::new(seed).with_faults(FaultPlan::none().drop_at(2));
    let r = run(&lossy);
    println!(
        "dropped continuation at step 2: terminated with {} hits (recall {:.2})",
        r.hits.len(),
        oracle.recall(&r.docs())
    );
}
