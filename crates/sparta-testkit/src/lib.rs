//! Shared test fixtures and the deterministic schedule-sweep driver.
//!
//! Every top-level integration test builds the same kind of synthetic
//! corpus, index, and query log; this crate centralizes those fixtures
//! so they are defined once, and adds the *schedule sweep*: re-running
//! a search across many [`DeterministicExecutor`] seeds and asserting
//! the algorithm's invariants on every explored schedule.
//!
//! ## Seed replay
//!
//! Sweeps derive their seeds from [`base_seed`], which reads the
//! `SPARTA_TEST_SEED` environment variable. When an invariant fails,
//! the harness panics with the offending schedule seed and the exact
//! command to replay it:
//!
//! ```sh
//! SPARTA_TEST_SEED=17 cargo test -p sparta <failing test>
//! ```

#![warn(missing_docs)]

use sparta_core::config::SearchConfig;
use sparta_core::oracle::Oracle;
use sparta_core::result::TopKResult;
use sparta_core::Algorithm;
use sparta_corpus::{CorpusModel, Query, QueryLog, SynthCorpus, TfIdfScorer};
use sparta_exec::{DeterministicExecutor, WorkerPool};
use sparta_index::{Index, IndexBuilder};
use std::sync::Arc;

/// Default sweep base when `SPARTA_TEST_SEED` is unset.
pub const DEFAULT_BASE_SEED: u64 = 0x5EED_0000;

/// The base seed for schedule sweeps: `SPARTA_TEST_SEED` if set (any
/// failing sweep prints the exact value to export), else
/// [`DEFAULT_BASE_SEED`].
pub fn base_seed() -> u64 {
    match std::env::var("SPARTA_TEST_SEED") {
        Ok(s) => s
            .trim()
            .parse()
            .unwrap_or_else(|_| panic!("SPARTA_TEST_SEED must be a u64, got {s:?}")),
        Err(_) => DEFAULT_BASE_SEED,
    }
}

/// The standard integration-test corpus: the paper's ClueWeb-like
/// synthetic generator at toy scale.
pub fn build_corpus(seed: u64) -> SynthCorpus {
    SynthCorpus::build(CorpusModel::tiny(seed))
}

/// Builds the standard integration-test fixture: [`build_corpus`]
/// indexed in memory with tf-idf scoring.
pub fn build_index(seed: u64) -> (Arc<dyn Index>, SynthCorpus) {
    let corpus = build_corpus(seed);
    let ix: Arc<dyn Index> = Arc::new(IndexBuilder::new(TfIdfScorer).build_memory(&corpus));
    (ix, corpus)
}

/// Generates `per_len` queries of every length `1..=max_len` drawn
/// from the corpus's term distribution.
pub fn queries(corpus: &SynthCorpus, per_len: usize, max_len: usize, seed: u64) -> Vec<Query> {
    let log = QueryLog::generate(corpus.stats(), per_len, max_len, seed);
    (1..=max_len)
        .flat_map(|m| log.of_length(m).to_vec())
        .collect()
}

/// One 8-term query — the long-query regime where approximation knobs
/// and the cleaner have the most work to do.
pub fn long_query(corpus: &SynthCorpus, seed: u64) -> Query {
    QueryLog::generate(corpus.stats(), 1, 8, seed).of_length(8)[0].clone()
}

/// Runs `check` once per schedule seed, for `n` consecutive seeds
/// starting at [`base_seed`]. A panic inside `check` is re-thrown after
/// printing the failing seed and the replay command, so a sweep failure
/// is reproducible in isolation.
pub fn sweep_schedules<F>(n: u64, mut check: F)
where
    F: FnMut(u64, &DeterministicExecutor),
{
    let base = base_seed();
    for i in 0..n {
        let seed = base.wrapping_add(i);
        let exec = DeterministicExecutor::new(seed);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            check(seed, &exec);
        }));
        if let Err(cause) = outcome {
            eprintln!(
                "schedule sweep failed at seed {seed} (base {base}, schedule {i}/{n}); \
                 replay with: SPARTA_TEST_SEED={seed} cargo test"
            );
            std::panic::resume_unwind(cause);
        }
    }
}

/// Runs `check` once per seed against a fresh [`WorkerPool`] whose
/// size is derived from the seed (1..=4 workers), for `n` consecutive
/// seeds starting at [`base_seed`]. Each iteration constructs the pool,
/// runs the check, and drops the pool — so every seed exercises worker
/// spawn, the park/unpark path while the check runs, and the full
/// retire/join shutdown handshake, across the different worker counts.
/// Panics inside `check` are re-thrown after printing the failing seed
/// and the `SPARTA_TEST_SEED` replay command, like [`sweep_schedules`].
pub fn sweep_pool_schedules<F>(n: u64, mut check: F)
where
    F: FnMut(u64, &WorkerPool),
{
    let base = base_seed();
    for i in 0..n {
        let seed = base.wrapping_add(i);
        // SplitMix64 finalizer: decorrelate worker count from the seed
        // sequence so consecutive seeds do not walk sizes in lockstep.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        let threads = 1 + (z ^ (z >> 31)) as usize % 4;
        let pool = WorkerPool::new(threads);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            check(seed, &pool);
        }));
        if let Err(cause) = outcome {
            eprintln!(
                "pool schedule sweep failed at seed {seed} ({threads} workers, \
                 base {base}, schedule {i}/{n}); \
                 replay with: SPARTA_TEST_SEED={seed} cargo test"
            );
            std::panic::resume_unwind(cause);
        }
        drop(pool);
    }
}

/// Asserts the invariants every *exact* run must satisfy on every
/// schedule: perfect recall against the oracle, rank-ordered hits, and
/// reported scores that never exceed the true document scores (NRA
/// lower-bound semantics; full-scoring algorithms satisfy it with
/// equality).
pub fn assert_exact_invariants(oracle: &Oracle, r: &TopKResult, context: &str) {
    assert_eq!(
        oracle.recall(&r.docs()),
        1.0,
        "{context}: exact run missed the true top-k: got {:?}",
        r.docs()
    );
    assert!(
        r.hits.windows(2).all(|w| w[0].score >= w[1].score),
        "{context}: hits not rank-ordered"
    );
    for h in &r.hits {
        assert!(
            h.score <= oracle.score(h.doc),
            "{context}: reported score {} exceeds true score {} for doc {}",
            h.score,
            oracle.score(h.doc),
            h.doc
        );
    }
}

/// Asserts Sparta's Eq. 2 termination evidence: an exact run stops only
/// when the candidate map has been pruned down to exactly the heap
/// members (`|docMap| == |docHeap|`), and never via the Δ timeout.
pub fn assert_eq2_termination(r: &TopKResult, context: &str) {
    assert_eq!(
        r.work.timeout_stops, 0,
        "{context}: exact run stopped on the Δ timeout"
    );
    assert_eq!(
        r.work.docmap_final,
        r.hits.len() as u64,
        "{context}: |docMap| != |docHeap| at termination (Eq. 2 violated)"
    );
}

/// Convenience: run `algo` on the standard fixture with `exec` and the
/// given config.
pub fn run(
    algo: &dyn Algorithm,
    ix: &Arc<dyn Index>,
    q: &Query,
    cfg: &SearchConfig,
    exec: &DeterministicExecutor,
) -> TopKResult {
    algo.search(ix, q, cfg, exec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparta_core::sparta::Sparta;

    #[test]
    fn fixture_is_deterministic() {
        let (a, _) = build_index(9);
        let (b, _) = build_index(9);
        assert_eq!(a.num_docs(), b.num_docs());
    }

    #[test]
    fn sweep_reports_failing_seed() {
        let caught = std::panic::catch_unwind(|| {
            sweep_schedules(4, |seed, _| {
                assert_ne!(seed, base_seed().wrapping_add(2), "planted failure");
            });
        });
        assert!(caught.is_err(), "sweep must propagate the panic");
    }

    #[test]
    fn exact_invariants_hold_on_default_schedule() {
        let (ix, corpus) = build_index(3);
        let q = long_query(&corpus, 1);
        let cfg = SearchConfig::exact(10).with_seg_size(64).with_phi(256);
        let oracle = Oracle::compute(ix.as_ref(), &q, 10);
        sweep_schedules(4, |seed, exec| {
            let r = Sparta.search(&ix, &q, &cfg, exec);
            assert_exact_invariants(&oracle, &r, &format!("sparta seed {seed}"));
            assert_eq2_termination(&r, &format!("sparta seed {seed}"));
        });
    }
}
