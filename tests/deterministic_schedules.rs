//! Schedule-exploration tests built on the deterministic executor:
//! one seed ⇒ one exactly replayable schedule. Failures print the seed;
//! replay with `SPARTA_TEST_SEED=<n> cargo test --test deterministic_schedules`.

use sparta::prelude::*;
use sparta_testkit::{
    assert_eq2_termination, assert_exact_invariants, base_seed, build_index, long_query, queries,
    sweep_schedules,
};
use std::time::Duration;

/// Same seed ⇒ bit-identical result: identical hits *and* identical
/// work counters.
#[test]
fn same_seed_is_bit_identical() {
    let (ix, corpus) = build_index(61);
    let q = long_query(&corpus, 1);
    let cfg = SearchConfig::exact(20).with_seg_size(64).with_phi(256);
    for offset in 0..8u64 {
        let seed = base_seed().wrapping_add(offset);
        let a = Sparta.search(&ix, &q, &cfg, &DeterministicExecutor::new(seed));
        let b = Sparta.search(&ix, &q, &cfg, &DeterministicExecutor::new(seed));
        assert_eq!(a.hits, b.hits, "seed {seed}: hits diverged");
        assert_eq!(a.work, b.work, "seed {seed}: work counters diverged");
    }
}

/// Different seeds must actually explore *different* schedules — the
/// sweep is vacuous otherwise. Hits stay identical (exactness is
/// schedule-independent); the work profile is the schedule fingerprint.
#[test]
fn seeds_explore_at_least_two_schedules_of_64() {
    let (ix, corpus) = build_index(62);
    let q = long_query(&corpus, 2);
    let cfg = SearchConfig::exact(20).with_seg_size(64).with_phi(256);
    let oracle = Oracle::compute(ix.as_ref(), &q, 20);
    let mut fingerprints = std::collections::HashSet::new();
    sweep_schedules(64, |seed, exec| {
        let r = Sparta.search(&ix, &q, &cfg, exec);
        assert_exact_invariants(&oracle, &r, &format!("sparta seed {seed}"));
        fingerprints.insert((
            r.work.postings_scanned,
            r.work.cleaner_passes,
            r.work.docmap_peak,
        ));
    });
    assert!(
        fingerprints.len() >= 2,
        "64 seeds produced {} distinct work profiles — the executor is \
         not exploring schedules",
        fingerprints.len()
    );
}

/// Regression for the termination conditions (ISSUE satellite): the
/// exact variant stops via Eq. 2 — `|docMap| == |docHeap|`, never the
/// Δ timeout — on every one of ≥32 explored schedules.
#[test]
fn exact_terminates_via_eq2_on_all_schedules() {
    let (ix, corpus) = build_index(63);
    let q = long_query(&corpus, 3);
    let cfg = SearchConfig::exact(15).with_seg_size(64).with_phi(256);
    let oracle = Oracle::compute(ix.as_ref(), &q, 15);
    sweep_schedules(32, |seed, exec| {
        let r = Sparta.search(&ix, &q, &cfg, exec);
        let ctx = format!("sparta exact seed {seed}");
        assert_exact_invariants(&oracle, &r, &ctx);
        assert_eq2_termination(&r, &ctx);
    });
}

/// The approximate variant must respect its Δ budget on every
/// schedule: it terminates, returns a structurally valid result, and
/// any early stop is recorded as a timeout stop (never more than one —
/// `done` latches).
#[test]
fn approximate_respects_delta_on_all_schedules() {
    let (ix, corpus) = build_index(64);
    let q = long_query(&corpus, 4);
    let cfg = SearchConfig::exact(15)
        .with_seg_size(64)
        .with_phi(256)
        .with_delta(Some(Duration::from_micros(1)));
    sweep_schedules(32, |seed, exec| {
        let r = Sparta.search(&ix, &q, &cfg, exec);
        assert!(!r.hits.is_empty(), "seed {seed}: no hits under tiny Δ");
        assert!(
            r.hits.windows(2).all(|w| w[0].score >= w[1].score),
            "seed {seed}: rank order broken"
        );
        assert!(
            r.work.timeout_stops <= 1,
            "seed {seed}: done flag must latch after the first stop"
        );
    });
}

/// NRA-family partial scores stay lower bounds on every schedule, for
/// every NRA-family algorithm (not just Sparta).
#[test]
fn nra_family_lower_bounds_hold_on_all_schedules() {
    let (ix, corpus) = build_index(65);
    let q = queries(&corpus, 1, 5, 5).pop().unwrap();
    let cfg = SearchConfig::exact(10).with_seg_size(64).with_phi(128);
    let oracle = Oracle::compute(ix.as_ref(), &q, 10);
    for name in ["pnra", "snra", "sparta"] {
        let algo = sparta::core::algorithm_by_name(name).unwrap();
        sweep_schedules(16, |seed, exec| {
            let r = algo.search(&ix, &q, &cfg, exec);
            assert_eq!(
                oracle.recall(&r.docs()),
                1.0,
                "{name} seed {seed}: missed top-k"
            );
            for h in &r.hits {
                assert!(
                    h.score <= oracle.score(h.doc),
                    "{name} seed {seed}: LB {} exceeds true score {} for doc {}",
                    h.score,
                    oracle.score(h.doc),
                    h.doc
                );
            }
        });
    }
}

/// All exact algorithms agree with the oracle under explored schedules
/// (the deterministic analogue of `algorithms_agree`).
#[test]
fn all_algorithms_exact_under_explored_schedules() {
    let (ix, corpus) = build_index(66);
    let q = queries(&corpus, 1, 4, 7).pop().unwrap();
    let cfg = SearchConfig::exact(12).with_seg_size(64).with_phi(128);
    let oracle = Oracle::compute(ix.as_ref(), &q, 12);
    for algo in sparta::core::registry::all_algorithms() {
        sweep_schedules(8, |seed, exec| {
            let r = algo.search(&ix, &q, &cfg, exec);
            assert_eq!(
                oracle.recall(&r.docs()),
                1.0,
                "{} seed {seed}: missed top-k",
                algo.name()
            );
        });
    }
}
