//! Behavioral contracts of the approximation knobs across the whole
//! algorithm suite: each knob must trade work for recall in the
//! documented direction, and the exact settings must be safe.

use sparta::collections::BoundedTopK;
use sparta::core::docorder::pbmw::bmw_range;
use sparta::core::{TraceSink, WorkStats};
use sparta::prelude::*;
use sparta_testkit::{build_index as build, long_query};
use std::time::Duration;

/// Sequential BMW — pBMW's range scan over `[0, num_docs)` with no Θ
/// floor — prunes no less as f grows.
#[test]
fn bmw_f_monotonically_prunes() {
    let (ix, corpus) = build(41);
    let q = long_query(&corpus, 1);
    let mut last = u64::MAX;
    for f in [1.0, 1.05, 1.2, 1.5, 2.0] {
        let mut cursors: Vec<_> = q.terms.iter().map(|&t| ix.doc_cursor(t)).collect();
        let mut work = WorkStats::default();
        bmw_range(
            &mut cursors,
            ix.num_docs(),
            &mut BoundedTopK::new(25),
            f,
            &|| 0,
            &mut work,
            &TraceSink::new(false),
        );
        assert!(
            work.postings_scanned <= last,
            "f={f}: scanned {} > previous {last}",
            work.postings_scanned
        );
        last = work.postings_scanned;
    }
}

/// At one worker pJASS's budget is exact: each segment is capped at
/// what is left of it.
#[test]
fn jass_p_budget_is_exact_for_sequential() {
    let (ix, corpus) = build(42);
    let q = long_query(&corpus, 2);
    let total: u64 = q.terms.iter().map(|&t| ix.doc_freq(t)).sum();
    let exec = WorkerPool::new(1);
    for p in [0.1, 0.25, 0.5, 1.0] {
        let cfg = SearchConfig::exact(25).with_jass_p(p);
        let r = PJass.search(&ix, &q, &cfg, &exec);
        let budget = ((total as f64) * p).ceil() as u64;
        assert!(
            r.work.postings_scanned <= budget,
            "p={p}: scanned {} over budget {budget}",
            r.work.postings_scanned
        );
        if p >= 1.0 {
            assert_eq!(r.work.postings_scanned, total, "p=1 is exhaustive");
        }
    }
}

#[test]
fn sparta_gamma_never_scans_more_than_safe() {
    let (ix, corpus) = build(43);
    let q = long_query(&corpus, 3);
    let exec = WorkerPool::new(1);
    let base = SearchConfig::exact(25).with_seg_size(64).with_phi(128);
    let safe = Sparta.search(&ix, &q, &base, &exec);
    for gamma in [0.95, 0.8, 0.6] {
        let r = Sparta.search(&ix, &q, &base.with_prune_gamma(gamma), &exec);
        assert!(
            r.work.postings_scanned <= safe.work.postings_scanned,
            "γ={gamma}: {} > safe {}",
            r.work.postings_scanned,
            safe.work.postings_scanned
        );
        assert_eq!(r.hits.len(), 25, "γ={gamma} returns a full set");
    }
}

#[test]
fn delta_zero_like_timeouts_still_return_k_results() {
    // Even an absurdly tight Δ must produce a structurally valid
    // result (k hits, rank-ordered) from every Δ-capable algorithm.
    let (ix, corpus) = build(44);
    let q = long_query(&corpus, 4);
    let cfg = SearchConfig::exact(20).with_delta(Some(Duration::from_micros(1)));
    let exec = WorkerPool::new(2);
    for name in ["sparta", "pra", "pnra", "snra"] {
        let algo = sparta::core::algorithm_by_name(name).unwrap();
        let r = algo.search(&ix, &q, &cfg, &exec);
        assert!(!r.hits.is_empty(), "{name} returned nothing");
        assert!(
            r.hits.windows(2).all(|w| w[0].score >= w[1].score),
            "{name} rank order broken"
        );
    }
}

#[test]
fn oracle_recall_is_bounded_and_ordered() {
    let (ix, corpus) = build(45);
    let q = long_query(&corpus, 5);
    let oracle = Oracle::compute(ix.as_ref(), &q, 30);
    // Truth itself scores 1.0; arbitrary docs are within [0, 1]; the
    // strict measure never exceeds the tie-aware one.
    let truth: Vec<DocId> = oracle.topk().iter().map(|h| h.doc).collect();
    assert_eq!(oracle.recall(&truth), 1.0);
    let junk: Vec<DocId> = (0..30).map(|i| i * 7 % 2000).collect();
    let r = oracle.recall(&junk);
    assert!((0.0..=1.0).contains(&r));
    assert!(oracle.strict_recall(&junk) <= r + 1e-12);
    assert_eq!(oracle.recall(&[]), 0.0);
}

#[test]
fn exact_variants_agree_on_true_score_multisets() {
    // The strongest cross-algorithm contract: the multiset of *true*
    // scores of the returned docs is identical for every exact
    // algorithm (doc identity may differ on score ties).
    let (ix, corpus) = build(46);
    let q = long_query(&corpus, 6);
    let k = 25;
    let oracle = Oracle::compute(ix.as_ref(), &q, k);
    let want: Vec<u64> = oracle.topk().iter().map(|h| h.score).collect();
    let cfg = SearchConfig::exact(k);
    let exec = WorkerPool::new(3);
    for algo in sparta::core::registry::all_algorithms() {
        let r = algo.search(&ix, &q, &cfg, &exec);
        let mut got: Vec<u64> = r.docs().iter().map(|&d| oracle.score(d)).collect();
        got.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(got, want, "{} true-score multiset differs", algo.name());
    }
}
