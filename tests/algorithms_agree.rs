//! Cross-algorithm integration tests: every exact algorithm must
//! retrieve the true top-k (verified against the exhaustive oracle) on
//! the same synthetic corpora the benchmarks use, across thread
//! counts; approximate variants must trade recall coherently.

use sparta::prelude::*;
use sparta_testkit::build_index as build;
use std::sync::Arc;

fn queries(corpus: &SynthCorpus, max_len: usize, seed: u64) -> Vec<Query> {
    sparta_testkit::queries(corpus, 3, max_len, seed)
}

#[test]
fn all_exact_algorithms_match_oracle() {
    let (ix, corpus) = build(1);
    let algos = sparta::core::registry::all_algorithms();
    for q in queries(&corpus, 6, 2) {
        let k = 20;
        let oracle = Oracle::compute(ix.as_ref(), &q, k);
        let cfg = SearchConfig::exact(k).with_seg_size(128).with_phi(512);
        for algo in &algos {
            for threads in [1usize, 4] {
                let exec = WorkerPool::new(threads);
                let r = algo.search(&ix, &q, &cfg, &exec);
                assert_eq!(
                    oracle.recall(&r.docs()),
                    1.0,
                    "{} (t={threads}) missed top-k for {:?}: got {:?}",
                    algo.name(),
                    q.terms,
                    r.docs()
                );
            }
        }
    }
}

#[test]
fn full_scoring_algorithms_report_exact_scores() {
    let (ix, corpus) = build(3);
    let q = &queries(&corpus, 4, 5)[6]; // a multi-term query
    let k = 15;
    let oracle = Oracle::compute(ix.as_ref(), q, k);
    let cfg = SearchConfig::exact(k);
    let exec = WorkerPool::new(4);
    for name in [
        "ra", "pra", "bmw", "pbmw", "wand", "maxscore", "jass", "pjass",
    ] {
        let algo = sparta::core::algorithm_by_name(name).unwrap();
        let r = algo.search(&ix, q, &cfg, &exec);
        for h in &r.hits {
            assert_eq!(
                h.score,
                oracle.score(h.doc),
                "{name} reported wrong score for doc {}",
                h.doc
            );
        }
    }
}

#[test]
fn nra_family_scores_are_lower_bounds() {
    let (ix, corpus) = build(4);
    let q = &queries(&corpus, 5, 7)[9];
    let k = 10;
    let oracle = Oracle::compute(ix.as_ref(), q, k);
    let cfg = SearchConfig::exact(k);
    let exec = WorkerPool::new(4);
    for name in ["nra", "pnra", "snra", "sparta"] {
        let algo = sparta::core::algorithm_by_name(name).unwrap();
        let r = algo.search(&ix, q, &cfg, &exec);
        for h in &r.hits {
            assert!(
                h.score <= oracle.score(h.doc),
                "{name}: LB {} exceeds true score {} for doc {}",
                h.score,
                oracle.score(h.doc),
                h.doc
            );
        }
    }
}

#[test]
fn sparta_delta_variants_order_recall() {
    // Tighter Δ ⇒ earlier stop ⇒ recall no higher (statistically;
    // we allow equality).
    let (ix, corpus) = build(5);
    let q = Query::new(queries(&corpus, 8, 11).into_iter().last().unwrap().terms);
    let k = 50;
    let oracle = Oracle::compute(ix.as_ref(), &q, k);
    let exec = WorkerPool::new(4);
    let base = SearchConfig::exact(k).with_seg_size(128);
    let r_exact = Sparta.search(&ix, &q, &base, &exec);
    let r_loose = Sparta.search(
        &ix,
        &q,
        &base.with_delta(Some(std::time::Duration::from_millis(200))),
        &exec,
    );
    assert_eq!(oracle.recall(&r_exact.docs()), 1.0);
    // A generous Δ on a tiny corpus usually completes exactly too.
    assert!(oracle.recall(&r_loose.docs()) >= 0.8);
}

#[test]
fn all_algorithms_handle_single_term_queries() {
    let (ix, corpus) = build(6);
    let q = queries(&corpus, 1, 13)[0].clone();
    let k = 10;
    let oracle = Oracle::compute(ix.as_ref(), &q, k);
    let cfg = SearchConfig::exact(k);
    let exec = WorkerPool::new(2);
    for algo in sparta::core::registry::all_algorithms() {
        let r = algo.search(&ix, &q, &cfg, &exec);
        assert_eq!(oracle.recall(&r.docs()), 1.0, "{}", algo.name());
    }
}

#[test]
fn all_algorithms_handle_rare_term_queries() {
    // Query a tail term with very few postings: fewer matches than k.
    let (ix, corpus) = build(7);
    let stats = corpus.stats();
    let rare = (0..stats.vocab_size() as u32)
        .filter(|&t| stats.df(t) >= 1)
        .min_by_key(|&t| stats.df(t))
        .expect("corpus has terms");
    let q = Query::new(vec![rare]);
    // Force the fewer-matches-than-k regime.
    let k = 2 * stats.df(rare) as usize;
    let oracle = Oracle::compute(ix.as_ref(), &q, k);
    let cfg = SearchConfig::exact(k);
    let exec = WorkerPool::new(2);
    for algo in sparta::core::registry::all_algorithms() {
        let r = algo.search(&ix, &q, &cfg, &exec);
        assert_eq!(
            r.hits.len(),
            oracle.topk().len(),
            "{} returned wrong count for rare term",
            algo.name()
        );
        assert_eq!(oracle.recall(&r.docs()), 1.0, "{}", algo.name());
    }
}

#[test]
fn work_profiles_match_paper_characterization() {
    // The qualitative work-based claims of §5.3 on a mid-size query.
    let (ix, corpus) = build(8);
    let q = queries(&corpus, 6, 17).pop().unwrap();
    let k = 30;
    let cfg = SearchConfig::exact(k).with_seg_size(128).with_phi(512);
    let exec = WorkerPool::new(4);
    let get = |name: &str| {
        sparta::core::algorithm_by_name(name)
            .unwrap()
            .search(&ix, &q, &cfg, &exec)
    };
    let sparta = get("sparta");
    let pra = get("pra");
    let pjass = get("pjass");
    let snra = get("snra");
    // Only the RA family random-accesses.
    assert_eq!(sparta.work.random_accesses, 0);
    assert!(pra.work.random_accesses > 0);
    // pJASS-exact scans every posting of the query's lists.
    let total: u64 = q.terms.iter().map(|&t| ix.doc_freq(t)).sum();
    assert_eq!(pjass.work.postings_scanned, total);
    // Shared-nothing scans at least as much as shared-state Sparta.
    assert!(snra.work.postings_scanned >= sparta.work.postings_scanned);
}

#[test]
fn sparta_early_stops_on_skewed_lists() {
    // Exact early stopping requires the top-k to be unambiguous well
    // before exhaustion: plant k clear winners that score high in
    // every list, far above everything else. UBStop then fires right
    // after the winners' band and the cleaner prunes the rest.
    use sparta::index::Posting;
    let n = 50_000u32;
    let k = 10u32;
    let lists: Vec<Vec<Posting>> = (0..3u32)
        .map(|t| {
            (0..n)
                .map(|d| {
                    let x = d.wrapping_mul(2654435761).wrapping_add(t * 977);
                    let score = if d < k {
                        500_000 + d * 13 + t
                    } else {
                        1 + x % 100
                    };
                    Posting::new(d, score)
                })
                .collect()
        })
        .collect();
    let ix: Arc<dyn Index> = Arc::new(InMemoryIndex::from_term_postings(lists, u64::from(n)));
    let q = Query::new(vec![0, 1, 2]);
    let cfg = SearchConfig::exact(k as usize)
        .with_seg_size(512)
        .with_phi(4096);
    let total = 3 * u64::from(n);
    let oracle = Oracle::compute(ix.as_ref(), &q, k as usize);
    // Real threads. Between UBStop and the cleaner's verdict the other
    // workers keep scanning, so a cleaner thread the OS preempts (three
    // workers, often on two cores) lets them run the lists dry: one
    // run's count can measure the scheduler rather than Sparta. Every
    // attempt must be exact; the early stop must show within a few.
    let mut best = u64::MAX;
    for _ in 0..8 {
        let r = Sparta.search(&ix, &q, &cfg, &WorkerPool::new(3));
        assert_eq!(oracle.recall(&r.docs()), 1.0);
        best = best.min(r.work.postings_scanned);
        if best < total / 4 {
            break;
        }
    }
    assert!(best < total / 4, "Sparta scanned {best} of {total}");
    // The same bound on every explored deterministic schedule, where a
    // failure replays from its seed.
    sparta_testkit::sweep_schedules(8, |seed, exec| {
        let r = Sparta.search(&ix, &q, &cfg, exec);
        assert!(
            r.work.postings_scanned < total / 4,
            "seed {seed}: Sparta scanned {} of {total}",
            r.work.postings_scanned
        );
        assert_eq!(oracle.recall(&r.docs()), 1.0, "seed {seed}");
    });
}
