//! Focused stress tests for the concurrent collections (ISSUE
//! satellite): threshold monotonicity under random interleavings,
//! SwapCell publish visibility, ShardedCounter sum consistency, and
//! first-wins admission on DocTable, DenseDocTable and DocBitset.
//!
//! Randomized tests derive their RNG from `SPARTA_TEST_SEED` (default
//! 0) so any failure is replayable with the printed seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sparta_collections::{
    BoundedTopK, DenseDocTable, DocBitset, DocTable, Lookup, ShardedCounter, SwapCell,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn test_seed() -> u64 {
    std::env::var("SPARTA_TEST_SEED")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(0)
}

/// The top-k threshold (Θ) must be monotonically non-decreasing no
/// matter the order offers arrive in — Sparta's pruning correctness
/// rests on Θ only ever rising (a candidate pruned against Θ can never
/// become viable again).
#[test]
fn bounded_topk_threshold_monotone_under_random_interleavings() {
    let base = test_seed();
    for round in 0..32u64 {
        let seed = base.wrapping_add(round);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut heap: BoundedTopK<u32> = BoundedTopK::new(8);
        let mut last = 0u64;
        for i in 0..500u32 {
            let score: u64 = rng.gen_range(1..10_000);
            heap.offer(score, i);
            let theta = heap.threshold();
            assert!(
                theta >= last,
                "seed {seed}: threshold fell {last} -> {theta} (replay with \
                 SPARTA_TEST_SEED={seed})"
            );
            last = theta;
        }
    }
}

/// SwapCell's pointer swing must publish fully-built values: readers
/// racing with a writer may see the old or the new map, never a
/// half-initialized one, and the version they observe must be
/// monotone per reader (swaps happen in order from one writer).
#[test]
fn swap_cell_publishes_fully_built_values() {
    const VERSIONS: u64 = 2_000;
    // A value whose internal consistency is checkable: v.1 must always
    // equal v.0 * 2 + 1, which only holds if the whole tuple was
    // visible before the pointer swing.
    let cell = Arc::new(SwapCell::new((0u64, 1u64)));
    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|s| {
        for _ in 0..4 {
            let cell = Arc::clone(&cell);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                let mut last = 0u64;
                while !stop.load(Ordering::Acquire) {
                    let v = cell.load();
                    assert_eq!(v.1, v.0 * 2 + 1, "torn publication of version {}", v.0);
                    assert!(v.0 >= last, "version went backwards: {last} -> {}", v.0);
                    last = v.0;
                }
            });
        }
        for ver in 1..=VERSIONS {
            cell.swap(Arc::new((ver, ver * 2 + 1)));
        }
        stop.store(true, Ordering::Release);
    });
    assert_eq!(cell.load().0, VERSIONS);
}

/// The sharded counter must never lose increments: concurrent adds
/// from many threads sum exactly, and `get` during the run is always
/// ≤ the true total (monotone, no phantom counts).
#[test]
fn sharded_counter_sum_consistency() {
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 100_000;
    let c = Arc::new(ShardedCounter::new());
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            let c = Arc::clone(&c);
            s.spawn(move || {
                for _ in 0..PER_THREAD {
                    c.incr();
                }
            });
        }
        // Concurrent observer: totals must never exceed the maximum.
        let c2 = Arc::clone(&c);
        s.spawn(move || {
            let mut last = 0;
            for _ in 0..1_000 {
                let now = c2.get();
                assert!(now >= last, "counter went backwards: {last} -> {now}");
                assert!(now <= THREADS * PER_THREAD, "phantom increments: {now}");
                last = now;
            }
        });
    });
    assert_eq!(c.get(), THREADS * PER_THREAD);
    c.add(5);
    assert_eq!(c.get(), THREADS * PER_THREAD + 5);
    c.reset();
    assert_eq!(c.get(), 0);
}

/// The `docMap` guarantee on the lock-free table: four threads race to
/// admit the same documents (in different orders), each offering a
/// handle of its own; every document ends with exactly one handle —
/// one of those offered for it — and every thread was told that same
/// handle, whether it won the slot or adopted the winner's.
#[test]
fn doc_table_one_handle_per_doc_under_contention() {
    const THREADS: u32 = 4;
    const DOCS: u32 = 3000;
    let base = test_seed() as u32;
    let table = DocTable::with_capacity(DOCS as usize);
    let start = std::sync::Barrier::new(THREADS as usize);
    let told: Vec<Vec<(u32, u32, bool)>> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let (table, start) = (&table, &start);
                s.spawn(move || {
                    start.wait();
                    let mut out = Vec::with_capacity(DOCS as usize);
                    let mut won = 0;
                    for i in 0..DOCS {
                        // A per-thread stride walks the same set in a
                        // different order (3000 is coprime to each).
                        let doc = (i * [7, 11, 13, 17][t as usize] + base) % DOCS;
                        // Handles are unique per (thread, doc).
                        let mine = t * DOCS + doc;
                        match table.get_or_try_insert_with(doc, true, || mine) {
                            Lookup::Inserted(h) => {
                                assert_eq!(h, mine);
                                won += 1;
                                out.push((doc, h, true));
                            }
                            Lookup::Found(h) => out.push((doc, h, false)),
                            other => panic!("insertion was allowed and sized for: {other:?}"),
                        }
                    }
                    table.add_len(won);
                    out
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    assert_eq!(table.len(), DOCS as usize, "exactly one winner per doc");
    for per_thread in &told {
        for &(doc, h, _) in per_thread {
            assert_eq!(
                table.get(doc),
                Some(h),
                "doc {doc}: a thread holds a stale handle"
            );
            assert_eq!(h % DOCS, doc, "doc {doc}: handle offered for another doc");
        }
    }
    let winners = told.iter().flatten().filter(|&&(_, _, won)| won).count();
    assert_eq!(winners, DOCS as usize);
}

/// The same guarantee on the doc-indexed table: two threads admit
/// overlapping id ranges (the middle third contested, walked in
/// opposite directions so they meet), each offering handles of its
/// own. Every id ends with exactly one handle, each contested id has
/// one winner, and both threads were told the winner's handle.
#[test]
fn dense_doc_table_one_handle_per_doc_across_two_threads() {
    const DOCS: u32 = 3000;
    let table = DenseDocTable::with_capacity(DOCS as usize);
    let start = std::sync::Barrier::new(2);
    let told: Vec<Vec<(u32, u32, bool)>> = std::thread::scope(|s| {
        let workers: Vec<_> = [(0..2000u32, false), (1000..DOCS, true)]
            .into_iter()
            .enumerate()
            .map(|(t, (ids, reverse))| {
                let (table, start) = (&table, &start);
                s.spawn(move || {
                    start.wait();
                    let ids: Vec<u32> = if reverse {
                        ids.rev().collect()
                    } else {
                        ids.collect()
                    };
                    let mut out = Vec::with_capacity(ids.len());
                    let mut won = 0;
                    for doc in ids {
                        let mine = t as u32 * DOCS + doc;
                        match table.get_or_try_insert_with(doc, true, || mine) {
                            Lookup::Inserted(h) => {
                                assert_eq!(h, mine);
                                won += 1;
                                out.push((doc, h, true));
                            }
                            Lookup::Found(h) => out.push((doc, h, false)),
                            other => panic!("doc {doc}: {other:?}"),
                        }
                    }
                    table.add_len(won);
                    out
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    assert_eq!(table.len(), DOCS as usize, "exactly one winner per doc");
    for &(doc, h, _) in told.iter().flatten() {
        assert_eq!(table.get(doc), Some(h), "doc {doc}: a stale handle");
        assert_eq!(h % DOCS, doc, "doc {doc}: handle offered for another doc");
    }
    let winners = told.iter().flatten().filter(|&&(_, _, won)| won).count();
    assert_eq!(winners, DOCS as usize);
}

/// pRA's first-wins claim under real contention: four threads claim
/// the same shuffled id set (with repeats, and packed 64 to a word, so
/// neighbouring bits are contested too). Every id has exactly one
/// first claimant across all threads, and the reported length is the number
/// of distinct ids.
#[test]
fn doc_bitset_one_first_per_doc_under_contention() {
    const THREADS: u64 = 4;
    const DOCS: u32 = 2000;
    let base = test_seed();
    // A shared pool of ids: about three quarters of the space, each
    // drawn possibly several times.
    let mut rng = StdRng::seed_from_u64(base ^ 0xB175E7);
    let pool: Vec<u32> = (0..3000).map(|_| rng.gen_range(0..DOCS)).collect();
    let mut distinct = pool.clone();
    distinct.sort_unstable();
    distinct.dedup();

    let seen = DocBitset::with_capacity(DOCS as usize);
    let start = std::sync::Barrier::new(THREADS as usize);
    let firsts: Vec<Vec<u32>> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let (seen, start, pool) = (&seen, &start, &pool);
                s.spawn(move || {
                    // Each thread walks the pool in its own order.
                    let mut order = pool.clone();
                    let mut rng = StdRng::seed_from_u64(base.wrapping_add(t));
                    for i in (1..order.len()).rev() {
                        order.swap(i, rng.gen_range(0..=i));
                    }
                    start.wait();
                    order.into_iter().filter(|&d| seen.claim(d)).collect()
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    let mut won: Vec<u32> = firsts.into_iter().flatten().collect();
    won.sort_unstable();
    assert_eq!(
        won, distinct,
        "seed {base}: an id had no first or more than one"
    );
    assert_eq!(seen.len(), distinct.len(), "seed {base}");
}
