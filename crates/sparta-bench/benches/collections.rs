//! Substrate micro-benches: heap offers, swap-cell snapshots, the
//! doc-id hasher against SipHash, and Sparta's `docMap` operations on
//! the lock-free table.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sparta_collections::{BoundedTopK, DocTable, FastBuildHasher, SwapCell};
use std::collections::HashMap;
use std::hash::BuildHasher;
use std::sync::Arc;
use std::time::Duration;

/// Heap offer cost at the paper's k = 1000.
fn bench_heap_offers(c: &mut Criterion) {
    let mut g = c.benchmark_group("topk_heap_offers");
    g.sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    g.bench_function("bounded_topk_k1000_100k_offers", |b| {
        b.iter(|| {
            let mut h = BoundedTopK::new(1000);
            let mut x = 1u64;
            for i in 0..100_000u32 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                h.offer(x % 1_000_000, i);
            }
            std::hint::black_box(h.threshold())
        });
    });
    g.finish();
}

/// Swap-cell snapshot cost under a concurrent swinger (the cleaner's
/// pointer swing pattern).
fn bench_swap_cell(c: &mut Criterion) {
    let mut g = c.benchmark_group("swap_cell");
    g.sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    g.bench_function("load_under_swings", |b| {
        let cell = Arc::new(SwapCell::new(vec![0u64; 1024]));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let swinger = {
            let cell = Arc::clone(&cell);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    cell.store(vec![1u64; 1024]);
                    std::thread::sleep(Duration::from_micros(50));
                }
            })
        };
        b.iter(|| std::hint::black_box(cell.load().len()));
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let _ = swinger.join();
    });
    g.finish();
}

/// The multiplicative doc-id hasher against SipHash, standalone and
/// through a `HashMap` insert/lookup mix — the cost the shared
/// `docMap` pays on every posting.
fn bench_fast_hash_vs_siphash(c: &mut Criterion) {
    let mut g = c.benchmark_group("doc_id_hashing");
    g.sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    const N: u32 = 100_000;

    g.bench_function("hash_only/siphash", |b| {
        let s = std::collections::hash_map::RandomState::new();
        b.iter(|| {
            let mut acc = 0u64;
            for i in 0..N {
                acc ^= s.hash_one(i.wrapping_mul(2654435761));
            }
            std::hint::black_box(acc)
        });
    });
    g.bench_function("hash_only/fast", |b| {
        let s = FastBuildHasher;
        b.iter(|| {
            let mut acc = 0u64;
            for i in 0..N {
                acc ^= s.hash_one(i.wrapping_mul(2654435761));
            }
            std::hint::black_box(acc)
        });
    });
    g.bench_function("map_mixed/siphash", |b| {
        b.iter(|| {
            let mut map: HashMap<u32, u32> = HashMap::with_capacity(4096);
            for i in 0..N {
                let k = i.wrapping_mul(2654435761) % 4096;
                if i % 4 == 0 {
                    map.insert(k, i);
                } else {
                    std::hint::black_box(map.get(&k));
                }
            }
            std::hint::black_box(map.len())
        });
    });
    g.bench_function("map_mixed/fast", |b| {
        b.iter(|| {
            let mut map: HashMap<u32, u32, FastBuildHasher> =
                HashMap::with_capacity_and_hasher(4096, FastBuildHasher);
            for i in 0..N {
                let k = i.wrapping_mul(2654435761) % 4096;
                if i % 4 == 0 {
                    map.insert(k, i);
                } else {
                    std::hint::black_box(map.get(&k));
                }
            }
            std::hint::black_box(map.len())
        });
    });
    g.finish();
}

/// Sparta's two `docMap` operations — a lookup that hits, and an
/// admission — on the lock-free table, from 1 and 2 threads. Each
/// thread works a disjoint half of the doc ids, so the 2-thread rows
/// measure cache-line traffic, not key conflicts. This is the layer
/// number behind the PR 13 claim.
fn bench_docmap_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("docmap");
    g.sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    const DOCS: u32 = 50_000;
    // Score-order traversal meets doc ids in no particular order.
    let doc = |i: u32| i.wrapping_mul(2654435761) % DOCS;
    let halves = |threads: u32, t: u32| (t * DOCS / threads)..((t + 1) * DOCS / threads);

    for threads in [1u32, 2] {
        let table = DocTable::from_entries((0..DOCS).map(|d| (d, d)));
        g.bench_function(BenchmarkId::new("get_hit/table", threads), |b| {
            b.iter(|| {
                std::thread::scope(|s| {
                    for t in 0..threads {
                        let table = &table;
                        s.spawn(move || {
                            for i in halves(threads, t) {
                                std::hint::black_box(table.get(doc(i)));
                            }
                        });
                    }
                });
            });
        });
        g.bench_function(BenchmarkId::new("admit/table", threads), |b| {
            b.iter(|| {
                let table = DocTable::with_capacity(DOCS as usize);
                std::thread::scope(|s| {
                    for t in 0..threads {
                        let table = &table;
                        s.spawn(move || {
                            let range = halves(threads, t);
                            let n = range.len();
                            for i in range {
                                table.get_or_try_insert_with(doc(i), true, || i);
                            }
                            table.add_len(n);
                        });
                    }
                });
                std::hint::black_box(table.len())
            });
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_heap_offers,
    bench_swap_cell,
    bench_fast_hash_vs_siphash,
    bench_docmap_ops
);
criterion_main!(benches);
