//! Compressed-backend micro-benches: block decode vs raw slice scan
//! (postings/sec) on both traversal orders, plus the random-access
//! probe cost (hit / miss, ascending / shuffled doc order) — the
//! decode-overhead numbers quoted in README/DESIGN §14.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use sparta_index::{CompressedIndex, InMemoryIndex, Index, Posting};
use std::time::Duration;

const N: u32 = 200_000;

/// A heavy-tailed single-term list shaped like a head term's postings
/// (~60% density, tf-idf-like scores with a high-score tail).
fn postings() -> Vec<Posting> {
    (0..N)
        .filter(|d| d.wrapping_mul(2654435761) % 5 != 0)
        .map(|d| {
            let x = d.wrapping_mul(2246822519).wrapping_add(97);
            let r = x % 1000;
            let score = if r >= 990 { 10_000 + x % 5_000 } else { 1 + r };
            Posting::new(d, score)
        })
        .collect()
}

fn bench_decode_vs_raw(c: &mut Criterion) {
    let list = postings();
    let len = list.len() as u64;
    let raw = InMemoryIndex::from_term_postings(vec![list.clone()], u64::from(N));
    let comp = CompressedIndex::from_term_postings(vec![list], u64::from(N));
    let (rf, cf) = (
        Index::footprint(&raw).unwrap().total(),
        Index::footprint(&comp).unwrap().total(),
    );
    println!(
        "index footprint: {rf} raw -> {cf} compressed ({:.2}x)",
        rf as f64 / cf as f64
    );

    let mut g = c.benchmark_group("compressed_backend");
    g.sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1))
        .throughput(Throughput::Elements(len));

    // Score-ordered stream: pJASS/Sparta's traversal order.
    g.bench_function("score_scan_raw", |b| {
        b.iter(|| {
            let mut c = raw.score_cursor(0);
            let mut sum = 0u64;
            while let Some(p) = c.next() {
                sum += u64::from(p.score);
            }
            std::hint::black_box(sum)
        });
    });
    g.bench_function("score_scan_compressed", |b| {
        b.iter(|| {
            let mut c = comp.score_cursor(0);
            let mut sum = 0u64;
            while let Some(p) = c.next() {
                sum += u64::from(p.score);
            }
            std::hint::black_box(sum)
        });
    });

    // Doc-ordered walk: the BMW/WAND family's traversal order.
    g.bench_function("doc_scan_raw", |b| {
        b.iter(|| {
            let mut c = raw.doc_cursor(0);
            let mut sum = 0u64;
            while c.doc().is_some() {
                sum += u64::from(c.score());
                c.advance();
            }
            std::hint::black_box(sum)
        });
    });
    g.bench_function("doc_scan_compressed", |b| {
        b.iter(|| {
            let mut c = comp.doc_cursor(0);
            let mut sum = 0u64;
            while c.doc().is_some() {
                sum += u64::from(c.score());
                c.advance();
            }
            std::hint::black_box(sum)
        });
    });

    // Random probes: pRA's access pattern (binary search of the block
    // directory + a point walk of one block's gap plane on the
    // compressed side). Hit vs miss shows the walk costs the same
    // either way; ascending vs shuffled separates what probe order
    // buys on both backends (a predictable directory search) from
    // what a decoded-block cache could add on the compressed one.
    const LOOKUPS: usize = 4096;
    // A fifth of the ids are absent, four fifths stored: stride each
    // sample so both span the whole id space.
    let stride = (N as usize / 5 / LOOKUPS).max(1);
    let sample = |stored: bool| -> Vec<u32> {
        (0..N)
            .filter(|d| (d.wrapping_mul(2654435761) % 5 != 0) == stored)
            .step_by(if stored { 4 * stride } else { stride })
            .take(LOOKUPS)
            .collect()
    };
    g.throughput(Throughput::Elements(LOOKUPS as u64));
    let (ra, rc) = (raw.random_access().unwrap(), comp.random_access().unwrap());
    for (kind, ascending) in [("hit", sample(true)), ("miss", sample(false))] {
        assert_eq!(ascending.len(), LOOKUPS);
        let mut shuffled = ascending.clone();
        shuffled.sort_unstable_by_key(|d| d.wrapping_mul(2246822519));
        for (order, docs) in [("ascending", &ascending), ("shuffled", &shuffled)] {
            for (backend, index) in [("raw", ra), ("compressed", rc)] {
                g.bench_function(format!("random_access_{backend}_{kind}_{order}"), |b| {
                    b.iter(|| {
                        let sum: u64 = docs
                            .iter()
                            .map(|&d| u64::from(index.term_score(0, d)))
                            .sum();
                        std::hint::black_box(sum)
                    });
                });
            }
        }
    }
    g.finish();
}

criterion_group!(benches, bench_decode_vs_raw);
criterion_main!(benches);
