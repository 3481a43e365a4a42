//! Storage-layer benches: sequential posting scans vs random accesses
//! on the disk index — the access-cost asymmetry behind pRA's collapse
//! on disk-resident indexes (§5.3).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use sparta_corpus::scoring::TfIdfScorer;
use sparta_corpus::synth::{CorpusModel, SynthCorpus};
use sparta_index::{DiskIndex, Index, IndexBuilder, IoModel, RandomAccess};
use std::path::PathBuf;
use std::time::Duration;

fn disk_index(model: IoModel) -> (DiskIndex, PathBuf) {
    let dir = std::env::temp_dir().join(format!("sparta-bench-disk-{}", std::process::id()));
    if !dir.join("meta.bin").exists() {
        let corpus = SynthCorpus::build(CorpusModel {
            num_docs: 20_000,
            vocab_size: 2_000,
            zipf_exponent: 1.0,
            max_rate: 0.25,
            target_avg_doc_len: 150.0,
            seed: 4,
        });
        IndexBuilder::new(TfIdfScorer)
            .write_disk(&corpus, &dir)
            .unwrap();
    }
    (DiskIndex::open(&dir, model).unwrap(), dir)
}

fn bench_disk_access(c: &mut Criterion) {
    let (free, _dir) = disk_index(IoModel::free());
    let (ssd, _dir) = disk_index(IoModel::ssd());
    // A head term with a long list.
    let term = (0..free.num_terms())
        .max_by_key(|&t| free.doc_freq(t))
        .unwrap();
    let len = free.doc_freq(term);

    let mut g = c.benchmark_group("disk_io");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));

    g.throughput(Throughput::Elements(len));
    g.bench_function("sequential_scan_free", |b| {
        b.iter(|| {
            let mut c = free.score_cursor(term);
            let mut sum = 0u64;
            while let Some(p) = c.next() {
                sum += u64::from(p.score);
            }
            std::hint::black_box(sum)
        });
    });
    g.bench_function("sequential_scan_ssd_model", |b| {
        b.iter(|| {
            let mut c = ssd.score_cursor(term);
            let mut sum = 0u64;
            while let Some(p) = c.next() {
                sum += u64::from(p.score);
            }
            std::hint::black_box(sum)
        });
    });

    const LOOKUPS: u64 = 256;
    g.throughput(Throughput::Elements(LOOKUPS));
    g.bench_function("random_access_free", |b| {
        b.iter(|| {
            let mut sum = 0u64;
            for i in 0..LOOKUPS {
                let doc = (i * 2654435761) % free.num_docs();
                sum += u64::from(free.term_score(term, doc as u32));
            }
            std::hint::black_box(sum)
        });
    });
    g.bench_function("random_access_ssd_model", |b| {
        b.iter(|| {
            let mut sum = 0u64;
            for i in 0..LOOKUPS {
                let doc = (i * 2654435761) % ssd.num_docs();
                sum += u64::from(ssd.term_score(term, doc as u32));
            }
            std::hint::black_box(sum)
        });
    });
    g.finish();
}

criterion_group!(benches, bench_disk_access);
criterion_main!(benches);
