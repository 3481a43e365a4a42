//! pRA's exactness matrix: every backend (raw, compressed, disk) ×
//! every executor (dedicated at T ∈ {1, 2, 4}, deterministic seeds
//! 0..16) × segment sizes that do and do not divide the block size.
//! Hits and their full scores must be the oracle's. On the compressed
//! backend a batch ends on a block boundary, so pRA decodes no block
//! past the one each list's scan stops in: at most
//! ⌈postings / 64⌉ + m blocks per query.

use sparta_core::pra::PRa;
use sparta_core::{Algorithm, Oracle, SearchConfig};
use sparta_corpus::types::Query;
use sparta_exec::{DedicatedExecutor, DeterministicExecutor, Executor};
use sparta_index::storage::IndexWriter;
use sparta_index::{
    CompressedIndex, DiskIndex, InMemoryIndex, Index, IoModel, Posting, DEFAULT_BLOCK_SIZE,
};
use std::sync::Arc;

const DOCS: u32 = 2000;

/// Segment sizes: one posting, non-multiples of the block size below
/// and above it, the block size, and the default.
const SEG_SIZES: [usize; 5] = [1, 37, 64, 100, 1024];

/// Four terms of falling density: every doc, about a third, about a
/// ninth, and about one in sixty (a list shorter than one block).
/// Membership and scores come from a multiplicative hash, so the lists
/// overlap partially and probes both hit and miss.
fn lists() -> Vec<Vec<Posting>> {
    [1, 3, 9, 60]
        .into_iter()
        .enumerate()
        .map(|(t, every)| {
            (0..DOCS)
                .filter_map(|d| {
                    let h = d
                        .wrapping_mul(2_654_435_761)
                        .wrapping_add(t as u32 * 97)
                        .wrapping_mul(2_246_822_519);
                    (h % every == 0).then(|| Posting::new(d, (h >> 8) % 5_000 + 1))
                })
                .collect()
        })
        .collect()
}

fn queries() -> [Query; 3] {
    [
        Query::new(vec![0, 1, 2, 3]),
        Query::new(vec![3, 2]),
        Query::new(vec![2, 0, 1]),
    ]
}

fn executors() -> Vec<(String, Box<dyn Executor>)> {
    let dedicated = [1, 2, 4].map(|t| {
        let exec: Box<dyn Executor> = Box::new(DedicatedExecutor::new(t));
        (format!("dedicated T={t}"), exec)
    });
    let deterministic = (0..16u64).map(|seed| {
        let exec: Box<dyn Executor> = Box::new(DeterministicExecutor::new(seed));
        (format!("deterministic seed {seed}"), exec)
    });
    dedicated.into_iter().chain(deterministic).collect()
}

/// Runs the matrix on `index`: every query × executor × segment size at
/// k = 10 and k = 100, against the oracle.
fn assert_exact(name: &str, index: Arc<dyn Index>) {
    let io = index.io_stats();
    for q in queries() {
        for k in [10, 100] {
            let oracle = Oracle::compute(index.as_ref(), &q, k);
            let want: Vec<u64> = oracle.topk().iter().map(|h| h.score).collect();
            for (exec_name, exec) in &executors() {
                for seg in SEG_SIZES {
                    let ctx = format!("{name}, {exec_name}, seg {seg}, k {k}, {:?}", q.terms);
                    let cfg = SearchConfig::exact(k).with_seg_size(seg);
                    let decoded = || io.map_or(0, |s| s.blocks_decoded());
                    let before = decoded();
                    let r = PRa.search(&index, &q, &cfg, exec.as_ref());
                    let blocks = decoded() - before;
                    let got: Vec<u64> = r.hits.iter().map(|h| h.score).collect();
                    assert_eq!(got, want, "{ctx}: scores");
                    assert_eq!(oracle.recall(&r.docs()), 1.0, "{ctx}: recall");
                    for h in &r.hits {
                        assert_eq!(h.score, oracle.score(h.doc), "{ctx}: doc {}", h.doc);
                    }
                    let bound = r.work.postings_scanned.div_ceil(DEFAULT_BLOCK_SIZE as u64)
                        + q.terms.len() as u64;
                    assert!(
                        blocks <= bound,
                        "{ctx}: {blocks} blocks decoded for {} postings",
                        r.work.postings_scanned
                    );
                }
            }
        }
    }
}

#[test]
fn pra_is_exact_on_raw() {
    assert_exact(
        "raw",
        Arc::new(InMemoryIndex::from_term_postings(lists(), DOCS.into())),
    );
}

#[test]
fn pra_is_exact_on_compressed_and_decodes_no_block_past_the_stop() {
    let index = CompressedIndex::from_term_postings(lists(), DOCS.into());
    assert_exact("compressed", Arc::new(index));
}

#[test]
fn pra_is_exact_on_disk() {
    let dir = std::env::temp_dir().join(format!("sparta-pra-exact-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let lists = lists();
    let mut w =
        IndexWriter::create(&dir, DOCS.into(), lists.len() as u32, DEFAULT_BLOCK_SIZE).unwrap();
    for l in lists {
        w.add_term(l).unwrap();
    }
    w.finish().unwrap();
    // The reader keeps its files open, so the directory can go now.
    let disk = DiskIndex::open(&dir, IoModel::free()).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    assert_exact("disk", Arc::new(disk));
}
