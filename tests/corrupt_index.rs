//! Hostile index files, end to end: a corrupt directory fails to load
//! with `InvalidData`. With `num_docs` an index invariant
//! (`Index::num_docs`) no per-query structure checks doc ids any more,
//! so this is what keeps an out-of-range id from reaching pRA's claim
//! bitset or the oracle's accumulator.

use sparta::index::storage::IndexWriter;
use sparta::index::Posting;
use sparta::prelude::*;
use std::path::{Path, PathBuf};

const NUM_DOCS: u64 = 900;
const BLOCK: usize = 64;

/// One term of 300 postings, ids `3i + 1` (the largest 898).
fn list() -> Vec<Posting> {
    (0..300u32)
        .map(|i| Posting::new(i * 3 + 1, (i * 37) % 211 + 1))
        .collect()
}

fn tempdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("sparta-corrupt-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn write(dir: &Path) {
    let mut w = IndexWriter::create(dir, NUM_DOCS, 1, BLOCK).unwrap();
    w.add_term(list()).unwrap();
    w.finish().unwrap();
}

/// `DiskIndex` loads and cross-checks its directory at open, so an
/// id ≥ `num_docs` in `score.bin` (which disagrees with `doc.bin`
/// besides) is `InvalidData` there: no cursor ever yields it, and no
/// query answers from a silently shortened list.
#[test]
fn an_out_of_range_id_in_score_bin_fails_to_open() {
    let dir = tempdir("disk");
    write(&dir);
    assert!(DiskIndex::open(&dir, IoModel::free()).is_ok());
    let path = dir.join("score.bin");
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[3] ^= 0x80; // bit 31 of the first posting's doc id
    std::fs::write(&path, &bytes).unwrap();
    let err = DiskIndex::open(&dir, IoModel::free())
        .err()
        .expect("opened");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}
