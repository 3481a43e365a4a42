//! Hostile index files, end to end: a corrupt directory either fails
//! to load with `InvalidData` or loads into an index on which every
//! registry algorithm answers a query without a panic — in a job
//! (`jobs_panicked`) or outside one. With `num_docs` an index
//! invariant (`Index::num_docs`) no per-query structure checks doc ids
//! any more, so this is what keeps an out-of-range id from reaching
//! pRA's claim bitset or the oracle's accumulator.

use sparta::core::all_algorithms;
use sparta::index::storage::{load_compressed, IndexWriter};
use sparta::index::{CompressedIndex, CompressedTermData, IndexKind, Posting, RandomAccess};
use sparta::prelude::*;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;

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

fn write(dir: &Path, kind: IndexKind) {
    let mut w = IndexWriter::create_with_kind(dir, NUM_DOCS, 1, BLOCK, kind).unwrap();
    w.add_term(list()).unwrap();
    w.finish().unwrap();
}

/// Every registry algorithm answers one query over `ix`.
fn every_algorithm_answers(ix: Arc<dyn Index>, ctx: &str) {
    let q = Query::new(vec![0]);
    let cfg = SearchConfig::exact(10).with_seg_size(32);
    let exec = WorkerPool::new(2);
    for algo in all_algorithms() {
        let r = algo.search(&ix, &q, &cfg, &exec);
        assert_eq!(r.work.jobs_panicked, 0, "{ctx}: {} panicked", algo.name());
        assert!(
            r.docs().iter().all(|&d| u64::from(d) < ix.num_docs()),
            "{ctx}: {} returned an id beyond num_docs",
            algo.name()
        );
    }
}

fn invert(bytes: &mut [u8]) {
    bytes.iter_mut().for_each(|b| *b ^= 0xFF);
}

/// Byte ranges of one block's entry and planes in a one-term
/// `compressed.bin` (partial edge bytes included).
struct Block {
    /// The 18-byte directory entry; it leads with `last_doc`.
    entry: usize,
    /// Doc-ordered plane: the gaps, then the codebook indices.
    gaps: Range<usize>,
    score_idx: Range<usize>,
    /// Score-ordered plane: the raw doc ids.
    raw_ids: Range<usize>,
}

/// Locates the blocks: after the 28-byte section header, the term
/// leads with `len`, `max_score` and the two plane-wide widths; its
/// packed words end the file, right after the block directory and the
/// word count.
fn blocks(file: &[u8], td: &CompressedTermData) -> Vec<Block> {
    let (idx_bits, raw_bits) = (file[28 + 8] as usize, file[28 + 9] as usize);
    let words_at = file.len() - td.footprint().posting_bytes as usize;
    let dir_at = words_at - 4 - 18 * td.blocks().len();
    let u32_at = |at: usize| u32::from_le_bytes(file[at..at + 4].try_into().unwrap()) as usize;
    let bytes = |bit: usize, bits: usize| words_at + bit / 8..words_at + (bit + bits).div_ceil(8);
    (0..td.blocks().len())
        .map(|bi| {
            let entry = dir_at + 18 * bi;
            let b = td.blocks()[bi];
            let meta = (u32_at(entry), u32_at(entry + 4));
            assert_eq!(
                meta,
                (b.last_doc as usize, b.max_score as usize),
                "block {bi}"
            );
            let n = (td.len() - bi * BLOCK).min(BLOCK);
            let (doc_off, gap_bits) = (u32_at(entry + 8), file[entry + 12] as usize);
            Block {
                entry,
                gaps: bytes(doc_off, n * gap_bits),
                score_idx: bytes(doc_off + n * gap_bits, n * idx_bits),
                raw_ids: bytes(u32_at(entry + 13), n * raw_bits),
            }
        })
        .collect()
}

/// Point probes, a full doc-order walk, seeks to near and far targets
/// (the largest ids included) and a full score-order walk.
fn every_cursor_operation_survives(ix: &CompressedIndex) {
    let far = [u32::MAX - 1, u32::MAX];
    for d in (0..1_000).chain(far) {
        ix.term_score(0, d);
    }
    let mut c = ix.doc_cursor(0);
    while c.advance().is_some() {
        c.score();
    }
    for target in (0..1_000).step_by(7).chain(far) {
        let mut c = ix.doc_cursor(0);
        c.seek(target);
        c.score();
        c.seek(u32::MAX);
        c.score();
    }
    let mut sc = ix.score_cursor(0);
    while sc.next().is_some() {}
}

/// A corrupt image is either rejected with `InvalidData` or survives
/// every cursor operation and every algorithm — overflow-checked debug
/// builds included. Both outcomes must occur, or a half of the claim
/// went untested.
#[test]
fn corrupt_compressed_values_never_panic() {
    let dir = tempdir("compressed");
    write(&dir, IndexKind::Compressed);
    let path = dir.join("compressed.bin");
    let good = std::fs::read(&path).unwrap();
    let td = load_compressed(&dir).unwrap().term_data(0).unwrap().clone();
    type Corruption = fn(&mut Vec<u8>, &Block);
    let corruptions: [(&str, Corruption); 5] = [
        ("last_doc past 2^32 - 1, gaps inverted", |f, b| {
            f[b.entry..b.entry + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            invert(&mut f[b.gaps.clone()]);
        }),
        ("one gap bit flipped", |f, b| f[b.gaps.start] ^= 1),
        ("last_doc halved", |f, b| {
            let last = u32::from_le_bytes(f[b.entry..b.entry + 4].try_into().unwrap());
            f[b.entry..b.entry + 4].copy_from_slice(&(last / 2).to_le_bytes());
        }),
        ("codebook indices inverted", |f, b| {
            invert(&mut f[b.score_idx.clone()])
        }),
        ("raw ids inverted", |f, b| invert(&mut f[b.raw_ids.clone()])),
    ];
    let (mut loaded, mut rejected) = (0, 0);
    for (bi, block) in blocks(&good, &td).iter().enumerate() {
        for (what, corrupt) in corruptions {
            let ctx = format!("block {bi}, {what}");
            let mut bad = good.clone();
            corrupt(&mut bad, block);
            std::fs::write(&path, &bad).unwrap();
            let ix = match load_compressed(&dir) {
                Ok(ix) => ix,
                Err(e) => {
                    assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{ctx}: {e}");
                    rejected += 1;
                    continue;
                }
            };
            loaded += 1;
            every_cursor_operation_survives(&ix);
            every_algorithm_answers(Arc::new(ix), &ctx);
        }
    }
    assert!(
        loaded > 0 && rejected > 0,
        "{loaded} loaded, {rejected} rejected"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `DiskIndex` loads and cross-checks its directory at open, so an
/// id ≥ `num_docs` in `score.bin` (which disagrees with `doc.bin`
/// besides) is `InvalidData` there: no cursor ever yields it, and no
/// query answers from a silently shortened list.
#[test]
fn an_out_of_range_id_in_score_bin_fails_to_open() {
    let dir = tempdir("disk");
    write(&dir, IndexKind::Raw);
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
