//! Uncompressed binary on-disk index format.
//!
//! "The appropriate index … is pre-built offline and stored on disk
//! uncompressed as a collection of binary files" (§5.1). We follow
//! that design and deliberately skip compression: "given
//! state-of-the-art compression techniques, the impact of
//! decompression on end-to-end performance is marginal" (§5,
//! citing Lin & Trotman 2017).
//!
//! Layout (one directory per index, all integers little-endian):
//!
//! ```text
//! meta.bin    magic "SPARTAIX", version, num_docs, num_terms, block_size
//! dict.bin    per term: offsets/lengths into the data files + max score
//! score.bin   all score-ordered posting lists, concatenated
//! doc.bin     all doc-ordered posting lists, concatenated
//! blocks.bin  block-max metadata for doc.bin
//! ```
//!
//! [`load_raw`] reads the whole directory at open and cross-checks it:
//! every posting is stored twice (`score.bin`, `doc.bin`) and
//! summarised twice (`blocks.bin`, the dict's max score), so a file
//! damaged on its own is `InvalidData`, not a wrong answer.
//! [`DiskIndex`] serves those planes from RAM and reports each access a
//! disk-resident index would make — fixed-size sequential fetches,
//! block reads, random probes — to the [`crate::iostats`] layer.
//!
//! This is the index's only on-disk format. The compressed backend
//! ([`crate::CompressedIndex`]) is built in RAM from postings or from a
//! loaded raw index ([`crate::CompressedIndex::from_index`]) and is
//! never persisted.

pub mod format;
pub mod reader;
pub mod writer;

pub use format::{DictEntry, Meta, FORMAT_VERSION, MAGIC, MIN_FORMAT_VERSION};
pub use reader::{load_raw, DiskIndex};
pub use writer::IndexWriter;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::InMemoryIndex;
    use crate::posting::Posting;
    use crate::{Index, IoModel};
    use sparta_corpus::types::TermId;

    fn sample_lists() -> Vec<Vec<Posting>> {
        vec![
            (0..300u32).map(|i| Posting::new(3 * i, 1000 - i)).collect(),
            (0..40u32)
                .map(|i| Posting::new(7 * i, 10 + (i * 13) % 90))
                .collect(),
            Vec::new(),
            vec![Posting::new(5, 42)],
        ]
    }

    fn write_sample(dir: &std::path::Path) {
        let lists = sample_lists();
        let mut w = IndexWriter::create(dir, 900, lists.len() as u32, 64).unwrap();
        for l in &lists {
            w.add_term(l.clone()).unwrap();
        }
        w.finish().unwrap();
    }

    #[test]
    fn round_trip_matches_memory_index() {
        let dir = tempdir("round_trip");
        write_sample(&dir);
        let disk = DiskIndex::open(&dir, IoModel::free()).unwrap();
        let mem = InMemoryIndex::from_term_postings(sample_lists(), 900);

        assert_eq!(disk.num_docs(), 900);
        assert_eq!(disk.num_terms(), 4);
        for t in 0..4 as TermId {
            assert_eq!(disk.doc_freq(t), mem.doc_freq(t), "df term {t}");
            assert_eq!(
                disk.doc_cursor(t).max_score(),
                mem.doc_cursor(t).max_score(),
                "max term {t}"
            );
            // Score order identical.
            let mut a = disk.score_cursor(t);
            let mut b = mem.score_cursor(t);
            loop {
                let (x, y) = (a.next(), b.next());
                assert_eq!(x, y, "score cursor term {t}");
                if x.is_none() {
                    break;
                }
            }
            // Doc order identical.
            let mut a = disk.doc_cursor(t);
            let mut b = mem.doc_cursor(t);
            loop {
                let (x, y) = (a.doc(), b.doc());
                assert_eq!(x, y, "doc cursor term {t}");
                assert_eq!(a.score(), b.score());
                if x.is_none() {
                    break;
                }
                a.advance();
                b.advance();
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn disk_seek_and_blockmax_match_memory() {
        let dir = tempdir("seek");
        write_sample(&dir);
        let disk = DiskIndex::open(&dir, IoModel::free()).unwrap();
        let mem = InMemoryIndex::from_term_postings(sample_lists(), 900);
        let mut a = disk.doc_cursor(0);
        let mut b = mem.doc_cursor(0);
        for target in [0u32, 5, 100, 101, 450, 897, 898] {
            assert_eq!(a.block_at(target), b.block_at(target), "block_at {target}");
            assert_eq!(a.seek(target), b.seek(target), "seek {target}");
            assert_eq!(
                a.doc().map(|d| a.block_at(d)),
                b.doc().map(|d| b.block_at(d))
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn disk_random_access_matches_memory() {
        let dir = tempdir("ra");
        write_sample(&dir);
        let disk = DiskIndex::open(&dir, IoModel::free()).unwrap();
        let mem = InMemoryIndex::from_term_postings(sample_lists(), 900);
        let dra = disk.random_access().unwrap();
        let mra = mem.random_access().unwrap();
        for t in 0..4 as TermId {
            for d in (0..900u32).step_by(17) {
                assert_eq!(dra.term_score(t, d), mra.term_score(t, d), "t={t} d={d}");
            }
        }
        // Random accesses were counted.
        assert!(disk.io_stats().unwrap().random_accesses() > 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn io_stats_count_sequential_blocks() {
        let dir = tempdir("iostats");
        write_sample(&dir);
        let disk = DiskIndex::open(&dir, IoModel::free()).unwrap();
        let stats = disk.io_stats().unwrap();
        stats.reset();
        let mut c = disk.score_cursor(0);
        while c.next().is_some() {}
        let (seq, _, bytes) = stats.snapshot();
        assert!(seq >= 1);
        assert_eq!(bytes, 300 * 8, "read exactly the list bytes");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_rejects_corrupt_magic() {
        let dir = tempdir("corrupt");
        write_sample(&dir);
        let meta = dir.join("meta.bin");
        let mut bytes = std::fs::read(&meta).unwrap();
        bytes[0] ^= 0xFF;
        std::fs::write(&meta, bytes).unwrap();
        assert!(DiskIndex::open(&dir, IoModel::free()).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Overwrites `file`'s bytes at `at` (appends when `at` is its
    /// length).
    fn patch(dir: &std::path::Path, file: &str, at: usize, with: &[u8]) {
        edit(dir, file, |bytes| overwrite(bytes, at, with));
    }

    fn overwrite(bytes: &mut Vec<u8>, at: usize, with: &[u8]) {
        bytes.resize(bytes.len().max(at + with.len()), 0);
        bytes[at..at + with.len()].copy_from_slice(with);
    }

    fn edit(dir: &std::path::Path, file: &str, change: impl FnOnce(&mut Vec<u8>)) {
        let path = dir.join(file);
        let mut bytes = std::fs::read(&path).unwrap();
        change(&mut bytes);
        std::fs::write(&path, bytes).unwrap();
    }

    /// The sample with one patch applied must fail to open with
    /// `InvalidData`: a damaged directory neither panics on first use
    /// nor answers from a list it silently shortened.
    fn assert_open_rejects(tag: &str, file: &str, at: usize, with: &[u8]) {
        assert_edit_rejected(tag, file, |bytes| overwrite(bytes, at, with));
    }

    fn assert_edit_rejected(tag: &str, file: &str, change: impl FnOnce(&mut Vec<u8>)) {
        let dir = tempdir(tag);
        write_sample(&dir);
        assert!(DiskIndex::open(&dir, IoModel::free()).is_ok(), "{tag}");
        edit(&dir, file, change);
        let err = DiskIndex::open(&dir, IoModel::free()).err().expect(tag);
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{tag}: {err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Field offsets: `meta.bin` block_size at 24; a `dict.bin` entry
    /// is 40 bytes with `block_off` at 24 and `num_blocks` at 32. The
    /// sample's terms own blocks 0–4, 5, none and 6 of seven.
    #[test]
    fn open_rejects_a_term_overrunning_blocks_bin() {
        assert_open_rejects("overrun", "dict.bin", 3 * 40 + 24, &7u64.to_le_bytes());
    }

    #[test]
    fn open_rejects_more_blocks_than_postings_fill() {
        // Term 1: 40 postings in one block; two would still lie inside
        // blocks.bin, but block 1 would start past the list.
        assert_open_rejects("num_blocks", "dict.bin", 40 + 32, &2u32.to_le_bytes());
    }

    #[test]
    fn open_rejects_a_ragged_blocks_bin() {
        assert_open_rejects("ragged", "blocks.bin", 7 * 8, &[0; 3]);
    }

    #[test]
    fn open_rejects_block_size_zero() {
        assert_open_rejects("block_size", "meta.bin", 24, &0u32.to_le_bytes());
    }

    /// Damage confined to one posting file: every posting is stored
    /// twice (`score.bin`, `doc.bin`) and summarised twice
    /// (`blocks.bin`, the dict's `max_score`), so the copies disagree.
    /// Term 0 holds docs `3i` at score `1000 − i` in both orders, at
    /// bytes 0..2400 of each file; term 3's one posting ends both.
    #[test]
    fn open_rejects_a_short_score_bin() {
        assert_edit_rejected("short_score", "score.bin", |b| b.truncate(b.len() - 8));
    }

    #[test]
    fn open_rejects_a_short_doc_bin() {
        assert_edit_rejected("short_doc", "doc.bin", |b| b.truncate(b.len() - 8));
    }

    #[test]
    fn open_rejects_doc_bin_out_of_order() {
        assert_edit_rejected("swapped", "doc.bin", |b| {
            let (first, second) = b.split_at_mut(8);
            first.swap_with_slice(&mut second[..8]);
        });
    }

    #[test]
    fn open_rejects_a_score_changed_in_score_bin_only() {
        // Posting 5 of term 0 scores 995; 994 keeps the order valid.
        assert_open_rejects("score", "score.bin", 5 * 8 + 4, &994u32.to_le_bytes());
    }

    #[test]
    fn open_rejects_a_wrong_block_max() {
        // Term 0's block 1 holds scores 936 down to 873.
        assert_open_rejects("block_max", "blocks.bin", 8 + 4, &937u32.to_le_bytes());
    }

    #[test]
    fn open_rejects_a_wrong_dict_max_score() {
        assert_open_rejects("dict_max", "dict.bin", 36, &999u32.to_le_bytes());
    }

    #[test]
    fn open_rejects_a_posting_range_past_u64() {
        assert_open_rejects("score_off", "dict.bin", 3 * 40, &u64::MAX.to_le_bytes());
    }

    /// `num_docs` bounds every stored id (`Index::num_docs`): the
    /// loader rejects a header at or below the sample's largest id,
    /// 897, or above 2^32, and accepts 898. The header field sits at
    /// byte 12 of `meta.bin`.
    #[test]
    fn loaders_reject_num_docs_not_covering_a_stored_id() {
        let dir = tempdir("num_docs");
        write_sample(&dir);
        let kind = |r: std::io::Result<()>| r.err().map(|e| e.kind());
        let disk = || kind(DiskIndex::open(&dir, IoModel::free()).map(drop));
        let bad = Some(std::io::ErrorKind::InvalidData);
        for (num_docs, want) in [(897u64, bad), ((1 << 32) + 1, bad), (898, None)] {
            patch(&dir, "meta.bin", 12, &num_docs.to_le_bytes());
            assert_eq!(disk(), want, "meta.bin num_docs {num_docs}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn writer_enforces_term_count() {
        let dir = tempdir("count");
        let mut w = IndexWriter::create(&dir, 10, 2, 64).unwrap();
        w.add_term(vec![Posting::new(1, 5)]).unwrap();
        assert!(w.finish().is_err(), "missing terms must be an error");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn tempdir(tag: &str) -> std::path::PathBuf {
        let d =
            std::env::temp_dir().join(format!("sparta-index-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }
}
