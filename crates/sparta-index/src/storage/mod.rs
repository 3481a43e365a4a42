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
//! The dictionary and block metadata are small (40 bytes/term and
//! 8 bytes per 64 postings) and are held in RAM by the reader, like
//! any production engine; posting data is fetched in fixed-size blocks
//! through the [`crate::iostats`] layer.
//!
//! Format version 2 adds an *optional* versioned compressed section:
//!
//! ```text
//! compressed.bin  magic "SPARTACP", section version, num_docs,
//!                 num_terms, block_size, then one
//!                 [`crate::CompressedTermData`] record per term
//!                 (see [`format::encode_compressed_term`])
//! ```
//!
//! written when the index is built with
//! [`crate::builder::IndexKind::Compressed`] and loaded whole into RAM
//! by [`reader::load_compressed`]. Version-1 directories (no such
//! file) remain readable by [`DiskIndex`].

pub mod format;
pub mod reader;
pub mod writer;

pub use format::{DictEntry, Meta, FORMAT_VERSION, MAGIC, MIN_FORMAT_VERSION};
pub use reader::{load_compressed, DiskIndex};
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
            assert_eq!(disk.max_score(t), mem.max_score(t), "max term {t}");
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
            assert_eq!(a.seek(target), b.seek(target), "seek {target}");
            assert_eq!(a.block_max_score(), b.block_max_score());
            assert_eq!(a.block_last_doc(), b.block_last_doc());
        }
        assert_eq!(a.skip_block(), b.skip_block());
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

    #[test]
    fn compressed_section_round_trips() {
        use crate::builder::IndexKind;
        use crate::compressed::CompressedIndex;
        let dir = tempdir("compressed_rt");
        let lists = sample_lists();
        let mut w =
            IndexWriter::create_with_kind(&dir, 900, lists.len() as u32, 64, IndexKind::Compressed)
                .unwrap();
        for l in &lists {
            w.add_term(l.clone()).unwrap();
        }
        w.finish().unwrap();

        // The raw planes are still a valid v2 index.
        assert!(DiskIndex::open(&dir, IoModel::free()).is_ok());

        let loaded = load_compressed(&dir).unwrap();
        let built = CompressedIndex::from_term_postings(sample_lists(), 900);
        assert_eq!(loaded.num_docs(), built.num_docs());
        assert_eq!(loaded.num_terms(), built.num_terms());
        for t in 0..loaded.num_terms() {
            assert_eq!(loaded.doc_freq(t), built.doc_freq(t));
            assert_eq!(loaded.max_score(t), built.max_score(t));
            let mut a = loaded.score_cursor(t);
            let mut b = built.score_cursor(t);
            loop {
                let (x, y) = (a.next(), b.next());
                assert_eq!(x, y, "term {t}");
                if x.is_none() {
                    break;
                }
            }
            let mut a = loaded.doc_cursor(t);
            let mut b = built.doc_cursor(t);
            loop {
                assert_eq!(a.doc(), b.doc(), "term {t}");
                assert_eq!(a.block_max_score(), b.block_max_score(), "term {t}");
                if a.advance().is_none() {
                    b.advance();
                    break;
                }
                b.advance();
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn raw_kind_writes_no_compressed_section() {
        let dir = tempdir("raw_kind");
        write_sample(&dir);
        assert!(!dir.join("compressed.bin").exists());
        let err = reader::load_compressed(&dir).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compressed_section_rejects_corruption() {
        use crate::builder::IndexKind;
        let dir = tempdir("compressed_corrupt");
        let lists = sample_lists();
        let mut w =
            IndexWriter::create_with_kind(&dir, 900, lists.len() as u32, 64, IndexKind::Compressed)
                .unwrap();
        for l in &lists {
            w.add_term(l.clone()).unwrap();
        }
        w.finish().unwrap();
        let path = dir.join("compressed.bin");
        let good = std::fs::read(&path).unwrap();

        // Bad magic.
        let mut bad = good.clone();
        bad[0] ^= 0xFF;
        std::fs::write(&path, &bad).unwrap();
        assert!(load_compressed(&dir).is_err());

        // Truncation mid-term.
        std::fs::write(&path, &good[..good.len() / 2]).unwrap();
        assert!(load_compressed(&dir).is_err());

        // Trailing garbage.
        let mut long = good.clone();
        long.push(0);
        std::fs::write(&path, &long).unwrap();
        assert!(load_compressed(&dir).is_err());

        std::fs::write(&path, &good).unwrap();
        assert!(load_compressed(&dir).is_ok());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The loader validates plane offsets and widths, not the values
    /// inside them: a corrupt `last_doc` or gap plane must surface as
    /// wrong answers, never as a panic — overflow-checked debug builds
    /// included.
    #[test]
    fn corrupt_compressed_values_never_panic() {
        use crate::builder::IndexKind;
        use crate::cursor::RandomAccess;
        let dir = tempdir("compressed_values");
        let list: Vec<Posting> = (0..300u32)
            .map(|i| Posting::new(i * 3 + 1, (i * 37) % 211 + 1))
            .collect();
        let mut w = IndexWriter::create_with_kind(&dir, 900, 1, 64, IndexKind::Compressed).unwrap();
        w.add_term(list).unwrap();
        w.finish().unwrap();
        let path = dir.join("compressed.bin");
        let good = std::fs::read(&path).unwrap();
        let td = load_compressed(&dir).unwrap().term_data(0).unwrap().clone();
        // One term: its packed words end the file, and the 19-byte
        // block directory entries (leading with `last_doc`) sit right
        // before the word count.
        let words_at = good.len() - td.words.len() * 8;
        let dir_at = words_at - 4 - 19 * td.blocks.len();
        for bi in 0..td.blocks.len() {
            let mut bad = good.clone();
            bad[dir_at + 19 * bi..][..4].copy_from_slice(&u32::MAX.to_le_bytes());
            let m = td.doc_meta[bi];
            let gap_bits = td.block_len(bi) * m.bits as usize;
            let gap_plane = m.off as usize / 8..(m.off as usize + gap_bits).div_ceil(8);
            for b in &mut bad[words_at..][gap_plane] {
                *b ^= 0xFF;
            }
            std::fs::write(&path, &bad).unwrap();
            let ix = load_compressed(&dir).unwrap();
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
