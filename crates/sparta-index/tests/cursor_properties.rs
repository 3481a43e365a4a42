//! Property tests for cursor semantics: `seek` must agree with a
//! linear-scan reference, block metadata must bound its block, and
//! random access must agree with the doc-ordered list, over arbitrary
//! posting lists and block sizes — on both index backends. Plus every
//! operation on an empty or unknown term, on all three backends.

use proptest::collection::vec;
use proptest::prelude::*;
use sparta_index::storage::IndexWriter;
use sparta_index::{CompressedIndex, DiskIndex, InMemoryIndex, Index, IoModel, Posting};

fn arb_list() -> impl Strategy<Value = Vec<Posting>> {
    vec((0u32..2000, 1u32..100_000), 0..300).prop_map(|mut ps| {
        ps.sort_by_key(|&(d, _)| d);
        ps.dedup_by_key(|&mut (d, _)| d);
        ps.into_iter().map(|(d, s)| Posting::new(d, s)).collect()
    })
}

/// Reference: first posting with doc >= target, by linear scan.
fn ref_seek(list: &[Posting], from: usize, target: u32) -> Option<(usize, Posting)> {
    list.iter()
        .enumerate()
        .skip(from)
        .find(|(_, p)| p.doc >= target)
        .map(|(i, p)| (i, *p))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn seek_matches_linear_reference(
        list in arb_list(),
        targets in vec(0u32..2100, 0..20),
        block_size in 1usize..100
    ) {
        let ix = InMemoryIndex::with_block_size(vec![list.clone()], 2000, block_size);
        let mut cursor = ix.doc_cursor(0);
        let mut targets = targets;
        targets.sort_unstable(); // cursors only move forward
        let mut pos = 0usize;
        for t in targets {
            let got = cursor.seek(t);
            let want = ref_seek(&list, pos, t);
            prop_assert_eq!(got, want.map(|(_, p)| p.doc), "seek({})", t);
            if let Some((i, p)) = want {
                pos = i;
                prop_assert_eq!(cursor.score(), p.score);
            } else {
                prop_assert_eq!(cursor.doc(), None);
                break;
            }
        }
    }

    #[test]
    fn block_metadata_bounds_hold(list in arb_list(), block_size in 1usize..64) {
        let ix = InMemoryIndex::with_block_size(vec![list.clone()], 2000, block_size);
        let mut c = ix.doc_cursor(0);
        let mut idx = 0usize;
        while let Some(d) = c.doc() {
            let block = idx / block_size;
            let chunk = &list[block * block_size..((block + 1) * block_size).min(list.len())];
            let want_last = chunk.last().unwrap().doc;
            let want_max = chunk.iter().map(|p| p.score).max().unwrap();
            // block_at on the current doc describes the current block.
            prop_assert_eq!(c.block_at(d), Some((want_last, want_max)));
            c.advance();
            idx += 1;
        }
    }

    #[test]
    fn random_access_matches_list(list in arb_list(), probes in vec(0u32..2100, 1..30)) {
        let ix = InMemoryIndex::from_term_postings(vec![list.clone()], 2000);
        let ra = ix.random_access().unwrap();
        for d in probes {
            let want = list.iter().find(|p| p.doc == d).map_or(0, |p| p.score);
            prop_assert_eq!(ra.term_score(0, d), want, "doc {}", d);
        }
    }

    #[test]
    fn disk_cursor_seek_matches_memory(
        list in arb_list(),
        targets in vec(0u32..2100, 0..12)
    ) {
        let dir = std::env::temp_dir().join(format!(
            "sparta-cursor-prop-{}-{}",
            std::process::id(),
            list.len()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut w = IndexWriter::create(&dir, 2000, 1, 16).unwrap();
            w.add_term(list.clone()).unwrap();
            w.finish().unwrap();
        }
        let disk = DiskIndex::open(&dir, IoModel::free()).unwrap();
        let mem = InMemoryIndex::with_block_size(vec![list], 2000, 16);
        let mut a = disk.doc_cursor(0);
        let mut b = mem.doc_cursor(0);
        let mut targets = targets;
        targets.sort_unstable();
        for t in targets {
            prop_assert_eq!(a.seek(t), b.seek(t), "seek({})", t);
            prop_assert_eq!(a.score(), b.score());
            prop_assert_eq!(a.block_at(t), b.block_at(t));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// An empty list (term 1) and term ids at and past `num_terms` behave
/// as empty lists under every cursor and random-access operation, on
/// every backend — none panics. Compressed unknown terms share one
/// empty list of block size 0, so an operation that divides by the
/// block size before checking for exhaustion would panic here.
#[test]
fn empty_and_unknown_terms_are_safe_on_every_backend() {
    let lists = vec![
        (0..100u32).map(|d| Posting::new(d * 3, d + 1)).collect(),
        Vec::new(),
    ];
    let dir = std::env::temp_dir().join(format!("sparta-cursor-empty-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut w = IndexWriter::create(&dir, 300, 2, 16).unwrap();
    for l in &lists {
        w.add_term(l.clone()).unwrap();
    }
    w.finish().unwrap();
    let backends: [(&str, Box<dyn Index>); 3] = [
        (
            "raw",
            Box::new(InMemoryIndex::with_block_size(lists.clone(), 300, 16)),
        ),
        (
            "compressed",
            Box::new(CompressedIndex::with_block_size(lists, 300, 16)),
        ),
        (
            "disk",
            Box::new(DiskIndex::open(&dir, IoModel::free()).unwrap()),
        ),
    ];
    for (name, ix) in &backends {
        for term in [1, 2, 7, u32::MAX] {
            let ctx = format!("{name}, term {term}");
            assert_eq!((ix.doc_freq(term), ix.max_score(term)), (0, 0), "{ctx}");

            let mut sc = ix.score_cursor(term);
            assert_eq!(sc.len(), 0, "{ctx}");
            assert_eq!(sc.next(), None, "{ctx}");
            let mut seg = vec![Posting::new(1, 1)];
            assert_eq!(sc.next_segment(8, &mut seg), 0, "{ctx}");
            assert!(seg.is_empty(), "{ctx}");
            assert_eq!(sc.next(), None, "{ctx}");

            let mut dc = ix.doc_cursor(term);
            assert_eq!(dc.len(), 0, "{ctx}");
            assert_eq!(
                (dc.doc(), dc.score(), dc.max_score()),
                (None, 0, 0),
                "{ctx}"
            );
            for target in [0, 5, u32::MAX] {
                assert_eq!(dc.block_at(target), None, "{ctx}");
            }
            assert_eq!(dc.advance(), None, "{ctx}");
            assert_eq!(dc.seek(0), None, "{ctx}");
            assert_eq!(dc.seek(u32::MAX), None, "{ctx}");
            assert_eq!((dc.doc(), dc.score()), (None, 0), "{ctx}");

            let ra = ix.random_access().unwrap();
            for doc in [0, 3, u32::MAX] {
                assert_eq!(ra.term_score(term, doc), 0, "{ctx}");
            }
            assert_eq!(ra.full_score(&[term, term], 3), 0, "{ctx}");
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
