//! Property tests for cursor semantics: `seek` must agree with a
//! linear-scan reference, block metadata must bound its block, and
//! random access must agree with the doc-ordered list, over arbitrary
//! posting lists and block sizes — on both index backends. Plus every
//! operation on an empty or unknown term, the `next_segment` contract
//! Sparta, pNRA and pJASS stop on, and pRA's batched probe
//! (`term_scores` is `term_score` per doc, at the same I/O accounting),
//! on all three backends.

use proptest::collection::vec;
use proptest::prelude::*;
use sparta_index::storage::reader::IO_BLOCK_BYTES;
use sparta_index::storage::IndexWriter;
use sparta_index::{CompressedIndex, DiskIndex, InMemoryIndex, Index, IoModel, Posting};
use std::sync::OnceLock;

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
    for (name, ix) in &every_backend(lists, 300, "empty") {
        for term in [1, 2, 7, u32::MAX] {
            let ctx = format!("{name}, term {term}");
            assert_eq!(ix.doc_freq(term), 0, "{ctx}");

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
            let mut out = [7; 3];
            ra.term_scores(term, &[0, 3, u32::MAX], &mut out);
            assert_eq!(out, [0; 3], "{ctx}");
        }
    }
}

/// The raw, compressed and disk backends over `lists` (term t holds
/// `lists[t]`), block size 16. The disk backend reads its directory
/// (named by `tag`) whole at open, so the directory goes right after.
fn every_backend(
    lists: Vec<Vec<Posting>>,
    num_docs: u64,
    tag: &str,
) -> Vec<(&'static str, Box<dyn Index>)> {
    let dir = std::env::temp_dir().join(format!("sparta-cursor-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut w = IndexWriter::create(&dir, num_docs, lists.len() as u32, 16).unwrap();
    for l in &lists {
        w.add_term(l.clone()).unwrap();
    }
    w.finish().unwrap();
    let disk = DiskIndex::open(&dir, IoModel::free()).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    let raw = InMemoryIndex::with_block_size(lists.clone(), num_docs, 16);
    let compressed = CompressedIndex::with_block_size(lists, num_docs, 16);
    vec![
        ("raw", Box::new(raw)),
        ("compressed", Box::new(compressed)),
        ("disk", Box::new(disk)),
    ]
}

/// Segment sizes the `next_segment` contract is checked at.
const SEG_SIZES: [usize; 4] = [1, 7, 64, 1024];

/// The list lengths at which a segment boundary can go wrong for some
/// size in [`SEG_SIZES`] — 0, 1, n − 1, n, n + 1 and 3n — plus one that
/// crosses a disk read.
fn boundary_lengths() -> Vec<usize> {
    let mut lens: Vec<usize> = SEG_SIZES
        .iter()
        .flat_map(|&n| [0, 1, n - 1, n, n + 1, 3 * n])
        .chain([IO_BLOCK_BYTES / 8 + 1])
        .collect();
    lens.sort_unstable();
    lens.dedup();
    lens
}

/// [`every_backend`] over one list per [`boundary_lengths`] entry
/// (term t holds the t-th), built once for all segment tests.
fn segment_backends() -> &'static [(&'static str, Box<dyn Index>)] {
    static BACKENDS: OnceLock<Vec<(&'static str, Box<dyn Index>)>> = OnceLock::new();
    BACKENDS.get_or_init(|| {
        let lists = boundary_lengths()
            .into_iter()
            .map(|len| {
                (0..len as u32)
                    .map(|d| Posting::new(d * 3, d * 7919 % 10_007 + 1))
                    .collect()
            })
            .collect();
        every_backend(lists, 3 * IO_BLOCK_BYTES as u64, "seg")
    })
}

/// What `next()` yields for `term` from a fresh cursor.
fn next_sequence(ix: &dyn Index, term: u32) -> Vec<Posting> {
    let mut c = ix.score_cursor(term);
    std::iter::from_fn(|| c.next()).collect()
}

/// Deliveries of n at a time concatenate to the `next()` sequence, only
/// the last is short, and every later call delivers nothing — what a
/// segment job takes for the end of its list. `usize::MAX` is a valid
/// n: it once overflowed the raw cursor's `pos + n`.
#[test]
fn segments_concatenate_to_the_next_sequence_on_every_backend() {
    let lens = boundary_lengths();
    for (name, ix) in segment_backends() {
        for n in SEG_SIZES.into_iter().chain([usize::MAX]) {
            for (term, &len) in lens.iter().enumerate() {
                let ctx = format!("{name}, n {n}, len {len}");
                let want = next_sequence(ix.as_ref(), term as u32);
                assert_eq!(want.len(), len, "{ctx}");
                let mut c = ix.score_cursor(term as u32);
                let (mut got, mut seg) = (Vec::new(), Vec::new());
                loop {
                    let delivered = c.next_segment(n, &mut seg);
                    assert_eq!(delivered, seg.len(), "{ctx}");
                    got.extend_from_slice(&seg);
                    assert!(got.len() <= len, "{ctx}: delivered past the end");
                    if delivered < n {
                        break;
                    }
                }
                assert_eq!(got, want, "{ctx}");
                for _ in 0..2 {
                    assert_eq!(c.next_segment(n, &mut seg), 0, "{ctx}");
                    assert!(seg.is_empty(), "{ctx}");
                }
                assert_eq!(c.next(), None, "{ctx}");
            }
        }
    }
}

/// Probes ascending `docs` on `term` both ways — one `term_scores` call
/// and one `term_score` per doc — and checks that the scores agree and,
/// on a backend that counts probes, that both paths add the same
/// `random_accesses` and `bytes_read`.
fn assert_batch_matches_points(name: &str, ix: &dyn Index, term: u32, docs: &[u32]) {
    let ctx = format!("{name}, term {term}, {} docs", docs.len());
    let ra = ix.random_access().unwrap();
    let io = || ix.io_stats().map(|s| (s.random_accesses(), s.bytes_read()));
    let before = io();
    let want: Vec<u32> = docs.iter().map(|&d| ra.term_score(term, d)).collect();
    let between = io();
    let mut got = vec![u32::MAX; docs.len()];
    ra.term_scores(term, docs, &mut got);
    let after = io();
    assert_eq!(got, want, "{ctx}");
    if let (Some(b), Some(m), Some(a)) = (before, between, after) {
        assert_eq!((m.0 - b.0, m.1 - b.1), (a.0 - m.0, a.1 - m.1), "{ctx}: I/O");
    }
}

/// `term_scores` is `term_score` per doc on every backend: on unknown
/// terms and an empty list, for docs before the first and past the last
/// posting, on the first and last doc of every block, on every doc of a
/// range (hits and misses alike), and on an empty batch.
#[test]
fn term_scores_match_term_score_on_every_backend() {
    // Term 0 starts past doc 0 and ends in a short block; term 1 is
    // empty; term 2 holds one posting.
    let lists: Vec<Vec<Posting>> = vec![
        (0..150u32)
            .map(|i| Posting::new(10 + i * 3, i * 7919 % 10_007 + 1))
            .collect(),
        Vec::new(),
        vec![Posting::new(500, 9)],
    ];
    let range: Vec<u32> = (0..520).collect();
    for (name, ix) in &every_backend(lists.clone(), 1000, "batch") {
        for term in [0, 1, 2, 3, u32::MAX] {
            let list = lists.get(term as usize).map_or(&[][..], Vec::as_slice);
            let block_ends = list.chunks(16).flat_map(|b| [b[0].doc, b[b.len() - 1].doc]);
            let mut docs: Vec<u32> = [0, 9, 11, 458, 459, 500, 999, u32::MAX]
                .into_iter()
                .chain(block_ends)
                .collect();
            docs.sort_unstable();
            docs.dedup();
            assert_batch_matches_points(name, ix.as_ref(), term, &docs);
            assert_batch_matches_points(name, ix.as_ref(), term, &range);
            assert_batch_matches_points(name, ix.as_ref(), term, &[]);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    // Any list, any ascending batch (repeats included) on every backend.
    #[test]
    fn term_scores_match_term_score(list in arb_list(), probes in vec(0u32..2100, 0..80)) {
        let mut probes = probes;
        probes.sort_unstable();
        for (name, ix) in &every_backend(vec![list], 2000, "batch-prop") {
            assert_batch_matches_points(name, ix.as_ref(), 0, &probes);
        }
    }

    // `next()` and `next_segment` of any size (0 and `usize::MAX`
    // included), mixed in any order, read from one position.
    #[test]
    fn next_and_next_segment_share_one_position(
        term in 0usize..64,
        ops in vec((0u8..3, 0usize..1100), 0..40)
    ) {
        let term = (term % boundary_lengths().len()) as u32;
        for (name, ix) in segment_backends() {
            let want = next_sequence(ix.as_ref(), term);
            let mut c = ix.score_cursor(term);
            let (mut pos, mut seg) = (0usize, Vec::new());
            for &(kind, x) in &ops {
                if kind == 0 {
                    prop_assert_eq!(c.next(), want.get(pos).copied(), "{} next at {}", name, pos);
                    pos = (pos + 1).min(want.len());
                    continue;
                }
                let n = if kind == 1 { x } else { usize::MAX };
                let end = pos + n.min(want.len() - pos);
                prop_assert_eq!(c.next_segment(n, &mut seg), end - pos, "{} at {}", name, pos);
                prop_assert_eq!(&seg[..], &want[pos..end], "{} at {}", name, pos);
                pos = end;
            }
        }
    }
}
