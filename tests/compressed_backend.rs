//! The compressed posting backend as every algorithm sees it:
//! property-based roundtrips over all three cursor traits, the
//! quantized-bound admissibility guarantee, and the full algorithm
//! matrix returning identical top-k results on raw vs compressed
//! indexes of the same corpus.

use proptest::collection::vec;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use sparta::index::compressed::MAX_BLOCK;
use sparta::index::{
    BoundMode, CompressedIndex, CompressedTermData, InMemoryIndex, Index, IndexBuilder, IndexKind,
    Posting, ScoreQuantizer,
};
use sparta::prelude::*;
use std::sync::Arc;

const NUM_DOCS: u64 = 96;

/// Arbitrary posting lists: m lists of doc-sorted, deduped (doc,
/// score) pairs — including empty lists, singletons, and score ties.
fn arb_lists() -> impl Strategy<Value = Vec<Vec<Posting>>> {
    let list = vec((0u32..NUM_DOCS as u32, 1u32..2_000), 0..120).prop_map(|mut ps| {
        ps.sort_by_key(|&(d, _)| d);
        ps.dedup_by_key(|&mut (d, _)| d);
        ps.into_iter()
            .map(|(d, s)| Posting::new(d, s))
            .collect::<Vec<_>>()
    });
    vec(list, 1..4)
}

/// Largest doc id [`arb_wide_list`] emits.
const WIDE_MAX_DOC: u64 = 1 << 31;

/// One posting list over doc ids up to 2³¹, plus its block size: runs
/// of consecutive docs (zero-width gap planes) separated by gaps of
/// every magnitude (17–32-bit gap fields that straddle words). Shape
/// 0 is a single posting, 1 one consecutive run, 2 constant scores
/// (zero-width index plane), 3 the general mix.
fn arb_wide_list() -> impl Strategy<Value = (Vec<Posting>, usize)> {
    let runs = vec((1u32..33, 0u32..u32::MAX, 1u32..40, 1u32..5_000_000), 1..30);
    (runs, 0u8..4, 0usize..4).prop_map(|(runs, shape, bs)| {
        let mut ps = Vec::new();
        let mut next = 0u64;
        for (shift, frac, len, score) in runs {
            next += u64::from(frac) >> shift;
            let len = if shape == 0 { 1 } else { len };
            for j in 0..len {
                if next > WIDE_MAX_DOC {
                    break;
                }
                let score = if shape == 2 { 777 } else { score + j % 3 };
                ps.push(Posting::new(next as u32, score));
                next += 1;
            }
            if shape < 2 {
                break;
            }
        }
        (ps, [1, 8, 64, 256][bs])
    })
}

/// The probe algorithm the point lookup replaced, kept as its oracle:
/// decode the whole block, binary-search it.
fn full_decode_probe(td: &CompressedTermData, doc: u32) -> u32 {
    let bi = td.blocks().partition_point(|b| b.last_doc < doc);
    if bi >= td.blocks().len() {
        return 0;
    }
    let (mut docs, mut scores) = ([0u32; MAX_BLOCK], [0u32; MAX_BLOCK]);
    let n = td.decode_doc_block(bi, &mut docs, &mut scores);
    docs[..n].binary_search(&doc).map_or(0, |i| scores[i])
}

/// Every probe in `docs` of every term returns the raw score, by the
/// point lookup and by the full-decode oracle alike.
fn assert_probes_agree(
    lists: Vec<Vec<Posting>>,
    block_size: usize,
    docs: impl Iterator<Item = u32> + Clone,
) -> Result<(), TestCaseError> {
    let raw = InMemoryIndex::with_block_size(lists.clone(), WIDE_MAX_DOC + 1, block_size);
    let comp = CompressedIndex::with_block_size(lists, WIDE_MAX_DOC + 1, block_size);
    let (ra, rb) = (raw.random_access().unwrap(), comp.random_access().unwrap());
    for t in 0..raw.num_terms() {
        let td = comp.term_data(t).unwrap();
        for d in docs.clone() {
            let want = ra.term_score(t, d);
            prop_assert_eq!(
                rb.term_score(t, d),
                want,
                "term {} doc {} bs {}",
                t,
                d,
                block_size
            );
            prop_assert_eq!(
                full_decode_probe(td, d),
                want,
                "oracle, term {} doc {}",
                t,
                d
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    // ScoreCursor: the compressed score-ordered stream (including
    // segment decode) equals the raw one, posting for posting.
    #[test]
    fn score_cursors_round_trip(lists in arb_lists()) {
        let raw = InMemoryIndex::with_block_size(lists.clone(), NUM_DOCS, 8);
        let comp = CompressedIndex::with_block_size(lists, NUM_DOCS, 8);
        for t in 0..raw.num_terms() {
            let mut a = raw.score_cursor(t);
            let mut b = comp.score_cursor(t);
            prop_assert_eq!(a.len(), b.len());
            loop {
                let (x, y) = (a.next(), b.next());
                prop_assert_eq!(x, y, "term {}", t);
                if x.is_none() {
                    break;
                }
            }
            // Segment decode path (what pJASS/Sparta actually call).
            let mut a = raw.score_cursor(t);
            let mut b = comp.score_cursor(t);
            let (mut sa, mut sb) = (Vec::new(), Vec::new());
            loop {
                let (n, m) = (a.next_segment(5, &mut sa), b.next_segment(5, &mut sb));
                prop_assert_eq!(n, m, "term {}", t);
                prop_assert_eq!(&sa, &sb, "term {}", t);
                if n == 0 {
                    break;
                }
            }
        }
    }

    // DocCursor: a mixed advance/seek/skip walk tracks the raw
    // cursor's docs, scores, and block-max metadata exactly.
    #[test]
    fn doc_cursors_round_trip(lists in arb_lists(), ops in vec((0u8..4, 0u32..NUM_DOCS as u32), 0..60)) {
        let raw = InMemoryIndex::with_block_size(lists.clone(), NUM_DOCS, 8);
        let comp = CompressedIndex::with_block_size(lists, NUM_DOCS, 8);
        for t in 0..raw.num_terms() {
            let mut a = raw.doc_cursor(t);
            let mut b = comp.doc_cursor(t);
            prop_assert_eq!(a.max_score(), b.max_score(), "term {}", t);
            for &(op, target) in &ops {
                match op {
                    0 => { prop_assert_eq!(a.advance(), b.advance()); }
                    1 => { prop_assert_eq!(a.seek(target), b.seek(target)); }
                    2 => { prop_assert_eq!(a.skip_block(), b.skip_block()); }
                    _ => { prop_assert_eq!(a.block_at(target), b.block_at(target)); }
                }
                prop_assert_eq!(a.doc(), b.doc(), "term {}", t);
                if a.doc().is_some() {
                    prop_assert_eq!(a.score(), b.score(), "term {}", t);
                    prop_assert_eq!(a.block_max_score(), b.block_max_score(), "term {}", t);
                    prop_assert_eq!(a.block_last_doc(), b.block_last_doc(), "term {}", t);
                }
            }
        }
    }

    // RandomAccess: every (term, doc) probe — members and
    // non-members — returns the raw score: densely over small doc ids,
    // and on a wide list at every stored doc, its neighbours, 0, the
    // doc just past the list and `u32::MAX`.
    #[test]
    fn random_access_round_trips(lists in arb_lists(), wide in arb_wide_list()) {
        assert_probes_agree(lists, 8, 0..NUM_DOCS as u32)?;
        let (list, block_size) = wide;
        let probes: Vec<u32> = list
            .iter()
            .flat_map(|p| [p.doc.saturating_sub(1), p.doc, p.doc + 1])
            .chain([0, u32::MAX])
            .collect();
        assert_probes_agree(vec![list], block_size, probes.into_iter())?;
    }

    // Quantization admissibility on arbitrary score ranges: the
    // round-up u8 code never dequantizes below the input, and stays
    // within one quantization step above it.
    #[test]
    fn quantizer_is_admissible(min in 0u32..3_000_000, span in 0u32..4_000_000, scores in vec(0.0f64..1.0, 1..40)) {
        let q = ScoreQuantizer::fit(min, min.saturating_add(span));
        for &x in &scores {
            let s = min + (x * span as f64) as u32;
            let back = q.dequantize(q.quantize_ceil(s));
            prop_assert!(back >= s, "quantized bound {} below true score {}", back, s);
            prop_assert!(
                u64::from(back) <= u64::from(s) + u64::from(q.scale),
                "bound {} looser than one step above {} (scale {})", back, s, q.scale
            );
        }
    }

    // Quantized block maxima are admissible *as served*: under
    // `BoundMode::Quantized` every posting's block bound dominates its
    // true score, and dominates the exact block max it summarizes.
    #[test]
    fn quantized_block_bounds_dominate_scores(lists in arb_lists()) {
        let comp = CompressedIndex::with_block_size(lists.clone(), NUM_DOCS, 8)
            .with_bound_mode(BoundMode::Quantized);
        let exact = CompressedIndex::with_block_size(lists.clone(), NUM_DOCS, 8);
        for (t, list) in lists.iter().enumerate() {
            let quant = comp.doc_cursor(t as u32);
            let tight = exact.doc_cursor(t as u32);
            for p in list {
                let (last_q, bound_q) = quant.block_at(p.doc).expect("member doc has a block");
                let (last_e, bound_e) = tight.block_at(p.doc).expect("member doc has a block");
                prop_assert_eq!(last_q, last_e, "block boundaries are mode-independent");
                prop_assert!(bound_q >= p.score, "quantized bound {} < score {}", bound_q, p.score);
                prop_assert!(bound_q >= bound_e, "quantized bound {} < exact max {}", bound_q, bound_e);
            }
        }
    }
}

/// The full algorithm matrix on a real synthetic corpus: identical
/// top-k doc ids AND scores on raw vs compressed (the default backend
/// is bit-exact), recall@k == 1.0 against the oracle on both.
///
/// Both backends replay the *same seeded schedule* per query: with a
/// free-running multi-thread executor, parallel algorithms break
/// score ties at the k boundary schedule-dependently, which would
/// flake this doc-id comparison for reasons unrelated to the backend.
#[test]
fn full_matrix_raw_vs_compressed_equality() {
    let corpus = sparta_testkit::build_corpus(91);
    let builder = IndexBuilder::new(TfIdfScorer);
    let raw: Arc<dyn Index> = Arc::from(builder.build_kind(&corpus, IndexKind::Raw));
    let comp: Arc<dyn Index> = Arc::from(builder.build_kind(&corpus, IndexKind::Compressed));
    let k = 10;
    let cfg = SearchConfig::exact(k);
    let log = QueryLog::generate(corpus.stats(), 3, 6, 17);
    for m in [1usize, 3, 6] {
        for (qi, q) in log.of_length(m).iter().enumerate() {
            let oracle = Oracle::compute(raw.as_ref(), q, k);
            for (ai, algo) in sparta::core::registry::all_algorithms().iter().enumerate() {
                let seed = 0x5eed_0000 + (qi as u64) * 64 + ai as u64;
                let a = algo.search(&raw, q, &cfg, &DeterministicExecutor::new(seed));
                let b = algo.search(&comp, q, &cfg, &DeterministicExecutor::new(seed));
                assert_eq!(
                    a.docs(),
                    b.docs(),
                    "{} returned different top-k doc ids on m={m}",
                    algo.name()
                );
                assert_eq!(
                    a.scores(),
                    b.scores(),
                    "{} returned different scores on m={m}",
                    algo.name()
                );
                assert_eq!(oracle.recall(&b.docs()), 1.0, "{} recall@k", algo.name());
            }
        }
    }
}

/// Quantized bound mode stays exact for threshold algorithms: looser
/// (but admissible) block maxima may change *work*, never the result
/// set (scores are served losslessly from the codebook either way).
#[test]
fn quantized_bounds_preserve_recall() {
    let corpus = sparta_testkit::build_corpus(92);
    let builder = IndexBuilder::new(TfIdfScorer);
    let raw: Arc<dyn Index> = Arc::from(builder.build_kind(&corpus, IndexKind::Raw));
    let comp: Arc<dyn Index> = Arc::new(
        builder
            .build_compressed(&corpus)
            .with_bound_mode(BoundMode::Quantized),
    );
    let k = 10;
    let cfg = SearchConfig::exact(k);
    let exec = DedicatedExecutor::new(2);
    let log = QueryLog::generate(corpus.stats(), 2, 6, 23);
    for q in log.of_length(4) {
        let oracle = Oracle::compute(raw.as_ref(), q, k);
        for name in ["sparta", "pbmw", "wand", "maxscore"] {
            let algo = sparta::core::algorithm_by_name(name).unwrap();
            let r = algo.search(&comp, q, &cfg, &exec);
            assert_eq!(
                oracle.recall(&r.docs()),
                1.0,
                "{name} recall under quantized bounds: got {:?}, want {:?}",
                r.docs(),
                oracle.topk()
            );
        }
    }
}

/// The compressed backend is dramatically smaller on a corpus-shaped
/// index, and the equality above proves it costs no fidelity.
#[test]
fn corpus_footprint_shrinks() {
    let corpus = sparta_testkit::build_corpus(93);
    let builder = IndexBuilder::new(TfIdfScorer);
    let raw = builder.build_memory(&corpus);
    let comp = builder.build_compressed(&corpus);
    let raw_fp = Index::footprint(&raw).unwrap().total();
    let comp_fp = Index::footprint(&comp).unwrap().total();
    assert!(
        comp_fp * 2 < raw_fp,
        "compressed {comp_fp} not under half of raw {raw_fp}"
    );
}
