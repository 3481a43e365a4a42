//! Posting representation and list invariants.

use sparta_corpus::types::DocId;

/// Number of postings per block-max block. The paper "experimented
/// with multiple block sizes and selected 64, which yielded the best
/// performance" (§5.2.1).
pub const DEFAULT_BLOCK_SIZE: usize = 64;

/// One posting: a document and its integer term score (tf-idf × 10⁶,
/// §5.2). Exactly 8 bytes, the unit of both index orders.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(C)]
pub struct Posting {
    /// Document id.
    pub doc: DocId,
    /// Integer term score `ts(D, t)`.
    pub score: u32,
}

impl Posting {
    /// Constructs a posting.
    #[inline]
    pub fn new(doc: DocId, score: u32) -> Self {
        Self { doc, score }
    }
}

/// Block-max metadata for one block of a doc-ordered posting list
/// [Ding & Suel 2011]: the last document id in the block and the
/// maximum term score within it. BMW uses these to skip whole blocks
/// whose maximum cannot beat the threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C)]
pub struct BlockMeta {
    /// Largest (last) document id in the block.
    pub last_doc: DocId,
    /// Maximum term score within the block.
    pub max_score: u32,
}

/// Checks the doc-order invariant: strictly increasing doc ids.
pub fn is_doc_ordered(postings: &[Posting]) -> bool {
    postings.windows(2).all(|w| w[0].doc < w[1].doc)
}

/// Checks the score-order invariant: non-increasing scores.
pub fn is_score_ordered(postings: &[Posting]) -> bool {
    postings.windows(2).all(|w| w[0].score >= w[1].score)
}

/// Sorts postings into score order: decreasing score, ties broken by
/// increasing doc id (deterministic traversal order).
///
/// Every index build hands this a list already in doc order, where the
/// doc sort only confirms the order and one stable sort by score keeps
/// each score's postings in doc order.
pub fn sort_score_order(postings: &mut [Posting]) {
    sort_doc_order(postings);
    postings.sort_by_key(|p| std::cmp::Reverse(p.score));
}

/// Sorts postings into doc order.
pub fn sort_doc_order(postings: &mut [Posting]) {
    postings.sort_unstable_by_key(|p| p.doc);
}

/// Computes block-max metadata over a doc-ordered posting list.
pub fn build_blocks(postings: &[Posting], block_size: usize) -> Vec<BlockMeta> {
    assert!(block_size > 0);
    postings
        .chunks(block_size)
        .map(|chunk| BlockMeta {
            last_doc: chunk.last().expect("chunks are non-empty").doc,
            max_score: chunk.iter().map(|p| p.score).max().expect("non-empty"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn sample() -> Vec<Posting> {
        vec![
            Posting::new(5, 30),
            Posting::new(1, 50),
            Posting::new(9, 30),
            Posting::new(3, 10),
        ]
    }

    #[test]
    fn posting_is_8_bytes() {
        assert_eq!(std::mem::size_of::<Posting>(), 8);
        assert_eq!(std::mem::size_of::<BlockMeta>(), 8);
    }

    #[test]
    fn sort_orders() {
        let mut p = sample();
        sort_doc_order(&mut p);
        assert!(is_doc_ordered(&p));
        assert_eq!(p[0].doc, 1);
        sort_score_order(&mut p);
        assert!(is_score_ordered(&p));
        assert_eq!(p[0], Posting::new(1, 50));
        // Tie at score 30 broken by doc id.
        assert_eq!(p[1], Posting::new(5, 30));
        assert_eq!(p[2], Posting::new(9, 30));
    }

    #[test]
    fn order_checks_reject_violations() {
        assert!(!is_doc_ordered(&[Posting::new(2, 1), Posting::new(2, 1)]));
        assert!(!is_score_ordered(&[Posting::new(1, 1), Posting::new(2, 5)]));
        assert!(is_doc_ordered(&[]));
        assert!(is_score_ordered(&[Posting::new(1, 7)]));
    }

    #[test]
    fn blocks_cover_list() {
        let mut p = sample();
        sort_doc_order(&mut p);
        let blocks = build_blocks(&p, 3);
        assert_eq!(blocks.len(), 2);
        assert_eq!(
            blocks[0],
            BlockMeta {
                last_doc: 5,
                max_score: 50
            }
        );
        assert_eq!(
            blocks[1],
            BlockMeta {
                last_doc: 9,
                max_score: 30
            }
        );
    }

    #[test]
    fn blocks_of_exact_multiple() {
        let mut p = sample();
        sort_doc_order(&mut p);
        let blocks = build_blocks(&p, 2);
        assert_eq!(blocks.len(), 2);
        assert_eq!(blocks[1].last_doc, 9);
    }

    #[test]
    fn empty_list_has_no_blocks() {
        assert!(build_blocks(&[], 64).is_empty());
    }

    // The doc sort plus stable score sort orders any input — with
    // duplicate doc ids and tied scores — as the one-comparator sort by
    // (score desc, doc asc) does.
    proptest! {
        #[test]
        fn score_order_matches_the_comparator_sort(
            raw in vec((0u32..40, 0u32..8), 0..200)
        ) {
            let mut got: Vec<Posting> = raw.iter().map(|&(d, s)| Posting::new(d, s)).collect();
            let mut want = got.clone();
            want.sort_unstable_by(|a, b| b.score.cmp(&a.score).then(a.doc.cmp(&b.doc)));
            sort_score_order(&mut got);
            prop_assert_eq!(got, want);
        }
    }
}
