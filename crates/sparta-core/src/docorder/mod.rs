//! Document-order ("document-at-a-time") top-k algorithms (§3.1):
//! WAND, Block-Max WAND (BMW), MaxScore, and the doc-sharded parallel
//! BMW (pBMW) used as the paper's best-in-class document-order
//! baseline.
//!
//! These algorithms "simultaneously scan all relevant posting lists in
//! order of document id, fully scoring each document before moving to
//! the next one", pruning with list-wide (WAND/MaxScore) or per-block
//! (BMW) score upper bounds.

pub mod bmw;
pub mod maxscore;
pub mod pbmw;
pub mod wand;

pub use bmw::SeqBmw;
pub use maxscore::MaxScore;
pub use pbmw::PBmw;
pub use wand::Wand;

use sparta_index::DocCursor;

/// Sorts cursor indexes by current document id (exhausted cursors
/// last). The WAND/BMW pivot scan relies on this ordering.
pub(crate) fn sort_by_doc(order: &mut [usize], cursors: &[Box<dyn DocCursor>]) {
    order.sort_by_key(|&i| cursors[i].doc().map_or(u64::MAX, u64::from));
}

/// Computes the WAND pivot: the first position `p` in `order` such
/// that the cumulative list-wide upper bounds of cursors
/// `order[0..=p]` exceed `threshold`. Returns `None` when even the
/// full sum cannot beat it (search is over).
pub(crate) fn find_pivot(
    order: &[usize],
    cursors: &[Box<dyn DocCursor>],
    threshold: u64,
) -> Option<usize> {
    let mut acc = 0u64;
    for (pos, &i) in order.iter().enumerate() {
        cursors[i].doc()?; // exhausted ⇒ all later ones exhausted too
        acc += u64::from(cursors[i].max_score());
        if acc > threshold {
            return Some(pos);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparta_index::{InMemoryIndex, Index, Posting};

    fn cursors() -> (InMemoryIndex, Vec<usize>) {
        let t0 = vec![Posting::new(5, 10)];
        let t1 = vec![Posting::new(2, 20)];
        let t2 = vec![Posting::new(9, 5)];
        (
            InMemoryIndex::from_term_postings(vec![t0, t1, t2], 10),
            vec![0, 1, 2],
        )
    }

    #[test]
    fn sort_by_doc_orders_heads() {
        let (ix, mut order) = cursors();
        let cs: Vec<_> = (0..3).map(|t| ix.doc_cursor(t)).collect();
        sort_by_doc(&mut order, &cs);
        assert_eq!(order, vec![1, 0, 2], "docs 2 < 5 < 9");
    }

    #[test]
    fn pivot_respects_threshold() {
        let (ix, mut order) = cursors();
        let cs: Vec<_> = (0..3).map(|t| ix.doc_cursor(t)).collect();
        sort_by_doc(&mut order, &cs);
        // Max scores in doc order: t1=20, t0=10, t2=5 (cumulative 20, 30, 35).
        assert_eq!(find_pivot(&order, &cs, 0), Some(0));
        assert_eq!(find_pivot(&order, &cs, 20), Some(1));
        assert_eq!(find_pivot(&order, &cs, 30), Some(2));
        assert_eq!(find_pivot(&order, &cs, 35), None, "unbeatable threshold");
    }

    #[test]
    fn pivot_skips_exhausted() {
        let (ix, mut order) = cursors();
        let mut cs: Vec<_> = (0..3).map(|t| ix.doc_cursor(t)).collect();
        cs[1].advance(); // exhaust t1 (single posting)
        sort_by_doc(&mut order, &cs);
        assert_eq!(find_pivot(&order, &cs, 14), Some(1), "10 + 5 = 15 > 14");
        assert_eq!(find_pivot(&order, &cs, 15), None);
    }
}
