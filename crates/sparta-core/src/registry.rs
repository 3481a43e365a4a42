//! Name-indexed registry of all implemented algorithms, used by the
//! benchmark harness and the `repro` binary.

use crate::docorder::{MaxScore, PBmw, SeqBmw, Wand};
use crate::jass::Jass;
use crate::pjass::PJass;
use crate::pnra::PNra;
use crate::pra::PRa;
use crate::snra::SNra;
use crate::sparta::Sparta;
use crate::ta::{SeqNra, SeqRa};
use crate::Algorithm;
use std::sync::Arc;

/// All algorithms, parallel and sequential.
pub fn all_algorithms() -> Vec<Arc<dyn Algorithm>> {
    vec![
        Arc::new(Sparta),
        Arc::new(PRa),
        Arc::new(PNra),
        Arc::new(SNra),
        Arc::new(PBmw),
        Arc::new(PJass),
        Arc::new(SeqNra),
        Arc::new(SeqRa),
        Arc::new(SeqBmw),
        Arc::new(Wand),
        Arc::new(MaxScore),
        Arc::new(Jass),
    ]
}

/// The six algorithms of the paper's case study (§5.2), in the order
/// of Table 2.
pub fn case_study_algorithms() -> Vec<Arc<dyn Algorithm>> {
    vec![
        Arc::new(Sparta),
        Arc::new(PNra),
        Arc::new(SNra),
        Arc::new(PRa),
        Arc::new(PBmw),
        Arc::new(PJass),
    ]
}

/// Looks an algorithm up by its [`Algorithm::name`].
pub fn algorithm_by_name(name: &str) -> Option<Arc<dyn Algorithm>> {
    all_algorithms().into_iter().find(|a| a.name() == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SearchConfig;
    use sparta_corpus::types::Query;
    use sparta_exec::DedicatedExecutor;
    use sparta_index::{InMemoryIndex, Index, Posting};

    #[test]
    fn names_are_unique() {
        let algos = all_algorithms();
        let mut names: Vec<&str> = algos.iter().map(|a| a.name()).collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate algorithm names");
    }

    #[test]
    fn lookup_by_name() {
        assert!(algorithm_by_name("sparta").is_some());
        assert!(algorithm_by_name("pbmw").is_some());
        assert!(algorithm_by_name("nope").is_none());
    }

    #[test]
    fn case_study_has_six() {
        assert_eq!(case_study_algorithms().len(), 6);
    }

    /// Doc ids 0 and `u32::MAX` are ordinary ids to every algorithm:
    /// both extremes rank in the top 3 of an index of all 2^32 ids.
    /// (Sparta's docMap packs them into a slot word's extremes,
    /// `doc << 32 | handle + 1`; WAND, BMW and pBMW carry their
    /// exclusive doc bound as a `u64`.) pRA is left out: its claim
    /// bitset for 2^32 ids is 512 MiB. The oracle's accumulator is
    /// dense in doc id too, so the expected ranking is stated by hand.
    #[test]
    fn exact_with_extreme_doc_ids() {
        // (doc, per-list base score).
        let docs = [
            (0u32, 50u32),
            (1, 10),
            (77, 20),
            (u32::MAX - 1, 30),
            (u32::MAX, 40),
        ];
        let lists: Vec<Vec<Posting>> = (0..3u32)
            .map(|t| docs.iter().map(|&(d, s)| Posting::new(d, s + t)).collect())
            .collect();
        let want = vec![0, u32::MAX, u32::MAX - 1];
        let ix: Arc<dyn Index> = Arc::new(InMemoryIndex::from_term_postings(lists, 1 << 32));
        let q = Query::new(vec![0, 1, 2]);
        let cfg = SearchConfig::exact(3).with_seg_size(2);
        for algo in all_algorithms().into_iter().filter(|a| a.name() != "pra") {
            for threads in [1, 2] {
                let r = algo.search(&ix, &q, &cfg, &DedicatedExecutor::new(threads));
                assert_eq!(r.docs(), want, "{} t={threads}", algo.name());
            }
        }
    }
}
