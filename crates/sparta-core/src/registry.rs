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
    use parking_lot::Mutex;
    use sparta_corpus::types::Query;
    use sparta_exec::{DeterministicExecutor, Executor, JobQueue, WorkerPool};
    use sparta_index::{InMemoryIndex, Index, Posting};
    use std::time::Duration;

    /// 3 terms over `n` docs with pseudo-random scores.
    fn pseudo_index(n: u32) -> Arc<dyn Index> {
        let lists = (0..3u32)
            .map(|t| {
                (0..n)
                    .map(|d| {
                        let x = d.wrapping_mul(2654435761).wrapping_add(t * 193);
                        Posting::new(d, x.wrapping_mul(2246822519) % 9_000 + 1)
                    })
                    .collect()
            })
            .collect();
        Arc::new(InMemoryIndex::from_term_postings(lists, u64::from(n)))
    }

    /// Passes each queue on to a deterministic executor, noting its tag.
    struct TagSpy {
        inner: DeterministicExecutor,
        tags: Mutex<Vec<u64>>,
    }

    impl Executor for TagSpy {
        fn run(&self, queue: Arc<JobQueue>) {
            self.tags.lock().push(queue.tag());
            self.inner.run(queue);
        }

        fn parallelism(&self) -> usize {
            self.inner.parallelism()
        }
    }

    /// A served request is attributed and accounted by its queue's tag:
    /// every queue an algorithm runs carries the config's `query_tag`,
    /// and every parallel algorithm runs one.
    #[test]
    fn every_queue_carries_the_query_tag() {
        let ix = pseudo_index(3000);
        let q = Query::new(vec![0, 1, 2]);
        let cfg = SearchConfig::exact(10).with_seg_size(64).with_query_tag(77);
        let parallel: Vec<&str> = case_study_algorithms().iter().map(|a| a.name()).collect();
        for algo in all_algorithms() {
            let exec = TagSpy {
                inner: DeterministicExecutor::new(0),
                tags: Mutex::default(),
            };
            algo.search(&ix, &q, &cfg, &exec);
            let tags = exec.tags.into_inner();
            let name = algo.name();
            assert!(tags.iter().all(|&t| t == 77), "{name}: tags {tags:?}");
            assert_eq!(!tags.is_empty(), parallel.contains(&name), "{name}");
        }
    }

    /// A stop the Δ budget caused is counted on the sequential paths
    /// too: Δ = 0 fires at NRA's first sweep and RA's first check, long
    /// before either's exactness condition.
    #[test]
    fn sequential_paths_count_delta_stops() {
        let ix = pseudo_index(6000);
        let q = Query::new(vec![0, 1, 2]);
        let exact = SearchConfig::exact(100);
        let approx = exact.with_delta(Some(Duration::ZERO));
        let exec = WorkerPool::new(2);
        for name in ["nra", "snra", "ra"] {
            let algo = algorithm_by_name(name).unwrap();
            let r = algo.search(&ix, &q, &approx, &exec);
            assert!(r.work.timeout_stops >= 1, "{name}: {}", r.work);
            assert_eq!(r.hits.len(), 100, "{name}");
            let r = algo.search(&ix, &q, &exact, &exec);
            assert_eq!(r.work.timeout_stops, 0, "{name}: {}", r.work);
        }
    }

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
                let r = algo.search(&ix, &q, &cfg, &WorkerPool::new(threads));
                assert_eq!(r.docs(), want, "{} t={threads}", algo.name());
            }
        }
    }
}
