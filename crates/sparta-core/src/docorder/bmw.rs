//! Block-Max WAND (Ding & Suel, SIGIR'11): WAND with per-block upper
//! bounds, "us\[ing\] block-level statistics to prune the search"
//! (§5.2.1). The paper's selected block size is 64 postings.

use super::wand::wand_range;
use crate::config::SearchConfig;
use crate::result::{finalize_hits, SearchHit, TopKResult, WorkStats};
use crate::trace::TraceSink;
use crate::Algorithm;
use sparta_collections::BoundedTopK;
use sparta_corpus::types::Query;
use sparta_exec::Executor;
use sparta_index::Index;
use std::sync::Arc;

/// Sequential BMW.
#[derive(Debug, Default, Clone, Copy)]
pub struct SeqBmw;

impl Algorithm for SeqBmw {
    fn name(&self) -> &'static str {
        "bmw"
    }

    fn search(
        &self,
        index: &Arc<dyn Index>,
        query: &Query,
        cfg: &SearchConfig,
        _exec: &dyn Executor,
    ) -> TopKResult {
        let trace = TraceSink::new(cfg.trace);
        let mut cursors: Vec<_> = query.terms.iter().map(|&t| index.doc_cursor(t)).collect();
        let mut heap = BoundedTopK::new(cfg.k.max(1));
        let mut work = WorkStats::default();
        wand_range(
            &mut cursors,
            index.num_docs(),
            &mut heap,
            cfg.bmw_f,
            &|| 0,
            &mut work,
            &trace,
            true, // block-max pruning on
        );
        let hits = finalize_hits(
            heap.into_sorted_vec()
                .into_iter()
                .map(|e| SearchHit {
                    doc: e.item,
                    score: e.score,
                })
                .collect(),
            cfg.k,
        );
        TopKResult {
            hits,
            work,
            trace: trace.into_events(),
            spans: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::docorder::wand::{tests::pseudo_index, Wand};
    use crate::oracle::Oracle;
    use sparta_exec::DedicatedExecutor;

    #[test]
    fn exact_bmw_matches_oracle() {
        for seed in [1u32, 7, 42] {
            let ix = pseudo_index(4000, 3, seed);
            let q = Query::new(vec![0, 1, 2]);
            let cfg = SearchConfig::exact(10);
            let oracle = Oracle::compute(ix.as_ref(), &q, 10);
            let r = SeqBmw.search(&ix, &q, &cfg, &DedicatedExecutor::new(1));
            assert_eq!(oracle.recall(&r.docs()), 1.0, "seed {seed}");
        }
    }

    #[test]
    fn bmw_scores_no_more_than_wand() {
        let ix = pseudo_index(50_000, 3, 9);
        let q = Query::new(vec![0, 1, 2]);
        let cfg = SearchConfig::exact(10);
        let bmw = SeqBmw.search(&ix, &q, &cfg, &DedicatedExecutor::new(1));
        let wand = Wand.search(&ix, &q, &cfg, &DedicatedExecutor::new(1));
        assert!(
            bmw.work.postings_scanned <= wand.work.postings_scanned,
            "BMW {} > WAND {}",
            bmw.work.postings_scanned,
            wand.work.postings_scanned
        );
        // Same exact results.
        assert_eq!(bmw.docs(), wand.docs());
    }

    #[test]
    fn approximate_f_trades_recall_for_speed() {
        let ix = crate::docorder::wand::tests::correlated_index(50_000, 4, 11);
        let q = Query::new(vec![0, 1, 2, 3]);
        let oracle = Oracle::compute(ix.as_ref(), &q, 100);
        let exact = SeqBmw.search(
            &ix,
            &q,
            &SearchConfig::exact(100),
            &DedicatedExecutor::new(1),
        );
        let high = SeqBmw.search(
            &ix,
            &q,
            &SearchConfig::exact(100).with_bmw_f(1.1),
            &DedicatedExecutor::new(1),
        );
        let low = SeqBmw.search(
            &ix,
            &q,
            &SearchConfig::exact(100).with_bmw_f(1.5),
            &DedicatedExecutor::new(1),
        );
        assert_eq!(oracle.recall(&exact.docs()), 1.0);
        // Larger f ⇒ more pruning ⇒ fewer scored postings, lower or
        // equal recall — the paper's high/low trade-off. (The f values
        // achieving a given recall are corpus-dependent; the paper's
        // f = 5/10 on ClueWeb correspond to much smaller factors on
        // this small synthetic index, where Θ saturates quickly.)
        assert!(high.work.postings_scanned <= exact.work.postings_scanned);
        assert!(low.work.postings_scanned <= high.work.postings_scanned);
        let (rh, rl) = (oracle.recall(&high.docs()), oracle.recall(&low.docs()));
        assert!(rh >= rl, "f=1.1 recall {rh} < f=1.5 recall {rl}");
        assert!(rl < 1.0, "f=1.5 should actually approximate");
        // Absolute recall at a given f is corpus-dependent (this
        // synthetic index has a compressed top-score band, so even
        // small f cuts deep); only the trade-off direction is asserted.
    }
}
