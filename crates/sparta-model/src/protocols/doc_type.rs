//! The `DocType` score-publication protocol of the pNRA baseline's
//! free-standing records (`sparta-core/src/sparta/doc_type.rs`):
//! `set_score` is `scores[i].swap(AcqRel)` followed by
//! `sum.fetch_add(delta, AcqRel)`, and the Alg. 1 line 23 filter reads
//! `sum` with Acquire.
//!
//! The DESIGN.md claim under test: the running sum is a *publication
//! point* — a thread that Acquire-loads `sum` and observes a delta
//! also observes the score swap that produced it (release sequence
//! through the two RMWs).

use super::Mutation;
use crate::{MemOrder, Model};

const SCORE: u64 = 7;

/// One owner thread scoring a doc, one filter thread reading the sum.
/// Mutations: `AcquireToRelaxed` flips the filter's `sum` load
/// (`current_sum()`); `ReleaseToRelaxed` drops the release half of the
/// `sum.fetch_add` (AcqRel → Acquire).
pub fn model(mutation: Mutation) -> Model {
    let mut m = Model::new("doc_type_publish");
    let score = m.atomic_u64("rec.score", 0);
    let sum = m.atomic_u64("rec.sum", 0);

    let add_ord = match mutation {
        Mutation::ReleaseToRelaxed => MemOrder::Acquire,
        _ => MemOrder::AcqRel,
    };
    m.thread("owner", move |t| {
        // set_score(): swap the score, fold the delta into the sum.
        let old = score.swap(t, SCORE, MemOrder::AcqRel);
        sum.fetch_add(t, SCORE.wrapping_sub(old), add_ord);
    });

    let sum_ord = match mutation {
        Mutation::AcquireToRelaxed => MemOrder::Relaxed,
        _ => MemOrder::Acquire,
    };
    m.thread("filter", move |t| {
        // The stop-checker's Eq. 2 scan: current_sum(), then the
        // constituent score must already be visible.
        let s = sum.load(t, sum_ord);
        if s == SCORE {
            t.observe("score_at_filter", score.load(t, MemOrder::Relaxed));
        }
    });

    m.invariant(move |leaf| {
        if leaf.observed("score_at_filter").iter().all(|&v| v == SCORE) {
            Ok(())
        } else {
            Err("filter observed the sum's delta but not the score \
                 swap that produced it"
                .to_string())
        }
    });
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shipped_publication_protocol_is_clean() {
        let report = model(Mutation::None).check();
        report.assert_clean();
        assert!(report.executions > 3);
    }
}
