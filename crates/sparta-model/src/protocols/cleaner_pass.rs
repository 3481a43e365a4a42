//! Sparta's cleaner-pass hand-off (`sparta-core/src/sparta/mod.rs`,
//! `State::{maybe_schedule_pass, clean}`): one atomic, `next_pass_at`,
//! holds either the postings count at which the next pass falls due or
//! `IN_FLIGHT`, the claim. A segment job whose budget is spent loads
//! it (Relaxed) and claims the pass with
//! `compare_exchange(due, IN_FLIGHT, Acquire, Relaxed)`; a stale `due`
//! fails the exchange. The pass rebuilds `docMap` and then stores the
//! next budget with `Release`, which releases the claim. The pass runs
//! on whichever worker pops it, but the queue's lock orders the push
//! before the run, so the model runs it on the claimer's thread. The
//! inline pass after the join is ordered by the join and not modelled.
//!
//! Claims under test (DESIGN.md §11):
//!
//! * **One pass in flight**: two passes never overlap, so `docMap` has
//!   one writer.
//! * **Each pass sees the last one's map**: a pass that claims the
//!   budget an earlier pass stored rebuilds the map that pass
//!   published, not an older one.

use super::Mutation;
use crate::{MemOrder, Model};

/// `next_pass_at` while a pass holds the claim.
const IN_FLIGHT: u64 = 9;

/// Two segment workers, each finding its budget spent and racing for
/// the claim. `doc_map` stands for the published map's version (each
/// pass publishes the next), each pass stores that version as the next
/// budget, and `in_pass` counts passes in flight. Mutations:
/// `AcquireToRelaxed` drops the claim's acquire edge;
/// `ReleaseToRelaxed` flips the pass's budget store to Relaxed.
pub fn model(mutation: Mutation) -> Model {
    let mut m = Model::new("cleaner_pass");
    let next_pass_at = m.atomic_u64("next_pass_at", 0);
    let doc_map = m.atomic_u64("doc_map", 0);
    let in_pass = m.atomic_u64("in_pass", 0);

    let claim_ord = match mutation {
        Mutation::AcquireToRelaxed => MemOrder::Relaxed,
        _ => MemOrder::Acquire,
    };
    let release_ord = match mutation {
        Mutation::ReleaseToRelaxed => MemOrder::Relaxed,
        _ => MemOrder::Release,
    };
    for name in ["worker_a", "worker_b"] {
        m.thread(name, move |t| {
            let due = next_pass_at.load(t, MemOrder::Relaxed);
            if due == IN_FLIGHT
                || next_pass_at
                    .compare_exchange(t, due, IN_FLIGHT, claim_ord, MemOrder::Relaxed)
                    .is_err()
            {
                return; // a pass is in flight: this worker enqueues none
            }
            // The pass: owns docMap until it stores the next budget.
            t.observe("overlap", in_pass.fetch_add(t, 1, MemOrder::Relaxed));
            let version = doc_map.load(t, MemOrder::Relaxed);
            doc_map.store(t, version + 1, MemOrder::Relaxed);
            t.observe("pass", version * 10 + due);
            in_pass.fetch_sub(t, 1, MemOrder::Relaxed);
            next_pass_at.store(t, version + 1, release_ord);
        });
    }

    m.invariant(move |leaf| {
        if leaf.observed("overlap").iter().any(|&n| n != 0) {
            return Err("two cleaner passes were in flight at once".to_string());
        }
        let mut versions = Vec::new();
        for p in leaf.observed("pass") {
            let (version, due) = (p / 10, p % 10);
            if versions.contains(&version) {
                return Err(format!(
                    "two passes rebuilt the same docMap version {version}"
                ));
            }
            versions.push(version);
            if due != version {
                return Err(format!(
                    "a pass claimed the budget of pass {due} but rebuilt map version {version}"
                ));
            }
        }
        Ok(())
    });
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shipped_hand_off_is_clean() {
        let report = model(Mutation::None).check();
        report.assert_clean();
        assert!(report.executions > 1);
    }
}
