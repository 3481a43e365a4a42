//! Mutation self-tests: the checker is only trustworthy if a
//! *weakened* protocol is caught. For every ported protocol, flip one
//! acquire edge and (separately) one release edge and require a
//! violated invariant with a schedule that replays to the same
//! violation. A mutation that sails through green means the model — or
//! the checker — is vacuous, and the lint cross-reference built on top
//! of it would be theater.

use sparta_model::protocols::{
    admission, cleaner_pass, doc_bitset, doc_slab, doc_table, job_queue, seqlock, server_flags,
    tag_alloc, Mutation,
};
use sparta_model::Model;

/// The contract every mutation must meet: caught, and replayable.
fn assert_caught(label: &str, m: &Model) {
    let report = m.check();
    assert!(
        report.violations > 0,
        "{label}: weakened ordering was NOT caught ({} executions, all clean)",
        report.executions
    );
    assert!(!report.truncated, "{label}: exploration was truncated");
    let v = report
        .first_violation
        .as_ref()
        .expect("violations > 0 implies a recorded first violation");
    let replayed = m
        .replay(&v.schedule)
        .unwrap_or_else(|| panic!("{label}: schedule {:?} did not replay", v.schedule));
    assert_eq!(
        replayed, v.message,
        "{label}: replay of {:?} diverged from the recorded violation",
        v.schedule
    );
}

#[test]
fn job_queue_acquire_load_flipped_to_relaxed_is_caught() {
    assert_caught(
        "job_queue/acquire",
        &job_queue::model(job_queue::Variant::LockBridge, Mutation::AcquireToRelaxed),
    );
}

#[test]
fn job_queue_release_half_of_fetch_sub_dropped_is_caught() {
    assert_caught(
        "job_queue/release",
        &job_queue::model(job_queue::Variant::LockBridge, Mutation::ReleaseToRelaxed),
    );
}

#[test]
fn seqlock_acquire_seq_read_flipped_to_relaxed_is_caught() {
    assert_caught(
        "seqlock/acquire",
        &seqlock::model(Mutation::AcquireToRelaxed),
    );
}

#[test]
fn seqlock_release_publish_dropped_is_caught() {
    assert_caught(
        "seqlock/release",
        &seqlock::model(Mutation::ReleaseToRelaxed),
    );
}

#[test]
fn doc_slab_acquire_bound_snapshot_flipped_to_relaxed_is_caught() {
    assert_caught(
        "doc_slab/acquire",
        &doc_slab::model(Mutation::AcquireToRelaxed),
    );
}

#[test]
fn doc_slab_release_bound_store_flipped_to_relaxed_is_caught() {
    assert_caught(
        "doc_slab/release",
        &doc_slab::model(Mutation::ReleaseToRelaxed),
    );
}

#[test]
fn doc_table_acquire_slot_load_flipped_to_relaxed_is_caught() {
    assert_caught(
        "doc_table/acquire",
        &doc_table::model(doc_table::Slot::Hashed, Mutation::AcquireToRelaxed),
    );
}

#[test]
fn doc_table_release_half_of_claim_cas_dropped_is_caught() {
    assert_caught(
        "doc_table/release",
        &doc_table::model(doc_table::Slot::Hashed, Mutation::ReleaseToRelaxed),
    );
}

#[test]
fn dense_slot_acquire_load_flipped_to_relaxed_is_caught() {
    assert_caught(
        "dense_slot/acquire",
        &doc_table::model(doc_table::Slot::Dense, Mutation::AcquireToRelaxed),
    );
}

#[test]
fn dense_slot_release_half_of_claim_cas_dropped_is_caught() {
    assert_caught(
        "dense_slot/release",
        &doc_table::model(doc_table::Slot::Dense, Mutation::ReleaseToRelaxed),
    );
}

#[test]
fn admission_lock_without_acquire_edge_is_caught() {
    assert_caught(
        "admission/acquire",
        &admission::model(Mutation::AcquireToRelaxed),
    );
}

#[test]
fn admission_unlock_without_release_edge_is_caught() {
    assert_caught(
        "admission/release",
        &admission::model(Mutation::ReleaseToRelaxed),
    );
}

#[test]
fn cleaner_pass_claim_without_acquire_edge_is_caught() {
    assert_caught(
        "cleaner_pass/acquire",
        &cleaner_pass::model(Mutation::AcquireToRelaxed),
    );
}

#[test]
fn cleaner_pass_release_store_flipped_to_relaxed_is_caught() {
    assert_caught(
        "cleaner_pass/release",
        &cleaner_pass::model(Mutation::ReleaseToRelaxed),
    );
}

#[test]
fn server_flags_acquire_probe_flipped_to_relaxed_is_caught() {
    assert_caught(
        "server_flags/acquire",
        &server_flags::model(Mutation::AcquireToRelaxed),
    );
}

#[test]
fn server_flags_release_ready_store_dropped_is_caught() {
    assert_caught(
        "server_flags/release",
        &server_flags::model(Mutation::ReleaseToRelaxed),
    );
}

/// The tag allocator is all-Relaxed by design (the annotation's claim),
/// so its dangerous mutation is losing RMW atomicity, not an ordering
/// flip.
#[test]
fn tag_alloc_split_rmw_is_caught() {
    assert_caught(
        "tag_alloc/split-rmw",
        &tag_alloc::model(tag_alloc::Rmw::SplitLoadStore),
    );
}

/// The claim bitset is all-Relaxed too (the bit is an identity); its
/// seeded mutant is the same loss of atomicity — load-then-store
/// instead of `fetch_or` — which hands one document two firsts or
/// erases a neighbour's bit.
#[test]
fn doc_bitset_split_rmw_is_caught() {
    assert_caught(
        "doc_bitset/split-rmw",
        &doc_bitset::model(doc_bitset::Rmw::SplitLoadStore),
    );
}

/// And the shipped suite itself stays green end to end — the exact set
/// CI's model-check job runs.
#[test]
fn every_shipped_model_verifies_clean() {
    for m in sparta_model::protocols::all_shipped() {
        let report = m.check();
        report.assert_clean();
        assert!(report.executions > 0, "{}: nothing explored", m.name());
    }
}
