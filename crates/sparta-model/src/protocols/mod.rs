//! The workspace's real protocols, ported op-for-op onto the modelled
//! primitives. Every model here is named — `sparta-lint`'s
//! cross-reference pass harvests the `Model::new("…")` literals and
//! requires each `// ordering:` justification in the workspace to cite
//! one via a `model: <name>` tag.
//!
//! Each port takes a [`Mutation`]: `None` is the shipped protocol and
//! must verify clean; the two weakenings flip exactly one acquire edge
//! or one release edge and must be *caught* (a violated invariant with
//! a replayable schedule). The mutation self-tests in
//! `tests/mutations.rs` hold the checker to that.

use crate::Model;

pub mod admission;
pub mod cleaner_pass;
pub mod doc_bitset;
pub mod doc_slab;
pub mod doc_table;
pub mod job_queue;
pub mod seqlock;
pub mod server_flags;
pub mod tag_alloc;

/// A deliberate single-ordering weakening applied to a ported
/// protocol, proving the checker is not vacuously green.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// The shipped protocol, unmodified.
    None,
    /// One load's `Acquire` flipped to `Relaxed` (for mutex-based
    /// protocols: the lock's acquire edge dropped).
    AcquireToRelaxed,
    /// One store/RMW's release edge dropped (for mutex-based
    /// protocols: the unlock's release edge dropped).
    ReleaseToRelaxed,
}

/// Every shipped (unmutated) model, for the CI `model-check` suite and
/// the lint registry's ground truth.
pub fn all_shipped() -> Vec<Model> {
    vec![
        job_queue::model(job_queue::Variant::LockBridge, Mutation::None),
        seqlock::model(Mutation::None),
        doc_slab::model(Mutation::None),
        doc_table::model(doc_table::Slot::Hashed, Mutation::None),
        doc_table::model(doc_table::Slot::Dense, Mutation::None),
        doc_bitset::model(doc_bitset::Rmw::Atomic),
        admission::model(Mutation::None),
        cleaner_pass::model(Mutation::None),
        server_flags::model(Mutation::None),
        tag_alloc::model(tag_alloc::Rmw::Atomic),
    ]
}
