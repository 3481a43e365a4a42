//! Concurrent building blocks for the Sparta top-k retrieval engine.
//!
//! This crate provides the low-level shared data structures that the
//! algorithms in `sparta-core` are built from:
//!
//! * [`BoundedTopK`] — a bounded min-heap tracking the k highest-scoring
//!   items seen so far, together with the threshold Θ (the k-th best
//!   score): the doc-order family's, RA's and pRA's heap, and every
//!   final merge. The NRA family (Sparta, pNRA, NRA, sNRA), whose
//!   members' scores grow, ranks by `sparta-core`'s `SpartaHeap`.
//! * [`StripedMap`] — the paper's lock-per-bucket `docMap` (§4.3),
//!   kept only for the repo benchmark's `collections.striped_upsert_ns`
//!   probe; no algorithm uses it.
//! * [`DocTable`] — an insert-only open-addressing `doc id → handle`
//!   table, one atomic word per slot, sized once: lookups are plain
//!   loads and admission is one compare-and-swap. Sparta's, pNRA's
//!   and pJASS's `docMap` when the corpus is much larger than a
//!   query's lists.
//! * [`DenseDocTable`] — the same table indexed by doc id: one
//!   `AtomicU32` per document, a lookup is one load and admission one
//!   compare-and-swap, with no probe window and no restart. Their
//!   `docMap` whenever it is no larger than the `DocTable` it replaces.
//! * [`DocBitset`] — one bit per document, claimed with one
//!   `fetch_or`: pRA's first-wins `seen` set.
//! * [`SwapCell`] — a shared pointer that readers can snapshot cheaply
//!   and a single writer can replace wholesale ("a single pointer
//!   swing", §4.3), used by the cleaner to publish the pruned `docMap`.
//! * [`ShardedCounter`] — a contention-avoiding counter used for
//!   approximate map sizes and statistics.
//! * [`fast_hash`] — a deterministic multiplicative hasher for integer
//!   keys (doc ids), in place of SipHash on hot integer-keyed maps.

#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::disallowed_types))]

pub mod counter;
pub mod dense_doc_table;
pub mod doc_bitset;
pub mod doc_table;
pub mod fast_hash;
pub mod striped_map;
pub mod swap_cell;
pub mod topk_heap;

pub use counter::ShardedCounter;
pub use dense_doc_table::DenseDocTable;
pub use doc_bitset::DocBitset;
pub use doc_table::{DocTable, Lookup};
pub use fast_hash::{FastBuildHasher, FastHashMap, FastHashSet, FastIntHasher};
pub use striped_map::StripedMap;
pub use swap_cell::SwapCell;
pub use topk_heap::{BoundedTopK, Entry};
