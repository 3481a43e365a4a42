//! Inverted index substrate for Sparta.
//!
//! Search algorithms "use a preprocessed inverted index of the corpus.
//! The index is organized according to terms and holds a posting list
//! of all documents associated with each term" (§3.1). This crate
//! provides:
//!
//! * [`Posting`] / posting-list invariants ([`posting`]);
//! * the [`Index`] trait unifying the three access paths the paper's
//!   algorithm families need:
//!   * **score-order cursors** (Sparta, the NRA family, pRA, pJASS) —
//!     postings sorted by decreasing term score,
//!   * **doc-order cursors with block-max metadata** (pBMW) — postings
//!     sorted by document id, with per-block maximum scores for
//!     skipping [Ding & Suel 2011],
//!   * **random access** (pRA) — `ts(D, t)` lookups by document id via
//!     a secondary index;
//!
//!   each backend implements each path once, and every cursor holds
//!   its term's data by `Arc`, so it is `'static`;
//! * [`memory::InMemoryIndex`] — RAM-resident implementation;
//! * [`compressed::CompressedIndex`] — RAM-resident block-compressed
//!   postings, decoded bit-exactly behind the same cursors;
//! * [`storage`] — an uncompressed binary on-disk format ("stored on
//!   disk uncompressed as a collection of binary files", §5.1), loaded
//!   and cross-checked whole at open, and the disk backend over it: the
//!   loaded planes behind an I/O layer that counts block fetches and
//!   can charge a configurable latency per sequential block and per
//!   random access, standing in for the paper's SSD with a flushed
//!   page cache;
//! * [`builder::IndexBuilder`] — builds either representation from a
//!   corpus + scorer.

#![warn(missing_docs)]

pub mod builder;
pub mod compressed;
pub mod cursor;
pub mod iostats;
pub mod memory;
pub mod posting;
pub mod storage;

pub use builder::{IndexBuilder, IndexKind};
pub use compressed::{CompressedIndex, CompressedTermData};
pub use cursor::{DocCursor, RandomAccess, ScoreCursor};
pub use iostats::{IoModel, IoStats};
pub use memory::InMemoryIndex;
pub use posting::{BlockMeta, Posting, DEFAULT_BLOCK_SIZE};
pub use storage::reader::DiskIndex;

use sparta_corpus::types::{DocId, TermId};
use std::sync::Arc;

/// The ceiling on [`Index::num_docs`]: ids are 32 bits wide.
pub(crate) const MAX_DOCS: u64 = 1 << 32;

/// An in-memory constructor's count: the declared one (a floor, for
/// documents matching no term) capped at 2^32, raised to cover `ids`.
pub(crate) fn num_docs_covering(declared: u64, ids: impl Iterator<Item = DocId>) -> u64 {
    ids.map(|d| u64::from(d) + 1)
        .fold(declared.min(MAX_DOCS), u64::max)
}

/// In-memory size of an index's posting storage, split into the
/// posting planes themselves and the lookup metadata (block directory,
/// score codebooks).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexFootprint {
    /// Bytes holding postings (raw arrays or packed planes).
    pub posting_bytes: u64,
    /// Bytes of per-term/per-block metadata.
    pub metadata_bytes: u64,
}

impl IndexFootprint {
    /// Total bytes.
    pub fn total(&self) -> u64 {
        self.posting_bytes + self.metadata_bytes
    }
}

/// A queryable inverted index.
///
/// All methods take `&self` and implementations are `Sync`: one index
/// serves many concurrent queries, and one query opens independent
/// cursors from multiple worker threads.
pub trait Index: Send + Sync {
    /// Total number of documents N in the corpus, and an invariant:
    /// every doc id a cursor or probe yields is `< num_docs() ≤ 2^32`.
    /// In-memory constructors raise a declared count to cover their
    /// ids; the loaders reject a header that does not. Whatever is
    /// sized from it (pRA's bitset, the candidate table, pBMW's ranges,
    /// the oracle) relies on it.
    fn num_docs(&self) -> u64;

    /// Number of terms in the dictionary.
    fn num_terms(&self) -> u32;

    /// Length of `term`'s posting list (0 for unknown terms).
    fn doc_freq(&self, term: TermId) -> u64;

    /// Opens a cursor over `term`'s postings in decreasing-score order.
    /// The cursor shares the term's data by `Arc`, so it outlives the
    /// borrow and can move into `'static` jobs on pool threads.
    fn score_cursor(&self, term: TermId) -> Box<dyn ScoreCursor>;

    /// Opens a cursor over `term`'s postings in increasing-doc-id
    /// order, with block-max metadata; `'static` like
    /// [`score_cursor`](Self::score_cursor).
    fn doc_cursor(&self, term: TermId) -> Box<dyn DocCursor>;

    /// [`score_cursor`](Self::score_cursor) under its former name, kept
    /// only because the benchmark harness's `index.cursor_open` probe
    /// still calls it.
    fn score_cursor_arc(self: Arc<Self>, term: TermId) -> Box<dyn ScoreCursor> {
        self.score_cursor(term)
    }

    /// Random access: the secondary index mapping `(term, doc)` to the
    /// term score, if this index maintains one. RA-family algorithms
    /// require it; NRA-family ones must not use it.
    fn random_access(&self) -> Option<&dyn RandomAccess>;

    /// I/O statistics accumulated by this index's cursors, if it
    /// performs (simulated) I/O. In-memory indexes return `None`.
    fn io_stats(&self) -> Option<&IoStats>;

    /// In-memory posting-storage footprint, if this backend can report
    /// one (the in-memory backends do; the disk backend, whose postings
    /// stand for files on disk, does not).
    fn footprint(&self) -> Option<IndexFootprint> {
        None
    }
}
