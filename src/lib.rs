//! # Sparta — scalable parallel top-k retrieval
//!
//! A from-scratch Rust reproduction of *"Scalable Top-K Retrieval with
//! Sparta"* (Sheffi, Basin, Bortnikov, Carmel, Keidar — PPoPP 2020):
//! the Sparta algorithm, every substrate it depends on, and every
//! baseline it is evaluated against.
//!
//! ## Quick start
//!
//! ```
//! use sparta::prelude::*;
//! use std::sync::Arc;
//!
//! // 1. A corpus. Here: the paper's synthetic ClueWeb-like generator
//! //    at toy scale (use `Tokenizer` for real text instead).
//! let corpus = SynthCorpus::build(CorpusModel::tiny(42));
//!
//! // 2. An inverted index with tf-idf integer scoring.
//! let index: Arc<dyn Index> =
//!     Arc::new(IndexBuilder::new(TfIdfScorer).build_memory(&corpus));
//!
//! // 3. A query and a search. Sparta uses up to m worker threads.
//! let query = Query::new(vec![3, 17, 29]);
//! let cfg = SearchConfig::exact(10);
//! let exec = WorkerPool::new(3);
//! let top = Sparta.search(&index, &query, &cfg, &exec);
//!
//! assert_eq!(top.hits.len(), 10);
//! assert!(top.hits.windows(2).all(|w| w[0].score >= w[1].score));
//! ```
//!
//! ## Crate map
//!
//! | crate | contents |
//! |---|---|
//! | [`collections`] | doc table, doc bitset, bounded top-k, swap cell |
//! | [`corpus`] | synthetic corpus, tokenizer, scoring, query logs |
//! | [`index`] | posting lists, block-max metadata, memory/disk indexes |
//! | [`exec`] | job queue, shared worker pool, deterministic replay executor |
//! | [`core`] | Sparta + all baselines (pRA, pNRA, sNRA, pBMW, pJASS, …) |

pub use sparta_collections as collections;
pub use sparta_core as core;
pub use sparta_corpus as corpus;
pub use sparta_exec as exec;
pub use sparta_index as index;

/// One-stop imports for typical use.
pub mod prelude {
    pub use sparta_core::config::SearchConfig;
    pub use sparta_core::docorder::{MaxScore, PBmw, SeqBmw, Wand};
    pub use sparta_core::jass::Jass;
    pub use sparta_core::oracle::Oracle;
    pub use sparta_core::pjass::PJass;
    pub use sparta_core::pnra::PNra;
    pub use sparta_core::pra::PRa;
    pub use sparta_core::result::{SearchHit, TopKResult};
    pub use sparta_core::snra::SNra;
    pub use sparta_core::sparta::Sparta;
    pub use sparta_core::ta::{SeqNra, SeqRa};
    pub use sparta_core::Algorithm;
    pub use sparta_corpus::querylog::{QueryLog, VoiceLengthDistribution};
    pub use sparta_corpus::scoring::{Bm25Scorer, Scorer, TfIdfScorer};
    pub use sparta_corpus::synth::{CorpusModel, SynthCorpus};
    pub use sparta_corpus::tokenizer::Tokenizer;
    pub use sparta_corpus::types::{DocId, Query, TermId};
    pub use sparta_exec::{DeterministicExecutor, Executor, FaultPlan, WorkerPool};
    pub use sparta_index::{DiskIndex, InMemoryIndex, Index, IndexBuilder, IoModel};
}
