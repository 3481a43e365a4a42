//! Corpus modelling, scoring and query generation for Sparta.
//!
//! The paper evaluates on TREC ClueWeb09B (50M web documents), a 10×
//! synthetic scale-up of it ("ClueWebX10"), and queries sampled from
//! the AOL search log (§5.1). None of those assets ships with this
//! repository, so this crate builds the closest synthetic equivalents:
//!
//! * [`synth`] — a generative corpus model with a Zipf-distributed
//!   vocabulary. It implements the paper's own scale-up recipe ("each
//!   document is a bag of words … the number of occurrences of a term
//!   tᵢ with an original global frequency rate of F(tᵢ) is drawn from
//!   a geometric distribution with a stopping probability of 1−F(tᵢ)")
//!   and can generate corpora of any size with the same term-frequency
//!   shape.
//! * [`scoring`] — the tf-idf document scoring function with document
//!   length normalization [Baeza-Yates & Ribeiro-Neto 1999], with term
//!   scores scaled to integers by 10⁶ as in §5.2 ("Using integer
//!   arithmetic instead of floating-point significantly speeds up
//!   document evaluation").
//! * [`querylog`] — an AOL-like query sampler (100 queries per length
//!   1–12) and the voice-query length distribution of Guy [SIGIR'16]
//!   (mean 4.2, σ ≈ 2.96, >5% of queries with ≥10 terms) used for the
//!   Table 4 production mix.
//! * [`tokenizer`] — a minimal text analysis chain (lowercasing,
//!   alphanumeric tokenization, stop-word removal) standing in for the
//!   Lucene preprocessing the paper uses, so real text can be indexed
//!   in examples and tests.
//! * [`per_term`] — the scoped per-term map that spreads corpus
//!   synthesis and the index builds over every core.

#![warn(missing_docs)]

pub mod per_term;
pub mod querylog;
pub mod sampling;
pub mod scoring;
pub mod synth;
pub mod tokenizer;
pub mod types;
pub mod zipf;

pub use querylog::{QueryLog, VoiceLengthDistribution};
pub use scoring::{Scorer, TfIdfScorer, SCORE_SCALE};
pub use synth::{CorpusModel, SynthCorpus};
pub use tokenizer::Tokenizer;
pub use types::{CorpusStats, DocBag, DocId, Query, TermId};
pub use zipf::Zipf;
