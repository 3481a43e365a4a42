//! Index construction from corpora.
//!
//! This is the preprocessing stage the paper delegates to Lucene
//! (§5.1): converting a corpus into scored posting lists. Raw `(doc,
//! tf)` postings are turned into `(doc, integer term score)` postings
//! by a [`Scorer`], then assembled into an [`InMemoryIndex`] or a
//! [`CompressedIndex`], or streamed to an on-disk index.
//!
//! The in-memory builds fan out per term ([`SynthCorpus::map_terms`]):
//! each worker regenerates, scores and builds its own terms'
//! [`TermData`] or [`CompressedTermData`], and the index is assembled
//! from them in term order — the serial build's bytes on any number of
//! cores. [`IndexBuilder::write_disk`] stays serial: it
//! streams one list at a time to keep its memory at one posting list.

use crate::compressed::{CompressedIndex, CompressedTermData};
use crate::memory::{InMemoryIndex, TermData};
use crate::posting::{Posting, DEFAULT_BLOCK_SIZE};
use crate::storage::writer::IndexWriter;
use sparta_corpus::scoring::Scorer;
use sparta_corpus::synth::SynthCorpus;
use sparta_corpus::types::{CorpusStats, DocBag, DocId, TermId};
use std::io;
use std::path::Path;

/// Which in-memory posting representation to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IndexKind {
    /// Uncompressed posting arrays (the paper's §5.1 setup).
    #[default]
    Raw,
    /// Block-compressed postings ([`crate::compressed`]).
    Compressed,
}

impl IndexKind {
    /// Parses a backend name (`"raw"` / `"compressed"`), as accepted
    /// by bench/CLI flags.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "raw" => Some(Self::Raw),
            "compressed" => Some(Self::Compressed),
            _ => None,
        }
    }

    /// The canonical flag/report name.
    pub fn name(self) -> &'static str {
        match self {
            Self::Raw => "raw",
            Self::Compressed => "compressed",
        }
    }
}

impl std::fmt::Display for IndexKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Builds indexes from corpora using a pluggable scoring function.
pub struct IndexBuilder<S> {
    scorer: S,
    block_size: usize,
}

impl<S: Scorer> IndexBuilder<S> {
    /// Creates a builder with the paper's block size (64).
    pub fn new(scorer: S) -> Self {
        Self {
            scorer,
            block_size: DEFAULT_BLOCK_SIZE,
        }
    }

    /// Overrides the block-max block size.
    pub fn with_block_size(mut self, block_size: usize) -> Self {
        assert!(block_size > 0);
        self.block_size = block_size;
        self
    }

    /// Every known document's scorer factor, in doc-id order: computed
    /// once per build and read by [`score_term`](Self::score_term).
    pub fn doc_factors(&self, stats: &CorpusStats) -> Vec<f64> {
        (0..stats.doc_len.len() as DocId)
            .map(|d| self.scorer.doc_factor(d, stats))
            .collect()
    }

    /// Scores one term's raw postings into index postings: the term's
    /// factor once, then one combine per posting with its document's
    /// factor from `doc_factors` (computed on the spot for a document
    /// past the table). Equal to the scorer's per-posting
    /// `term_score`.
    pub fn score_term(
        &self,
        term: TermId,
        raw: &[(u32, u32)],
        stats: &CorpusStats,
        doc_factors: &[f64],
    ) -> Vec<Posting> {
        let term_factor = self.scorer.term_factor(term, stats);
        raw.iter()
            .map(|&(doc, tf)| {
                let doc_factor = doc_factors
                    .get(doc as usize)
                    .copied()
                    .unwrap_or_else(|| self.scorer.doc_factor(doc, stats));
                Posting::new(doc, self.scorer.combine(tf, term_factor, doc_factor))
            })
            .collect()
    }

    /// Builds a RAM-resident index from a synthetic corpus, one term
    /// per worker at a time across all cores.
    pub fn build_memory(&self, corpus: &SynthCorpus) -> InMemoryIndex {
        let stats = corpus.stats();
        let norms = self.doc_factors(stats);
        let terms = corpus.map_terms(|t, raw| {
            TermData::from_postings(self.score_term(t, raw, stats, &norms), self.block_size)
        });
        InMemoryIndex::from_term_data(terms, stats.num_docs, self.block_size)
    }

    /// Builds a RAM-resident compressed index from a synthetic corpus,
    /// one term per worker at a time across all cores.
    pub fn build_compressed(&self, corpus: &SynthCorpus) -> CompressedIndex {
        let stats = corpus.stats();
        let norms = self.doc_factors(stats);
        let terms = corpus.map_terms(|t, raw| {
            CompressedTermData::from_postings(
                self.score_term(t, raw, stats, &norms),
                self.block_size,
            )
        });
        CompressedIndex::from_term_data(terms, stats.num_docs, self.block_size)
    }

    /// Builds the backend selected by `kind`, boxed behind the
    /// [`Index`](crate::Index) trait.
    pub fn build_kind(&self, corpus: &SynthCorpus, kind: IndexKind) -> Box<dyn crate::Index> {
        match kind {
            IndexKind::Raw => Box::new(self.build_memory(corpus)),
            IndexKind::Compressed => Box::new(self.build_compressed(corpus)),
        }
    }

    /// Builds a RAM-resident index from tokenized documents (the
    /// "real text" path used by examples; see
    /// [`sparta_corpus::tokenizer::Tokenizer`]).
    pub fn build_memory_from_bags(&self, bags: &[DocBag], stats: &CorpusStats) -> InMemoryIndex {
        let num_terms = stats.vocab_size();
        let mut raw: Vec<Vec<(u32, u32)>> = vec![Vec::new(); num_terms];
        for bag in bags {
            for &(t, tf) in &bag.terms {
                raw[t as usize].push((bag.id, tf));
            }
        }
        let norms = self.doc_factors(stats);
        let terms = raw
            .iter()
            .enumerate()
            .map(|(t, r)| self.score_term(t as TermId, r, stats, &norms))
            .collect();
        InMemoryIndex::with_block_size(terms, stats.num_docs, self.block_size)
    }

    /// Streams a synthetic corpus to an on-disk index at `dir`,
    /// holding only one posting list in memory at a time.
    pub fn write_disk(&self, corpus: &SynthCorpus, dir: impl AsRef<Path>) -> io::Result<()> {
        let stats = corpus.stats();
        let mut writer = IndexWriter::create(
            dir,
            stats.num_docs,
            stats.vocab_size() as u32,
            self.block_size,
        )?;
        let norms = self.doc_factors(stats);
        let mut failed = None;
        corpus.for_each_term(|t, raw| {
            if failed.is_none() {
                if let Err(e) = writer.add_term(self.score_term(t, raw, stats, &norms)) {
                    failed = Some(e);
                }
            }
        });
        if let Some(e) = failed {
            return Err(e);
        }
        writer.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iostats::IoModel;
    use crate::storage::reader::DiskIndex;
    use crate::Index;
    use sparta_corpus::scoring::TfIdfScorer;
    use sparta_corpus::synth::CorpusModel;
    use sparta_corpus::tokenizer::Tokenizer;

    #[test]
    fn memory_index_matches_corpus_shape() {
        let corpus = SynthCorpus::build(CorpusModel::tiny(21));
        let ix = IndexBuilder::new(TfIdfScorer).build_memory(&corpus);
        assert_eq!(ix.num_docs(), corpus.stats().num_docs);
        assert_eq!(ix.num_terms() as usize, corpus.stats().vocab_size());
        for t in [0u32, 10, 100] {
            assert_eq!(ix.doc_freq(t), u64::from(corpus.stats().df(t)));
        }
    }

    #[test]
    fn disk_and_memory_builds_agree() {
        let corpus = SynthCorpus::build(CorpusModel::tiny(22));
        let b = IndexBuilder::new(TfIdfScorer);
        let mem = b.build_memory(&corpus);
        let dir = std::env::temp_dir().join(format!("sparta-builder-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        b.write_disk(&corpus, &dir).unwrap();
        let disk = DiskIndex::open(&dir, IoModel::free()).unwrap();
        assert_eq!(disk.num_terms(), mem.num_terms());
        for t in (0..mem.num_terms()).step_by(37) {
            let mut a = mem.score_cursor(t);
            let mut d = disk.score_cursor(t);
            loop {
                let (x, y) = (a.next(), d.next());
                assert_eq!(x, y, "term {t}");
                if x.is_none() {
                    break;
                }
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bags_path_builds_consistent_index() {
        let mut tok = Tokenizer::new();
        let texts = [
            "parallel threshold algorithm for retrieval",
            "retrieval retrieval retrieval",
            "threshold tuning in parallel systems",
        ];
        let bags: Vec<DocBag> = texts.iter().map(|t| tok.add_document(t)).collect();
        let stats = tok.stats();
        let ix = IndexBuilder::new(TfIdfScorer).build_memory_from_bags(&bags, &stats);
        let retrieval = tok.term_id("retrieval").unwrap();
        assert_eq!(ix.doc_freq(retrieval), 2);
        // Doc 1 has tf=3 for "retrieval" and a short length: it should
        // outscore doc 0's single occurrence.
        let ra = ix.random_access().unwrap();
        assert!(ra.term_score(retrieval, 1) > ra.term_score(retrieval, 0));
    }

    #[test]
    fn scores_are_applied_per_posting() {
        let corpus = SynthCorpus::build(CorpusModel::tiny(23));
        let b = IndexBuilder::new(TfIdfScorer);
        let stats = corpus.stats();
        let raw = corpus.term_postings(5);
        let scored = b.score_term(5, &raw, stats, &b.doc_factors(stats));
        assert_eq!(scored.len(), raw.len());
        for (p, &(d, tf)) in scored.iter().zip(raw.iter()) {
            assert_eq!(p.doc, d);
            assert_eq!(p.score, TfIdfScorer.term_score(tf, d, 5, stats));
        }
    }
}
