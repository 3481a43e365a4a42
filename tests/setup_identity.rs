//! Index set-up fans out per term over every core; its output must be
//! the serial loop's, byte for byte. Each parallel path is compared
//! with a serial reference assembled one term at a time from
//! `term_postings` + `score_term` + `with_block_size`: corpus
//! statistics, every raw term, and every compressed term, packed words
//! included. `score_term` itself is checked against the scorer's
//! per-posting formula.

use sparta::corpus::types::CorpusStats;
use sparta::index::{CompressedIndex, InMemoryIndex, Index, IndexBuilder, Posting};
use sparta::prelude::*;

/// The corpora compared: the unit-test model and a small ClueWeb-like
/// one, whose head terms take the dense sampling branch.
fn corpora() -> Vec<(&'static str, CorpusModel)> {
    vec![
        ("tiny", CorpusModel::tiny(42)),
        ("clueweb_sim(6000)", CorpusModel::clueweb_sim(6_000, 42)),
    ]
}

/// Builders at the default block size and at an odd one.
fn builders() -> Vec<IndexBuilder<TfIdfScorer>> {
    vec![
        IndexBuilder::new(TfIdfScorer),
        IndexBuilder::new(TfIdfScorer).with_block_size(37),
    ]
}

/// Every term's scored postings, generated one term at a time.
fn serial_terms(corpus: &SynthCorpus, builder: &IndexBuilder<TfIdfScorer>) -> Vec<Vec<Posting>> {
    let stats = corpus.stats();
    let norms = builder.doc_factors(stats);
    (0..stats.vocab_size() as TermId)
        .map(|t| builder.score_term(t, &corpus.term_postings(t), stats, &norms))
        .collect()
}

/// `score_term` computes the idf once per term and the length norm
/// once per document; every posting must still get the score of the
/// scorer's per-posting formula, bit for bit.
#[test]
fn term_scoring_matches_the_per_posting_formula() {
    for (name, model) in corpora() {
        let corpus = SynthCorpus::build(model);
        let stats = corpus.stats();
        let builder = IndexBuilder::new(TfIdfScorer);
        let norms = builder.doc_factors(stats);
        for t in 0..stats.vocab_size() as TermId {
            let raw = corpus.term_postings(t);
            let got = builder.score_term(t, &raw, stats, &norms);
            assert_eq!(got.len(), raw.len(), "{name}: term {t}");
            for (p, &(doc, tf)) in got.iter().zip(&raw) {
                let want = TfIdfScorer.term_score(tf, doc, t, stats);
                assert_eq!(p.score, want, "{name}: term {t} doc {doc}");
            }
        }
    }
}

#[test]
fn corpus_statistics_match_a_serial_pass() {
    for (name, model) in corpora() {
        let corpus = SynthCorpus::build(model);
        let mut want = CorpusStats {
            doc_freq: vec![0; model.vocab_size as usize],
            doc_len: vec![0; model.num_docs as usize],
            ..Default::default()
        };
        for t in 0..model.vocab_size {
            let raw = corpus.term_postings(t);
            want.doc_freq[t as usize] = raw.len() as u32;
            for (d, tf) in raw {
                want.doc_len[d as usize] = want.doc_len[d as usize].saturating_add(tf);
            }
        }
        want.finalize();
        let got = corpus.stats();
        assert_eq!(got.doc_freq, want.doc_freq, "{name}: doc_freq");
        assert_eq!(got.doc_len, want.doc_len, "{name}: doc_len");
        assert_eq!(got.num_docs, want.num_docs, "{name}: num_docs");
        assert_eq!(
            got.avg_doc_len.to_bits(),
            want.avg_doc_len.to_bits(),
            "{name}: avg_doc_len"
        );
    }
}

#[test]
fn raw_build_matches_a_serial_build() {
    for (name, model) in corpora() {
        let corpus = SynthCorpus::build(model);
        for builder in builders() {
            let got = builder.build_memory(&corpus);
            let want = InMemoryIndex::with_block_size(
                serial_terms(&corpus, &builder),
                corpus.stats().num_docs,
                got.block_size(),
            );
            assert_eq!(got.num_docs(), want.num_docs(), "{name}");
            assert_eq!(got.num_terms(), want.num_terms(), "{name}");
            for t in 0..want.num_terms() {
                assert!(
                    got.term_data(t) == want.term_data(t),
                    "{name}, block {}: term {t} differs",
                    got.block_size()
                );
            }
        }
    }
}

#[test]
fn compressed_builds_match_a_serial_build() {
    for (name, model) in corpora() {
        let corpus = SynthCorpus::build(model);
        for builder in builders() {
            let raw = builder.build_memory(&corpus);
            let want = CompressedIndex::with_block_size(
                serial_terms(&corpus, &builder),
                corpus.stats().num_docs,
                raw.block_size(),
            );
            let built = builder.build_compressed(&corpus);
            let reencoded = CompressedIndex::from_index(&raw);
            for (path, got) in [("build_compressed", &built), ("from_index", &reencoded)] {
                assert_eq!(got.num_docs(), want.num_docs(), "{name}: {path}");
                assert_eq!(got.num_terms(), want.num_terms(), "{name}: {path}");
                assert_eq!(got.footprint(), want.footprint(), "{name}: {path}");
                for t in 0..want.num_terms() {
                    assert!(
                        got.term_data(t) == want.term_data(t),
                        "{name}, block {}: {path} term {t} differs",
                        want.block_size()
                    );
                }
            }
        }
    }
}
