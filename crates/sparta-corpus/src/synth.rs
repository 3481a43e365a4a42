//! Synthetic ClueWeb-like corpus generation.
//!
//! The paper's ClueWebX10 recipe (§5.1): "Each document is a bag of
//! words drawn from the original ClueWeb dictionary … so that the
//! number of occurrences of a term tᵢ with an original global frequency
//! rate of F(tᵢ) is drawn from a geometric distribution with a stopping
//! probability of 1 − F(tᵢ). This process preserves the term frequency
//! distribution."
//!
//! We implement exactly this process, with F derived from a Zipf
//! rank-frequency law (the empirical shape of web vocabularies). The
//! model is document-independent per term, which permits a crucial
//! refactoring: instead of looping documents × vocabulary, we generate
//! **per-term posting lists directly** — for term t,
//! `df(t) ~ Binomial(N, F(t))` documents contain it (since
//! `P(occurrences ≥ 1) = F(t)` under the geometric model), and each
//! occurrence count is `1 + Geometric(F(t))`. This is distributionally
//! identical to the paper's per-document recipe and lets a 10×-scaled
//! corpus stream straight into the index writer without ever
//! materializing documents.
//!
//! Generation is two-phase, deterministic, and fans out per term: each
//! term's postings are produced by an RNG seeded from `(corpus seed,
//! term)`, independent of every other term. Phase A
//! ([`SynthCorpus::build`]) generates every term once to accumulate
//! document frequencies and document lengths (needed by the scorer);
//! phase B regenerates identical postings on demand, one term at a time
//! ([`SynthCorpus::term_postings`], [`SynthCorpus::for_each_term`]) or
//! across every core ([`SynthCorpus::map_terms`]). Both phases spread
//! the dictionary over workers with [`crate::per_term::map_terms`]; in
//! phase A each worker sums its own terms' lengths into a partial of
//! its own, and the partials are added after the join. The sums
//! saturate and are non-negative, so their order cannot change them:
//! the statistics are the serial loop's on any number of cores.

use crate::per_term;
use crate::sampling;
use crate::types::{CorpusStats, DocBag, DocId, TermId};
use crate::zipf::Zipf;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Parameters of the generative corpus model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorpusModel {
    /// Number of documents N.
    pub num_docs: u64,
    /// Vocabulary size V.
    pub vocab_size: u32,
    /// Zipf exponent of the rank-frequency law (web text ≈ 1.0).
    pub zipf_exponent: f64,
    /// Cap on any term's global frequency rate F(t) (stop-word ceiling).
    pub max_rate: f64,
    /// Target average document length in tokens; scales the F curve.
    pub target_avg_doc_len: f64,
    /// Master RNG seed; everything is a pure function of it.
    pub seed: u64,
}

impl CorpusModel {
    /// A ClueWeb09B-like model scaled to `num_docs` documents.
    ///
    /// The real dataset has 50M documents; this machine cannot hold
    /// that, so benchmarks use a scaled `num_docs` while preserving the
    /// vocabulary shape (Zipf s = 1.0) and average document length
    /// (≈ 380 tokens for ClueWeb09B after HTML stripping; we use a more
    /// conservative 250 to keep generation fast). The vocabulary is
    /// scaled with the corpus (Heaps' law, V ≈ 30·N^0.5) so that
    /// posting-list length *relative to corpus size* matches the real
    /// data's regime.
    pub fn clueweb_sim(num_docs: u64, seed: u64) -> Self {
        let vocab = ((num_docs as f64).sqrt() * 30.0).ceil() as u32;
        Self {
            num_docs,
            vocab_size: vocab.clamp(1_000, 2_000_000),
            zipf_exponent: 1.0,
            max_rate: 0.25,
            target_avg_doc_len: 250.0,
            seed,
        }
    }

    /// The paper's ClueWebX10 scale-up: same dictionary and term
    /// frequency distribution, 10× the documents (§5.1).
    pub fn x10(&self) -> Self {
        Self {
            num_docs: self.num_docs * 10,
            // Same dictionary: the scale-up draws from the *original*
            // ClueWeb dictionary, so vocab_size is unchanged.
            seed: self.seed.wrapping_add(0x9E37_79B9_7F4A_7C15),
            ..*self
        }
    }

    /// A tiny model for unit tests.
    pub fn tiny(seed: u64) -> Self {
        Self {
            num_docs: 2_000,
            vocab_size: 500,
            zipf_exponent: 1.0,
            max_rate: 0.3,
            target_avg_doc_len: 60.0,
            seed,
        }
    }
}

/// A generated synthetic corpus: term rates plus phase-A statistics.
///
/// Posting lists are *not* stored; [`SynthCorpus::term_postings`]
/// regenerates any term's postings deterministically, so arbitrarily
/// large corpora can be streamed into an index writer with O(N)
/// transient memory (the document-length array).
pub struct SynthCorpus {
    model: CorpusModel,
    /// Global frequency rate F(t) per term.
    rates: Vec<f64>,
    stats: CorpusStats,
}

impl SynthCorpus {
    /// Runs phase A: derives per-term rates from the Zipf law, scales
    /// them to the target average document length, and generates every
    /// term once, across all cores, to accumulate exact document
    /// lengths and document frequencies.
    pub fn build(model: CorpusModel) -> Self {
        assert!(model.num_docs > 0 && model.vocab_size > 0);
        assert!(model.num_docs <= u64::from(u32::MAX), "DocId is u32");
        let rates = Self::derive_rates(&model);
        let num_docs = model.num_docs as usize;
        let (doc_freq, partials) = per_term::map_terms(
            model.vocab_size,
            || (Vec::new(), vec![0u32; num_docs]),
            |(scratch, doc_len), t| {
                Self::gen_term_into(&model, &rates, t, scratch);
                for &(d, tf) in scratch.iter() {
                    doc_len[d as usize] = doc_len[d as usize].saturating_add(tf);
                }
                scratch.len() as u32
            },
        );
        let mut partials = partials.into_iter().map(|(_, doc_len)| doc_len);
        let mut doc_len = partials.next().expect("worker 0 ran");
        for partial in partials {
            for (sum, add) in doc_len.iter_mut().zip(partial) {
                *sum = sum.saturating_add(add);
            }
        }
        let mut stats = CorpusStats {
            doc_freq,
            doc_len,
            ..Default::default()
        };
        stats.finalize();
        Self {
            model,
            rates,
            stats,
        }
    }

    fn derive_rates(model: &CorpusModel) -> Vec<f64> {
        let zipf = Zipf::new(u64::from(model.vocab_size), model.zipf_exponent);
        // Unscaled weights w_r = r^-s; expected tokens per document for
        // rate F is F/(1-F) + F ≈ F·(2-F)/(1-F); we scale c so that
        // Σ E[tokens] = target_avg_doc_len, iterating because of the
        // max_rate cap and the nonlinearity.
        let weights: Vec<f64> = (1..=u64::from(model.vocab_size))
            .map(|r| zipf.weight(r))
            .collect();
        let expected_tokens = |c: f64| -> f64 {
            weights
                .iter()
                .map(|&w| {
                    let f = (c * w).min(model.max_rate);
                    // present with prob f; tf = 1 + Geometric(f) whose
                    // mean is f/(1-f); E[tokens] = f·(1 + f/(1-f)).
                    f * (1.0 + f / (1.0 - f))
                })
                .sum()
        };
        // Bisection on c.
        let (mut lo, mut hi) = (0.0f64, 1.0f64);
        while expected_tokens(hi) < model.target_avg_doc_len {
            hi *= 2.0;
            if hi > 1e12 {
                break;
            }
        }
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            if expected_tokens(mid) < model.target_avg_doc_len {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let c = 0.5 * (lo + hi);
        weights
            .iter()
            .map(|&w| (c * w).min(model.max_rate))
            .collect()
    }

    fn term_rng(model: &CorpusModel, term: TermId) -> StdRng {
        // SplitMix-style seed derivation keeps term streams independent.
        let mut z = model
            .seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(term) + 1));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        StdRng::seed_from_u64(z ^ (z >> 31))
    }

    fn gen_term_into(
        model: &CorpusModel,
        rates: &[f64],
        term: TermId,
        out: &mut Vec<(DocId, u32)>,
    ) {
        out.clear();
        let f = rates[term as usize];
        if f <= 0.0 {
            return;
        }
        let mut rng = Self::term_rng(model, term);
        let df = sampling::binomial(&mut rng, model.num_docs, f);
        let docs = sampling::distinct_sorted(&mut rng, model.num_docs, df);
        out.reserve(docs.len());
        for d in docs {
            let tf = 1 + sampling::geometric_extra(&mut rng, f);
            out.push((d as DocId, tf));
        }
    }

    /// The model this corpus was generated from.
    pub fn model(&self) -> &CorpusModel {
        &self.model
    }

    /// Global statistics (document lengths/frequencies, N, avgdl).
    pub fn stats(&self) -> &CorpusStats {
        &self.stats
    }

    /// Global frequency rate F(t) of a term.
    pub fn rate(&self, term: TermId) -> f64 {
        self.rates.get(term as usize).copied().unwrap_or(0.0)
    }

    /// Regenerates the raw (unscored) postings of `term`, sorted by
    /// document id: `(doc, tf)` pairs. Deterministic for a fixed model.
    pub fn term_postings(&self, term: TermId) -> Vec<(DocId, u32)> {
        let mut v = Vec::new();
        Self::gen_term_into(&self.model, &self.rates, term, &mut v);
        v
    }

    /// Streams every term's postings through `f` without retaining
    /// them, reusing one scratch buffer.
    pub fn for_each_term<F: FnMut(TermId, &[(DocId, u32)])>(&self, mut f: F) {
        let mut scratch = Vec::new();
        for t in 0..self.model.vocab_size {
            Self::gen_term_into(&self.model, &self.rates, t, &mut scratch);
            f(t, &scratch);
        }
    }

    /// Regenerates every term's postings across all cores and maps
    /// them through `f`, returning the results in term order. Each
    /// worker reuses one scratch buffer; `f` sees exactly what
    /// [`for_each_term`](Self::for_each_term) would pass it.
    pub fn map_terms<R, F>(&self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(TermId, &[(DocId, u32)]) -> R + Sync,
    {
        per_term::map_terms(self.model.vocab_size, Vec::new, |scratch, t| {
            Self::gen_term_into(&self.model, &self.rates, t, scratch);
            f(t, scratch)
        })
        .0
    }

    /// Materializes the corpus as per-document bags. Memory is
    /// O(total postings) — only call this on small corpora (tests,
    /// examples); large corpora should stream via
    /// [`for_each_term`](Self::for_each_term).
    pub fn doc_bags(&self) -> Vec<DocBag> {
        let mut bags: Vec<DocBag> = (0..self.model.num_docs)
            .map(|id| DocBag {
                id: id as DocId,
                terms: Vec::new(),
            })
            .collect();
        self.for_each_term(|t, postings| {
            for &(d, tf) in postings {
                bags[d as usize].terms.push((t, tf));
            }
        });
        bags
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_are_consistent_with_postings() {
        let c = SynthCorpus::build(CorpusModel::tiny(42));
        let stats = c.stats();
        assert_eq!(stats.num_docs, 2_000);
        // df in stats must equal regenerated posting list length.
        for t in [0u32, 1, 10, 100, 499] {
            assert_eq!(stats.df(t) as usize, c.term_postings(t).len(), "term {t}");
        }
        // Doc lengths must equal sum of tfs over regenerated postings.
        let mut dl = vec![0u64; 2_000];
        c.for_each_term(|_, ps| {
            for &(d, tf) in ps {
                dl[d as usize] += u64::from(tf);
            }
        });
        for (d, &want) in dl.iter().enumerate() {
            assert_eq!(u64::from(stats.dl(d as DocId)), want, "doc {d}");
        }
    }

    #[test]
    fn regeneration_is_deterministic() {
        let c = SynthCorpus::build(CorpusModel::tiny(7));
        assert_eq!(c.term_postings(3), c.term_postings(3));
        let c2 = SynthCorpus::build(CorpusModel::tiny(7));
        assert_eq!(c.term_postings(3), c2.term_postings(3));
        let c3 = SynthCorpus::build(CorpusModel::tiny(8));
        // Different seed ⇒ (almost surely) different postings for a
        // reasonably frequent term.
        assert_ne!(c.term_postings(0), c3.term_postings(0));
    }

    #[test]
    fn postings_sorted_distinct_docs() {
        let c = SynthCorpus::build(CorpusModel::tiny(11));
        c.for_each_term(|t, ps| {
            assert!(
                ps.windows(2).all(|w| w[0].0 < w[1].0),
                "term {t} not sorted/distinct"
            );
            assert!(ps.iter().all(|&(d, tf)| u64::from(d) < 2_000 && tf >= 1));
        });
    }

    #[test]
    fn avg_doc_len_near_target() {
        let c = SynthCorpus::build(CorpusModel::tiny(1));
        let got = c.stats().avg_doc_len;
        let want = c.model().target_avg_doc_len;
        assert!(
            (got - want).abs() / want < 0.15,
            "avg doc len {got} vs target {want}"
        );
    }

    #[test]
    fn rates_follow_zipf_shape() {
        let c = SynthCorpus::build(CorpusModel::tiny(1));
        // Rates decrease with rank (after the cap region).
        let r: Vec<f64> = (0..500u32).map(|t| c.rate(t)).collect();
        assert!(r.windows(2).all(|w| w[0] >= w[1]), "rates must be monotone");
        assert!(r[0] <= c.model().max_rate + 1e-12);
        // Head terms are much more frequent than tail terms.
        assert!(r[0] > 10.0 * r[499]);
    }

    #[test]
    fn x10_preserves_dictionary_and_rates() {
        let base = CorpusModel::tiny(5);
        let big = base.x10();
        assert_eq!(big.num_docs, base.num_docs * 10);
        assert_eq!(big.vocab_size, base.vocab_size);
        let c_small = SynthCorpus::build(base);
        let c_big = SynthCorpus::build(big);
        // Same frequency model ⇒ same rates; df scales ~10×.
        for t in [0u32, 5, 50] {
            assert!((c_small.rate(t) - c_big.rate(t)).abs() < 1e-12);
            let small_df = c_small.stats().df(t).max(1) as f64;
            let big_df = c_big.stats().df(t) as f64;
            let ratio = big_df / small_df;
            assert!(
                (5.0..20.0).contains(&ratio),
                "term {t}: df ratio {ratio} not ≈10"
            );
        }
    }

    #[test]
    fn doc_bags_round_trip() {
        let c = SynthCorpus::build(CorpusModel::tiny(3));
        let bags = c.doc_bags();
        assert_eq!(bags.len(), 2_000);
        // Token counts per doc must match stats.
        for b in bags.iter().take(50) {
            assert_eq!(b.len_tokens(), u64::from(c.stats().dl(b.id)));
        }
    }
}
