//! The four workloads: what each one builds, which entry point it
//! drives, the query list it derives from `--seed`, and the ground
//! truth every timed answer is checked against.

use sparta_core::oracle::Oracle;
use sparta_core::{SearchConfig, SearchHit};
use sparta_corpus::{CorpusModel, CorpusStats, DocId, Query, QueryLog, SynthCorpus, TfIdfScorer};
use sparta_index::{CompressedIndex, Index, IndexBuilder, IndexKind};
use sparta_obs::ServerMetrics;
use sparta_server::{serve, AdmissionConfig, BatchScheduler, ServerHandle};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

/// Result-set size of every search; all searches are exact, so every
/// answer can be checked and recall does not depend on timing.
pub const K: usize = 200;

/// Documents of the base corpus ("CW"); its dictionary is shared by
/// the scaled-up one.
const BASE_DOCS: u64 = 20_000;

/// Corpus seed: the library default. `--seed` owns the query list only.
const CORPUS_SEED: u64 = 42;

/// One workload's fixed shape. Names are final: later issues cite them.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    pub name: &'static str,
    /// Corpus size; above [`BASE_DOCS`] it is the paper's scale-up
    /// recipe (same dictionary and rates, more documents).
    pub docs: u64,
    pub kind: IndexKind,
    /// `Algorithm::name` of the entry point.
    pub algorithm: &'static str,
    /// Query lengths, mixed round-robin so every prefix of the list
    /// has the same length mix.
    pub lengths: &'static [usize],
    /// Distinct queries generated per length.
    pub per_length: usize,
    /// Driven through `sparta_server::serve` over loopback instead of
    /// in-process.
    pub served: bool,
    /// Set-ups per run; `setup_s` is their median. The large corpora
    /// take seconds to build, so they are built once.
    pub setups: usize,
}

/// The benchmark's workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "long-sparta",
        docs: 100_000,
        kind: IndexKind::Raw,
        algorithm: "sparta",
        lengths: &[8, 10, 12],
        per_length: 200,
        served: false,
        setups: 1,
    },
    WorkloadDef {
        name: "long-sparta-compressed",
        docs: 100_000,
        kind: IndexKind::Compressed,
        algorithm: "sparta",
        lengths: &[8, 10, 12],
        per_length: 200,
        served: false,
        setups: 1,
    },
    WorkloadDef {
        name: "ra-compressed",
        docs: 100_000,
        kind: IndexKind::Compressed,
        algorithm: "pra",
        lengths: &[4, 6, 8],
        per_length: 200,
        served: false,
        setups: 1,
    },
    WorkloadDef {
        name: "served-short",
        docs: BASE_DOCS,
        kind: IndexKind::Raw,
        algorithm: "sparta",
        lengths: &[1, 2, 3, 4],
        per_length: 500,
        served: true,
        setups: 5,
    },
];

pub fn workload_by_name(name: &str) -> Option<WorkloadDef> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl WorkloadDef {
    /// The `--quick` copy: same shape at a twentieth of the corpus and
    /// a few dozen queries. It exercises every code path in seconds
    /// (smoke runs, unit tests); its numbers mean nothing.
    pub fn quick(&self) -> WorkloadDef {
        WorkloadDef {
            docs: self.docs / 20,
            per_length: 40 / self.lengths.len(),
            setups: 1,
            ..*self
        }
    }
}

/// Seconds each set-up stage took; their sum is `setup_s`.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub synth_s: f64,
    pub querylog_s: f64,
    pub build_s: f64,
    pub compress_s: f64,
    pub bind_s: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.synth_s + self.querylog_s + self.build_s + self.compress_s + self.bind_s
    }
}

/// Everything a user has before the first query.
pub struct SetUp {
    pub index: Arc<dyn Index>,
    pub queries: Vec<Query>,
    /// Σ document frequency over the dictionary.
    pub total_postings: u64,
    pub server: Option<ServerHandle>,
    pub times: SetupTimes,
}

fn timed<R>(slot: &mut f64, f: impl FnOnce() -> R) -> R {
    let t0 = Instant::now();
    let r = f();
    *slot = t0.elapsed().as_secs_f64();
    r
}

/// The seed-derived query list: `per_length` queries of each length,
/// interleaved by length. The program under test only ever sees these.
pub fn query_list(stats: &CorpusStats, def: &WorkloadDef, seed: u64) -> Vec<Query> {
    let max_len = *def.lengths.iter().max().expect("a workload has lengths");
    let log = QueryLog::generate(stats, def.per_length, max_len, seed);
    (0..def.per_length)
        .flat_map(|i| def.lengths.iter().map(move |&m| (m, i)))
        .map(|(m, i)| log.of_length(m)[i].clone())
        .collect()
}

/// Builds corpus, query list and serving index, and for a served
/// workload binds the server: what a user pays before the first query.
pub fn set_up(def: &WorkloadDef, seed: u64, threads: usize) -> SetUp {
    let mut times = SetupTimes::default();
    let corpus = timed(&mut times.synth_s, || {
        let base = CorpusModel::clueweb_sim(BASE_DOCS, CORPUS_SEED);
        let model = if def.docs == base.num_docs {
            base
        } else {
            CorpusModel {
                num_docs: def.docs,
                ..base.x10()
            }
        };
        SynthCorpus::build(model)
    });
    let queries = timed(&mut times.querylog_s, || {
        query_list(corpus.stats(), def, seed)
    });
    let raw = timed(&mut times.build_s, || {
        IndexBuilder::new(TfIdfScorer).build_memory(&corpus)
    });
    let index: Arc<dyn Index> = match def.kind {
        IndexKind::Raw => Arc::new(raw),
        IndexKind::Compressed => timed(&mut times.compress_s, || {
            Arc::new(CompressedIndex::from_index(&raw))
        }),
    };
    let server = def.served.then(|| {
        timed(&mut times.bind_s, || {
            let scheduler = BatchScheduler::new(
                Arc::clone(&index),
                SearchConfig::exact(K),
                threads,
                AdmissionConfig::new(threads, 64),
                ServerMetrics::new(),
            );
            serve("127.0.0.1:0", scheduler).expect("bind a loopback port")
        })
    });
    let total_postings = (0..index.num_terms()).map(|t| index.doc_freq(t)).sum();
    SetUp {
        index,
        queries,
        total_postings,
        server,
        times,
    }
}

/// Ground truth for one query, kept small: the oracle's dense score
/// table (8 bytes per document per query) would otherwise dominate
/// `peak_rss_mb` and hide the product's own memory.
pub struct Truth {
    /// Size of the exact top-k (below k when fewer documents match).
    len: usize,
    /// True score of every document that may legitimately appear in an
    /// exact answer: those scoring at least the k-th best score. Ties
    /// at the boundary make this a superset of the oracle's own list.
    good: HashMap<DocId, u64>,
}

/// How one answer fared against its [`Truth`].
pub struct Judged {
    /// Tie-aware recall, as `Oracle::recall` defines it.
    pub recall: f64,
    /// All exact-run invariants hold.
    pub ok: bool,
}

impl Truth {
    pub fn compute(index: &dyn Index, query: &Query) -> Truth {
        let oracle = Oracle::compute(index, query, K);
        let kth = oracle.topk().last().map_or(0, |h| h.score);
        let good = (0..index.num_docs() as DocId)
            .map(|d| (d, oracle.score(d)))
            .filter(|&(_, s)| s > 0 && s >= kth)
            .collect();
        Truth {
            len: oracle.topk().len(),
            good,
        }
    }

    /// The exact-run invariants of `sparta-testkit`, restated: recall
    /// 1.0, as many hits as the oracle has, hits rank-ordered, and no
    /// reported score above the true one — equal to it for a
    /// full-scoring algorithm (`exact_scores`); the NRA family reports
    /// lower bounds. Document ids may differ from the oracle's at
    /// k-boundary ties.
    pub fn judge(&self, hits: &[SearchHit], exact_scores: bool) -> Judged {
        let mut seen = HashSet::with_capacity(hits.len());
        let distinct_good = hits
            .iter()
            .filter(|h| self.good.contains_key(&h.doc) && seen.insert(h.doc))
            .count();
        let recall = if self.len == 0 {
            1.0
        } else {
            (distinct_good as f64 / self.len as f64).min(1.0)
        };
        let ordered = hits.windows(2).all(|w| w[0].score >= w[1].score);
        let scores_ok = hits.iter().all(|h| match self.good.get(&h.doc) {
            Some(&truth) if exact_scores => h.score == truth,
            Some(&truth) => h.score <= truth,
            None => false,
        });
        Judged {
            recall,
            ok: recall == 1.0 && hits.len() == self.len && ordered && scores_ok,
        }
    }
}

/// Whether `algorithm` reports full document scores (equality with the
/// oracle is then required) rather than NRA lower bounds.
pub fn reports_exact_scores(algorithm: &str) -> bool {
    algorithm == "pra"
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_stats() -> CorpusStats {
        SynthCorpus::build(CorpusModel::tiny(7)).stats().clone()
    }

    #[test]
    fn seed_owns_the_query_list() {
        let stats = tiny_stats();
        let def = WORKLOADS[0].quick();
        let a = format!("{:?}", query_list(&stats, &def, 20200222));
        let b = format!("{:?}", query_list(&stats, &def, 20200222));
        let c = format!("{:?}", query_list(&stats, &def, 20200223));
        assert_eq!(a.as_bytes(), b.as_bytes(), "same seed, same bytes");
        assert_ne!(a, c, "another seed, another list");
    }

    #[test]
    fn query_list_interleaves_lengths() {
        let stats = tiny_stats();
        let def = WORKLOADS[0].quick();
        let list = query_list(&stats, &def, 1);
        assert_eq!(list.len(), def.per_length * def.lengths.len());
        for (i, q) in list.iter().enumerate() {
            assert_eq!(q.len(), def.lengths[i % def.lengths.len()]);
        }
    }

    #[test]
    fn truth_accepts_the_oracle_and_rejects_wrong_answers() {
        let corpus = SynthCorpus::build(CorpusModel::tiny(7));
        let index = IndexBuilder::new(TfIdfScorer).build_memory(&corpus);
        let q = QueryLog::generate(corpus.stats(), 1, 4, 3).of_length(4)[0].clone();
        let oracle = Oracle::compute(&index, &q, K);
        let truth = Truth::compute(&index, &q);
        let exact = oracle.topk().to_vec();
        assert!(truth.judge(&exact, true).ok);
        assert_eq!(truth.judge(&exact, true).recall, 1.0);

        // Lower bounds pass for the NRA family only.
        let mut lower = exact.clone();
        lower.last_mut().unwrap().score -= 1;
        assert!(truth.judge(&lower, false).ok);
        assert!(!truth.judge(&lower, true).ok);

        let mut inflated = exact.clone();
        inflated[0].score += 1;
        assert!(!truth.judge(&inflated, false).ok, "score above the truth");

        let mut reversed = exact.clone();
        reversed.reverse();
        assert!(!truth.judge(&reversed, true).ok, "not rank-ordered");

        let short = &exact[..exact.len() - 1];
        let v = truth.judge(short, true);
        assert!(!v.ok && v.recall < 1.0, "a missing hit");

        let mut dup = exact.clone();
        dup[1] = dup[0];
        assert!(!truth.judge(&dup, true).ok, "a duplicate is counted once");
    }
}
