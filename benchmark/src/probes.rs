//! Per-layer micro-probes: each layer measured from outside, by timing
//! calls into its public functions over the workload's own index and
//! query terms.
//!
//! Probes run single-threaded, interleaved round-robin for a number of
//! repetitions (so drift hits them all alike), and report the median
//! and MAD of the per-repetition cost per operation. Every repetition
//! is a span in the traced run.

use crate::phases::OverWire;
use crate::stats;
use crate::trace::Tracer;
use sparta_collections::{BoundedTopK, StripedMap};
use sparta_corpus::{DocId, Query, TermId};
use sparta_exec::{CyclicJob, DedicatedExecutor, Executor, Job, JobQueue, WorkerPool};
use sparta_index::{Index, Posting};
use sparta_obs::ServerMetrics;
use sparta_server::{
    AdmissionConfig, AdmissionController, Frame, QueryRequest, TraceSummary, TryAdmit, WireHit,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Segment size of the score-order scan: `SearchConfig::exact`'s.
const SEG_SIZE: usize = 1024;
/// Stride, in documents, of the `DocCursor::seek` probe.
const SEEK_STRIDE: DocId = 97;
/// `(term, doc)` lookups per random-access repetition.
const RA_PROBES: usize = 10_000;
/// Documents the random-access probes take from the top of each list.
const RA_DOCS_PER_LIST: usize = 256;
/// Distinct document ids of the striped-map probe.
const UPSERT_KEYS: u32 = 64 * 1024;
/// Postings the scan probes may cover per repetition; bounds their
/// cost on the large corpora.
const SCAN_POSTINGS_CAP: u64 = 1_500_000;

/// The generator behind every shuffled or random probe input.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, (self.next() % (i as u64 + 1)) as usize);
        }
    }
}

/// One probe: a closure that performs a batch of operations and says
/// how many, reported as `metric` in nanoseconds (`scale` 1) or
/// microseconds (`scale` 1000) per operation.
pub struct Probe<'a> {
    metric: &'static str,
    span: &'static str,
    scale: f64,
    batch: Box<dyn FnMut() -> u64 + 'a>,
}

impl<'a> Probe<'a> {
    fn ns(metric: &'static str, span: &'static str, batch: impl FnMut() -> u64 + 'a) -> Self {
        Self {
            metric,
            span,
            scale: 1.0,
            batch: Box::new(batch),
        }
    }

    fn us(metric: &'static str, span: &'static str, batch: impl FnMut() -> u64 + 'a) -> Self {
        Self {
            scale: 1e3,
            ..Self::ns(metric, span, batch)
        }
    }
}

/// Median and spread of one probe's repetitions.
#[derive(Debug, Clone, Copy)]
pub struct ProbeStat {
    pub median: f64,
    pub mad: f64,
    pub reps: usize,
}

/// Runs the probes round-robin, `reps` times each.
pub fn run_interleaved(
    probes: &mut [Probe<'_>],
    reps: usize,
    tracer: &mut Tracer,
) -> BTreeMap<&'static str, ProbeStat> {
    let mut values: Vec<Vec<f64>> = vec![Vec::with_capacity(reps); probes.len()];
    for _ in 0..reps {
        for (probe, out) in probes.iter_mut().zip(&mut values) {
            let span = tracer.begin(probe.span, None, None);
            let t0 = Instant::now();
            let ops = (probe.batch)();
            let ns = t0.elapsed().as_nanos() as f64;
            tracer.end(span, &[("ops", ops)]);
            out.push(ns / ops.max(1) as f64 / probe.scale);
        }
    }
    probes
        .iter()
        .zip(&values)
        .map(|(p, v)| {
            let stat = ProbeStat {
                median: stats::median(v),
                mad: stats::mad(v),
                reps: v.len(),
            };
            (p.metric, stat)
        })
        .collect()
}

/// The distinct terms of the workload's first queries, in first-use
/// order, until their lists hold [`SCAN_POSTINGS_CAP`] postings.
pub fn probe_terms(index: &dyn Index, queries: &[Query]) -> Vec<TermId> {
    let mut terms = Vec::new();
    let mut postings = 0;
    for &t in queries.iter().flat_map(|q| &q.terms) {
        if postings >= SCAN_POSTINGS_CAP {
            break;
        }
        if !terms.contains(&t) {
            terms.push(t);
            postings += index.doc_freq(t);
        }
    }
    terms
}

/// [`RA_PROBES`] `(term, doc)` pairs drawn the way pRA draws them: the
/// documents at the top of each query term's score-ordered list, each
/// looked up in the query's other terms. So the lookups fall as densely
/// on a few lists as pRA's do (several per block), and some miss.
fn ra_pairs(index: &dyn Index, queries: &[Query]) -> Vec<(TermId, DocId)> {
    let mut pairs = Vec::with_capacity(RA_PROBES);
    let mut seg: Vec<Posting> = Vec::with_capacity(RA_DOCS_PER_LIST);
    for q in queries {
        if pairs.len() >= RA_PROBES {
            break;
        }
        for (i, &from) in q.terms.iter().enumerate() {
            index
                .score_cursor(from)
                .next_segment(RA_DOCS_PER_LIST, &mut seg);
            for p in &seg {
                let others = q.terms.iter().enumerate().filter(|&(j, _)| j != i);
                pairs.extend(others.map(|(_, &t)| (t, p.doc)));
            }
        }
    }
    pairs.truncate(RA_PROBES);
    pairs
}

/// `index.*`: cursor open, both scan orders, seek, random access.
pub fn index_probes<'a>(
    index: &'a Arc<dyn Index>,
    terms: &'a [TermId],
    queries: &[Query],
) -> Vec<Probe<'a>> {
    // pRA claims a document once, so it never repeats a lookup.
    let mut sorted = ra_pairs(index.as_ref(), queries);
    sorted.sort_unstable();
    sorted.dedup();
    let mut shuffled = sorted.clone();
    SplitMix64(0x5EED).shuffle(&mut shuffled);
    let ra = |pairs: Vec<(TermId, DocId)>| {
        move || {
            let Some(ra) = index.random_access() else {
                return 0;
            };
            let mut sum = 0u64;
            for &(t, d) in &pairs {
                sum += u64::from(ra.term_score(t, d));
            }
            black_box(sum);
            pairs.len() as u64
        }
    };
    vec![
        Probe::ns("index.cursor_open_ns", "index.cursor_open", move || {
            for _ in 0..32 {
                for &t in terms {
                    black_box(Arc::clone(index).score_cursor_arc(t));
                }
            }
            32 * terms.len() as u64
        }),
        Probe::ns(
            "index.score_scan_ns_per_posting",
            "index.score_scan",
            move || {
                let mut seg: Vec<Posting> = Vec::with_capacity(SEG_SIZE);
                let mut n = 0;
                for &t in terms {
                    let mut cursor = index.score_cursor(t);
                    while cursor.next_segment(SEG_SIZE, &mut seg) > 0 {
                        n += seg.len() as u64;
                        black_box(&seg);
                    }
                }
                n
            },
        ),
        Probe::ns(
            "index.doc_scan_ns_per_posting",
            "index.doc_scan",
            move || {
                let mut n = 0;
                let mut sum = 0u64;
                for &t in terms {
                    let mut cursor = index.doc_cursor(t);
                    while cursor.doc().is_some() {
                        sum += u64::from(cursor.score());
                        n += 1;
                        cursor.advance();
                    }
                }
                black_box(sum);
                n
            },
        ),
        Probe::ns("index.seek_ns", "index.seek", move || {
            let mut n = 0;
            for &t in terms {
                let mut cursor = index.doc_cursor(t);
                let mut target = 0;
                while let Some(d) = cursor.seek(target) {
                    target = d + SEEK_STRIDE;
                    n += 1;
                }
            }
            n
        }),
        Probe::ns("index.probe_sorted_ns", "index.probe", ra(sorted)),
        Probe::ns("index.probe_random_ns", "index.probe", ra(shuffled)),
    ]
}

/// `collections.*`: the candidate map's upsert and the heap's offer.
pub fn collections_probes() -> Vec<Probe<'static>> {
    let mut rng = SplitMix64(0xC011);
    // Descending first (every offer past the k-th is refused at the
    // threshold), then random (a mix of refusals and evictions).
    let scores: Vec<u64> = (0..32 * 1024u64)
        .rev()
        .chain((0..32 * 1024).map(|_| rng.next() % (64 * 1024)))
        .collect();
    vec![
        Probe::ns(
            "collections.striped_upsert_ns",
            "collections.striped_upsert",
            || {
                let map: StripedMap<DocId, u64> = StripedMap::new();
                for d in 0..UPSERT_KEYS {
                    map.get_or_insert_with(d, || 0);
                    map.update(&d, |v| *v += 1);
                }
                black_box(map.len());
                u64::from(UPSERT_KEYS)
            },
        ),
        Probe::ns(
            "collections.topk_offer_ns",
            "collections.topk_offer",
            move || {
                let mut heap = BoundedTopK::new(crate::workload::K);
                for (i, &s) in scores.iter().enumerate() {
                    black_box(heap.offer(s, i as DocId));
                }
                scores.len() as u64
            },
        ),
    ]
}

/// A job that asks to be re-enqueued a fixed number of times: the
/// recycled-box path segment continuations take.
struct Requeue(u32);

impl CyclicJob for Requeue {
    fn run_step(&mut self) -> bool {
        self.0 -= 1;
        self.0 > 0
    }
}

/// `exec.*`: what one job, one pool hand-off and one per-query thread
/// set-up cost when the job itself does nothing.
pub fn exec_probes(threads: usize) -> Vec<Probe<'static>> {
    let pool = WorkerPool::new(threads);
    let dedicated = DedicatedExecutor::new(threads);
    let one_job_queue = || {
        let q = JobQueue::new();
        q.push(Box::new(|| {}));
        q
    };
    vec![
        Probe::ns("exec.job_roundtrip_ns", "exec.job_roundtrip", || {
            let q = JobQueue::new();
            for _ in 0..4096 {
                q.push(Box::new(|| {}));
                let job = q.try_pop().expect("the job just pushed");
                q.run_job(job);
            }
            4096
        }),
        Probe::ns("exec.cyclic_requeue_ns", "exec.cyclic_requeue", || {
            let q = JobQueue::new();
            let mut steps = 0;
            for _ in 0..4 {
                q.push(Job::cyclic(Requeue(1024)));
                while let Some(job) = q.try_pop() {
                    q.run_job(job);
                    steps += 1;
                }
            }
            steps
        }),
        Probe::us("exec.pool_dispatch_us", "exec.pool_dispatch", move || {
            for _ in 0..64 {
                let q = one_job_queue();
                pool.submit(Arc::clone(&q));
                q.wait_complete();
            }
            64
        }),
        Probe::us(
            "exec.dedicated_setup_us",
            "exec.dedicated_setup",
            move || {
                for _ in 0..64 {
                    dedicated.run(one_job_queue());
                }
                64
            },
        ),
    ]
}

/// `server.*` probes that need no socket: frame codec and admission.
pub fn server_probes(query: &Query, threads: usize) -> Vec<Probe<'static>> {
    let request = Frame::Request(QueryRequest {
        k: crate::workload::K as u32,
        algorithm: "sparta".to_string(),
        terms: query.terms.clone(),
    });
    let response = Frame::Response {
        query_tag: 1,
        hits: (0..crate::workload::K as u32)
            .map(|i| WireHit {
                doc: i * 7,
                score: u64::from(1_000_000 - i),
            })
            .collect(),
        summary: TraceSummary::default(),
    }
    .encode_payload();
    let admission =
        AdmissionController::new(AdmissionConfig::new(threads, 64), ServerMetrics::new());
    vec![
        Probe::ns("server.encode_request_ns", "server.encode", move || {
            for _ in 0..4096 {
                black_box(request.encode());
            }
            4096
        }),
        Probe::ns("server.decode_response_ns", "server.decode", move || {
            for _ in 0..1024 {
                black_box(
                    Frame::decode_payload(black_box(&response)).expect("own encoding decodes"),
                );
            }
            1024
        }),
        Probe::ns("server.admit_ns", "server.admit", move || {
            for _ in 0..4096 {
                match admission.try_admit() {
                    TryAdmit::Admitted(permit) => drop(black_box(permit)),
                    _ => unreachable!("an uncontended controller admits"),
                }
            }
            4096
        }),
    ]
}

/// `server.error_rtt_us`: the wire floor, over a live connection.
pub fn error_roundtrip_probe(mut wire: OverWire) -> Probe<'static> {
    Probe::us("server.error_rtt_us", "server.error_roundtrip", move || {
        for _ in 0..64 {
            wire.rejected_roundtrip().expect("the server answers");
        }
        64
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..100).collect();
        let mut b = a.clone();
        SplitMix64(9).shuffle(&mut a);
        SplitMix64(9).shuffle(&mut b);
        assert_eq!(a, b);
        assert_ne!(a, (0..100).collect::<Vec<_>>());
        a.sort_unstable();
        assert_eq!(a, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_probes_report_per_operation_cost() {
        let mut calls = 0;
        let mut probes = vec![Probe::ns("m", "layer.m", || {
            calls += 1;
            std::thread::sleep(std::time::Duration::from_millis(2));
            1000
        })];
        let mut tracer = Tracer::new(Instant::now(), 0);
        let out = run_interleaved(&mut probes, 3, &mut tracer);
        drop(probes);
        assert_eq!(calls, 3);
        assert_eq!(out["m"].reps, 3);
        // 2 ms over 1000 operations is at least 2000 ns each.
        assert!(out["m"].median >= 2000.0);
        assert_eq!(tracer.into_spans().len(), 3);
    }
}
