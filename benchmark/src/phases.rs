//! The two load phases of paper §5.1, both closed-loop.
//!
//! * **Latency mode**: one client, one query at a time; the whole
//!   thread budget serves that query.
//! * **Throughput mode**: `T` clients keep one shared pool (or the
//!   server) busy, first come first served.
//!
//! Each client sends its next query only when the previous answer is
//! back, so a slower system is offered less load. Latency is taken
//! caller-side around the entry point, and every answer is checked
//! against its [`Truth`] after its latency has been taken.

use crate::trace::{Span, Tracer};
use crate::workload::Truth;
use sparta_core::{Algorithm, SearchConfig, SearchHit, WorkStats};
use sparta_corpus::Query;
use sparta_exec::Executor;
use sparta_index::Index;
use sparta_server::{Client, Frame, QueryRequest};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One answer as the caller sees it.
pub struct Answer {
    pub hits: Vec<SearchHit>,
    /// Work counters; over the wire only the summary's subset is known.
    pub work: WorkStats,
}

/// An entry point a client drives.
pub trait Runner: Send {
    /// Span name of one call (`<layer>.<what>`).
    fn span_name(&self) -> &'static str;
    fn run(&mut self, query: &Query) -> Result<Answer, String>;
}

/// `Algorithm::search` on a caller-chosen executor.
pub struct InProcess<'a> {
    pub algo: Arc<dyn Algorithm>,
    pub index: Arc<dyn Index>,
    pub cfg: SearchConfig,
    pub exec: &'a dyn Executor,
}

impl Runner for InProcess<'_> {
    fn span_name(&self) -> &'static str {
        "core.search"
    }

    fn run(&mut self, query: &Query) -> Result<Answer, String> {
        // Block-decode counters are cumulative on the index; the delta
        // belongs to this query alone only while one client runs.
        let io = self.index.io_stats();
        let before = io.map(|s| s.decode_snapshot()).unwrap_or_default();
        let r = self.algo.search(&self.index, query, &self.cfg, self.exec);
        let after = io.map(|s| s.decode_snapshot()).unwrap_or_default();
        let mut work = r.work;
        work.blocks_decoded += after.0.saturating_sub(before.0);
        work.compressed_bytes += after.1.saturating_sub(before.1);
        Ok(Answer { hits: r.hits, work })
    }
}

/// `Client::query` over one loopback connection.
pub struct OverWire {
    client: Client,
    /// The request sent for every query; only its terms change.
    request: QueryRequest,
}

impl OverWire {
    pub fn connect(addr: SocketAddr, algorithm: &'static str, k: usize) -> Result<Self, String> {
        Ok(Self {
            client: Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?,
            request: QueryRequest {
                k: k as u32,
                algorithm: algorithm.to_string(),
                terms: Vec::new(),
            },
        })
    }

    /// One request naming an algorithm the server does not know: it is
    /// rejected by validation before admission, so the round trip is
    /// the wire floor (connection thread, frame read, decode, encode,
    /// write) and nothing else.
    pub fn rejected_roundtrip(&mut self) -> Result<(), String> {
        let req = QueryRequest {
            algorithm: "no-such-algorithm".to_string(),
            terms: vec![0],
            ..self.request
        };
        match self.client.query(&req) {
            Ok(Frame::Error { .. }) => Ok(()),
            other => Err(format!("expected an error frame, got {other:?}")),
        }
    }
}

impl Runner for OverWire {
    fn span_name(&self) -> &'static str {
        "client.roundtrip"
    }

    fn run(&mut self, query: &Query) -> Result<Answer, String> {
        self.request.terms.clone_from(&query.terms);
        match self.client.query(&self.request) {
            Ok(Frame::Response { hits, summary, .. }) => Ok(Answer {
                hits: hits
                    .iter()
                    .map(|h| SearchHit {
                        doc: h.doc,
                        score: h.score,
                    })
                    .collect(),
                work: WorkStats {
                    postings_scanned: summary.postings_scanned,
                    heap_updates: summary.heap_updates,
                    cleaner_passes: summary.cleaner_passes,
                    ..WorkStats::default()
                },
            }),
            Ok(other) => Err(format!("not a response frame: {other:?}")),
            Err(e) => Err(format!("protocol error: {e}")),
        }
    }
}

/// One timed, checked query.
#[derive(Debug, Clone)]
pub struct Sample {
    pub ms: f64,
    /// Answered, and every exact-run invariant held.
    pub ok: bool,
    pub recall: f64,
    pub work: WorkStats,
}

/// What the phases need to know about the workload.
pub struct Load<'a> {
    pub queries: &'a [Query],
    pub truths: &'a [Truth],
    pub exact_scores: bool,
}

impl Load<'_> {
    /// Runs query `i` (modulo the list), times it, then checks it.
    pub fn one(&self, runner: &mut dyn Runner, i: usize, tracer: Option<&mut Tracer>) -> Sample {
        let query = i % self.queries.len();
        let q = &self.queries[query];
        let (ms, answer) = match tracer {
            None => {
                let t0 = Instant::now();
                let answer = runner.run(q);
                (t0.elapsed().as_secs_f64() * 1e3, answer)
            }
            Some(tr) => {
                let root = tr.begin("query", None, Some(query as u64));
                let call = tr.begin(runner.span_name(), Some(root), Some(query as u64));
                let t0 = Instant::now();
                let answer = runner.run(q);
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                let w = answer.as_ref().map(|a| a.work).unwrap_or_default();
                tr.end(
                    call,
                    &[
                        ("postings_scanned", w.postings_scanned),
                        ("random_accesses", w.random_accesses),
                        ("heap_updates", w.heap_updates),
                        ("blocks_decoded", w.blocks_decoded),
                    ],
                );
                tr.end(root, &[]);
                (ms, answer)
            }
        };
        match answer {
            Ok(a) => {
                let v = self.truths[query].judge(&a.hits, self.exact_scores);
                Sample {
                    ms,
                    ok: v.ok,
                    recall: v.recall,
                    work: a.work,
                }
            }
            Err(e) => {
                eprintln!("query {query} failed: {e}");
                Sample {
                    ms,
                    ok: false,
                    recall: 0.0,
                    work: WorkStats::default(),
                }
            }
        }
    }

    /// Latency mode: one client walks the list from the start until
    /// the time box closes.
    pub fn latency_phase(&self, runner: &mut dyn Runner, budget: Duration) -> Vec<Sample> {
        let start = Instant::now();
        let mut samples = Vec::new();
        while start.elapsed() < budget {
            samples.push(self.one(runner, samples.len(), None));
        }
        samples
    }

    /// Throughput mode: one client per runner, all drawing the next
    /// query from one shared cursor until the time box closes; a query
    /// in flight then is finished.
    pub fn throughput_phase(
        &self,
        runners: Vec<Box<dyn Runner + '_>>,
        budget: Duration,
        trace_epoch: Option<Instant>,
    ) -> Throughput {
        let next = AtomicUsize::new(0);
        let start = Instant::now();
        let per_client: Vec<Throughput> = std::thread::scope(|s| {
            let handles: Vec<_> = runners
                .into_iter()
                .enumerate()
                .map(|(c, mut runner)| {
                    let next = &next;
                    s.spawn(move || {
                        let mut tracer = trace_epoch.map(|e| Tracer::new(e, (c as u64 + 1) << 32));
                        let mut out = Throughput::default();
                        while start.elapsed() < budget {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            out.samples
                                .push(self.one(runner.as_mut(), i, tracer.as_mut()));
                            out.done_s.push(start.elapsed().as_secs_f64());
                        }
                        out.spans = tracer.map(Tracer::into_spans).unwrap_or_default();
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let mut all = Throughput::default();
        for client in per_client {
            all.samples.extend(client.samples);
            all.done_s.extend(client.done_s);
            all.spans.extend(client.spans);
        }
        all
    }
}

/// What the throughput phase saw, all clients together.
#[derive(Default)]
pub struct Throughput {
    pub samples: Vec<Sample>,
    /// When each sample's answer arrived, in seconds since the phase
    /// began; parallel to `samples`.
    pub done_s: Vec<f64>,
    /// Spans of a traced phase.
    pub spans: Vec<Span>,
}

impl Throughput {
    /// Correct completions per second over each of `chunks` equal
    /// shares of the phase's correct answers, in arrival order: the
    /// share's size over the time it took to arrive. The phase's
    /// figure is the median chunk, so a stall of the machine that
    /// hits one stretch of the phase does not decide it.
    pub fn chunk_qps(&self, chunks: usize) -> Vec<f64> {
        let mut done: Vec<f64> = self
            .samples
            .iter()
            .zip(&self.done_s)
            .filter(|(s, _)| s.ok)
            .map(|(_, &t)| t)
            .collect();
        crate::stats::sort(&mut done);
        let size = done.len() / chunks.max(1);
        if size == 0 {
            return Vec::new();
        }
        (0..chunks)
            .map(|c| {
                let from = if c == 0 { 0.0 } else { done[c * size - 1] };
                size as f64 / (done[(c + 1) * size - 1] - from)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_qps_is_chunk_size_over_arrival_time_of_correct_answers() {
        let sample = |ok| Sample {
            ms: 1.0,
            ok,
            recall: 1.0,
            work: WorkStats::default(),
        };
        let t = Throughput {
            samples: vec![
                sample(true),
                sample(true),
                sample(false),
                sample(true),
                sample(true),
            ],
            // Four correct answers: two by 0.5 s, two more by 1.5 s; the
            // wrong one at 0.6 s does not count.
            done_s: vec![0.25, 0.5, 0.6, 1.0, 1.5],
            spans: Vec::new(),
        };
        assert_eq!(t.chunk_qps(2), vec![4.0, 2.0]);
        assert!(Throughput::default().chunk_qps(3).is_empty());
    }
}
