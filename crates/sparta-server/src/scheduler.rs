//! Batching scheduler: every admitted query runs on one shared
//! [`WorkerPool`] instead of a pool per query.
//!
//! Each request derives its own [`SearchConfig`] from the server's
//! template (`template.with_k(req.k).with_query_tag(tag)`), so the
//! shared pool runs many tagged job queues at once — the batching the
//! paper's throughput mode describes (§5.4): concurrent queries
//! coalesce onto the same workers rather than oversubscribing the
//! machine with one pool each. A worker keeps to the query it admitted
//! until that query completes, then admits the next pending one, and
//! helps another while its own has no queued job; a lone request in
//! flight still gets every worker. The tag stamped on the queue keeps
//! every job attributable to its query in flight-recorder dumps.
//!
//! The scheduler owns the admission step: `execute` either returns a
//! [`Frame::Response`] or a [`Frame::Error`] (shed, bad request,
//! unknown algorithm, or a caught query panic — the permit is RAII, so
//! even a panicking query releases its slot).
//!
//! Observability: every admitted query's path is decomposed against
//! the scheduler's injectable [`ObsClock`] into the
//! [`StageLatency`](sparta_obs::StageLatency) histograms — admission
//! wait, queue wait, execution, and (recorded by the transport in
//! [`complete`](BatchScheduler::complete)) response write plus
//! end-to-end. Queries whose end-to-end time crosses the
//! [`SlowLog`] threshold are captured with a
//! flight-recorder ring dump; a default-constructed scheduler
//! instruments its pool with both [`ExecMetrics`] and a
//! [`FlightRecorder`] so the admin plane has something to serve.

use crate::admission::{AdmissionConfig, AdmissionController, TryAdmit};
use crate::protocol::{ErrorCode, Frame, QueryRequest, TraceSummary, WireHit};
use crate::slowlog::{SlowLog, SlowLogConfig, SlowQueryRecord};
use sparta_core::registry::algorithm_by_name;
use sparta_core::SearchConfig;
use sparta_corpus::Query;
use sparta_exec::{Executor, WorkerPool};
use sparta_index::Index;
use sparta_obs::{ClockMode, ExecMetrics, FlightRecorder, ObsClock, ServerMetrics};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Upper bound on per-request k, protecting the shared pool from a
/// single request allocating an enormous heap.
pub const MAX_K: u32 = 10_000;

/// Events each per-worker flight-recorder ring retains.
const RECORDER_RING_CAPACITY: usize = 1 << 12;

/// Stage timings for one admitted query, measured on the scheduler's
/// clock. The transport finishes the story by calling
/// [`BatchScheduler::complete`] with the response-write time, which
/// closes the end-to-end interval.
#[derive(Debug, Clone, Copy)]
pub struct StageTiming {
    /// Clock tick at request entry (start of the end-to-end interval).
    pub start_tick: u64,
    /// Entry → admission decision.
    pub admission_wait_ns: u64,
    /// Time parked in the wait queue (0 if admitted immediately).
    pub queue_wait_ns: u64,
    /// Search execution time.
    pub execute_ns: u64,
    /// The tag stamped on the query.
    pub query_tag: u64,
}

/// Runs admitted queries on a shared worker pool.
pub struct BatchScheduler {
    exec: Arc<dyn Executor + Send + Sync>,
    admission: Arc<AdmissionController>,
    index: Arc<dyn Index>,
    template: SearchConfig,
    clock: Arc<ObsClock>,
    recorder: Option<Arc<FlightRecorder>>,
    exec_metrics: Option<Arc<ExecMetrics>>,
    slow_log: Arc<SlowLog>,
    // ordering: Relaxed — monotone tag allocator; uniqueness is all (model: tag_allocator)
    // that matters, no ordering with other memory.
    next_tag: AtomicU64,
}

impl BatchScheduler {
    /// A scheduler over `index` with `workers` pool threads. The pool
    /// is instrumented: per-worker [`ExecMetrics`] and a wall-clock
    /// [`FlightRecorder`] ring per worker, both served by the admin
    /// endpoint.
    pub fn new(
        index: Arc<dyn Index>,
        template: SearchConfig,
        workers: usize,
        admission: AdmissionConfig,
        metrics: Arc<ServerMetrics>,
    ) -> Self {
        let workers = workers.max(1);
        let exec_metrics = ExecMetrics::new(workers);
        let recorder = FlightRecorder::new(workers, RECORDER_RING_CAPACITY, ClockMode::Wall);
        let pool = WorkerPool::with_recorder(
            workers,
            Some(Arc::clone(&exec_metrics)),
            Arc::clone(&recorder),
        );
        Self {
            exec: Arc::new(pool),
            admission: AdmissionController::new(admission, metrics),
            index,
            template,
            clock: Arc::new(ObsClock::new(ClockMode::Wall)),
            recorder: Some(recorder),
            exec_metrics: Some(exec_metrics),
            slow_log: SlowLog::new(SlowLogConfig::default()),
            next_tag: AtomicU64::new(1),
        }
    }

    /// A scheduler running queries on a caller-supplied executor (e.g.
    /// a fault-injecting
    /// [`DeterministicExecutor`](sparta_exec::DeterministicExecutor)).
    /// Pass the executor's recorder so slow-query captures can dump
    /// its rings.
    pub fn with_executor(
        index: Arc<dyn Index>,
        template: SearchConfig,
        exec: Arc<dyn Executor + Send + Sync>,
        recorder: Option<Arc<FlightRecorder>>,
        admission: AdmissionConfig,
        metrics: Arc<ServerMetrics>,
    ) -> Self {
        Self {
            exec,
            admission: AdmissionController::new(admission, metrics),
            index,
            template,
            clock: Arc::new(ObsClock::new(ClockMode::Wall)),
            recorder,
            exec_metrics: None,
            slow_log: SlowLog::new(SlowLogConfig::default()),
            next_tag: AtomicU64::new(1),
        }
    }

    /// Replaces the stage/end-to-end clock (builder style). Inject a
    /// [`ClockMode::Logical`] clock to keep timing-dependent tests and
    /// deterministic replays byte-stable.
    #[must_use]
    pub fn with_clock(mut self, clock: Arc<ObsClock>) -> Self {
        self.clock = clock;
        self
    }

    /// Replaces the slow-query log bounds (builder style).
    #[must_use]
    pub fn with_slow_log(mut self, cfg: SlowLogConfig) -> Self {
        self.slow_log = SlowLog::new(cfg);
        self
    }

    /// The admission controller (exposed for load harnesses that drive
    /// admission directly).
    pub fn admission(&self) -> &Arc<AdmissionController> {
        &self.admission
    }

    /// The clock stages and the slow-query threshold are measured on.
    pub fn clock(&self) -> &Arc<ObsClock> {
        &self.clock
    }

    /// The flight recorder, if one is attached.
    pub fn recorder(&self) -> Option<&Arc<FlightRecorder>> {
        self.recorder.as_ref()
    }

    /// The index queries run against (exposed so the admin plane can
    /// scrape backend counters such as the compressed decoder's
    /// [`IoStats`](sparta_index::IoStats)).
    pub fn index(&self) -> &Arc<dyn Index> {
        &self.index
    }

    /// The pool's executor metrics, if instrumented.
    pub fn exec_metrics(&self) -> Option<&Arc<ExecMetrics>> {
        self.exec_metrics.as_ref()
    }

    /// The slow-query log.
    pub fn slow_log(&self) -> &Arc<SlowLog> {
        &self.slow_log
    }

    /// Validates a request without running it. `Ok` carries the
    /// resolved algorithm name.
    fn validate(req: &QueryRequest) -> Result<(), Frame> {
        let err = |code, message: &str| Frame::Error {
            code,
            message: message.to_string(),
        };
        if req.k == 0 || req.k > MAX_K {
            return Err(err(
                ErrorCode::BadRequest,
                &format!("k must be in 1..={MAX_K}"),
            ));
        }
        if algorithm_by_name(&req.algorithm).is_none() {
            return Err(err(
                ErrorCode::UnknownAlgorithm,
                &format!("unknown algorithm {:?}", req.algorithm),
            ));
        }
        Ok(())
    }

    /// Admits and runs one query, blocking in the wait queue if the
    /// in-flight budget is full. Always returns a frame to send back.
    ///
    /// Convenience wrapper over [`execute_timed`](Self::execute_timed)
    /// and [`complete`](Self::complete) for callers with no transport
    /// write to time (the response-write stage records 0).
    pub fn execute(&self, req: &QueryRequest) -> Frame {
        let (frame, timing) = self.execute_timed(req);
        if let Some(t) = timing {
            self.complete(req, &t, 0);
        }
        frame
    }

    /// Like [`execute`](Self::execute), but returns the stage timings
    /// so the transport can time the response write and then call
    /// [`complete`](Self::complete). `None` timing means the query
    /// never held a permit (invalid or shed) and records no stages.
    pub fn execute_timed(&self, req: &QueryRequest) -> (Frame, Option<StageTiming>) {
        if let Err(e) = Self::validate(req) {
            return (e, None);
        }
        let t_entry = self.clock.tick();
        let (permit, t_admitted, queue_wait_ns) = match self.admission.try_admit() {
            TryAdmit::Admitted(p) => {
                let t = self.clock.tick();
                (p, t, 0)
            }
            TryAdmit::Queued(slot) => {
                let t_queued = self.clock.tick();
                let p = slot.wait();
                let t = self.clock.tick();
                (p, t_queued, t.saturating_sub(t_queued))
            }
            TryAdmit::Shed => {
                return (
                    Frame::Error {
                        code: ErrorCode::Shed,
                        message: "server overloaded: in-flight budget and queue full".to_string(),
                    },
                    None,
                );
            }
        };
        let admission_wait_ns = t_admitted.saturating_sub(t_entry);
        let tag = self.next_tag.fetch_add(1, Ordering::Relaxed);
        let cfg = self.template.with_k(req.k as usize).with_query_tag(tag);
        let algo = algorithm_by_name(&req.algorithm).expect("validated above");
        let query = Query::new(req.terms.clone());
        let index = Arc::clone(&self.index);
        let exec = Arc::clone(&self.exec);
        let t_exec_start = self.clock.tick();
        // The permit is dropped (slot released, completed counted) on
        // both the normal and the unwinding path.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let _permit = permit;
            algo.search(&index, &query, &cfg, &*exec)
        }));
        let execute_ns = self.clock.tick().saturating_sub(t_exec_start);
        let timing = StageTiming {
            start_tick: t_entry,
            admission_wait_ns,
            queue_wait_ns,
            execute_ns,
            query_tag: tag,
        };
        let frame = match result {
            Ok(r) => Frame::Response {
                query_tag: tag,
                hits: r
                    .hits
                    .iter()
                    .map(|h| WireHit {
                        doc: h.doc,
                        score: h.score,
                    })
                    .collect(),
                summary: TraceSummary {
                    elapsed_ns: execute_ns,
                    postings_scanned: r.work.postings_scanned,
                    heap_updates: r.work.heap_updates,
                    cleaner_passes: r.work.cleaner_passes,
                },
            },
            Err(_) => Frame::Error {
                code: ErrorCode::Internal,
                message: format!("query {tag} panicked during execution"),
            },
        };
        (frame, Some(timing))
    }

    /// Closes one admitted query's end-to-end interval: records all
    /// five stage histograms and, when the end-to-end time crosses the
    /// slow-log threshold, captures a [`SlowQueryRecord`] with the
    /// admission state and a flight-recorder dump.
    pub fn complete(&self, req: &QueryRequest, timing: &StageTiming, response_write_ns: u64) {
        let end_to_end_ns = self.clock.tick().saturating_sub(timing.start_tick);
        let stages = &self.admission.metrics().stages;
        stages.admission_wait.record(timing.admission_wait_ns);
        stages.queue_wait.record(timing.queue_wait_ns);
        stages.execute.record(timing.execute_ns);
        stages.response_write.record(response_write_ns);
        stages.end_to_end.record(end_to_end_ns);
        if !self.slow_log.is_slow(end_to_end_ns) {
            return;
        }
        let dump = self
            .recorder
            .as_ref()
            .map(|r| sparta_obs::dump_text(r))
            .unwrap_or_default();
        self.slow_log.push(SlowQueryRecord {
            query_tag: timing.query_tag,
            k: req.k,
            algorithm: req.algorithm.clone(),
            admission_wait_ns: timing.admission_wait_ns,
            queue_wait_ns: timing.queue_wait_ns,
            execute_ns: timing.execute_ns,
            response_write_ns,
            end_to_end_ns,
            queue_depth: self.admission.queue_depth() as u64,
            in_flight: self.admission.in_flight() as u64,
            shed_total: self.admission.metrics().snapshot().shed,
            recorder: dump,
        });
    }
}
