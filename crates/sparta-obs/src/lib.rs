//! Observability substrate: phase spans, lock-free metrics, a flight
//! recorder, and machine-readable exporters.
//!
//! The paper's evaluation (§5) reasons about latency distributions,
//! work per query, and recall-over-time dynamics. This crate provides
//! the shared measurement vocabulary the rest of the workspace reports
//! in:
//!
//! * [`span()`] — phase spans (plan, term processing, cleaner passes,
//!   heap merge, …), recorded as begin/end events in the flight
//!   recorder below. A recorder stamps them with a wall-clock or a
//!   *logical-step* clock ([`ClockMode`]); the logical one makes them
//!   bit-identical when replayed under the deterministic executor.
//! * [`Counter`] / [`MaxGauge`] / [`Histogram`] — lock-free primitives
//!   for per-worker registries ([`WorkerMetrics`], [`ExecMetrics`])
//!   aggregated on scrape into an [`ExecSnapshot`].
//! * [`export`] — Prometheus text exposition and a JSON value model
//!   ([`json::Json`]) with a parser, used by `sparta-bench`'s
//!   `BENCH_*.json` emitter and its schema-validating smoke test.
//!
//! * [`recorder`] / [`ring`] / [`trace_export`] — the **flight
//!   recorder**: a fixed-capacity, lock-free, allocation-free event
//!   ring per worker (job start/end, queue push/pop, park/unpark,
//!   requeues, span begin/end, score marks), installed into a
//!   thread local by the executors, dumped by the stall watchdog, and
//!   exported as Chrome trace-event JSON for `chrome://tracing` /
//!   Perfetto.
//! * [`profile`] — the same rings folded into aggregate tables
//!   (per-worker utilization, per-phase self time, collapsed stacks).
//!   The trace exporter and the profile pair ring events through one
//!   shared fold, so the profile's tables are sums of the trace's
//!   slices.
//!
//! Everything here follows the disabled-sink design of
//! `sparta-core::TraceSink`: with no ring installed on the thread, a
//! span or any other recorder event costs one thread-local branch, so
//! observability is free unless an executor records.
//!
//! This crate deliberately depends on std alone.

#![warn(missing_docs)]

pub mod clock;
pub mod export;
mod fold;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod recorder;
pub mod registry;
pub mod ring;
pub mod server;
pub mod span;
pub mod trace_export;

pub use clock::{ClockMode, ObsClock};
pub use export::{
    exec_snapshot_text, parse_exposition, sample_value, server_snapshot_text, stage_snapshot_text,
    PrometheusText,
};
pub use metrics::{percentile, Counter, Histogram, HistogramSnapshot, MaxGauge};
pub use profile::{
    profile_recorder, validate_profile_json, PhaseProfile, Profile, WorkerUtilization,
    PROFILE_SCHEMA_VERSION,
};
pub use recorder::{FlightRecorder, RecorderGuard};
pub use registry::{ExecMetrics, ExecSnapshot, WorkerMetrics};
pub use ring::{Event, EventKind, EventRing};
pub use server::{ServerMetrics, ServerSnapshot, StageLatency, StageSnapshot};
pub use span::{span, Phase, SpanGuard};
pub use trace_export::{
    chrome_trace, chrome_trace_string, dump_text, validate_trace_json, TRACE_SCHEMA_VERSION,
};
