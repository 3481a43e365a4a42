//! Sparta as a service: a long-lived query server over the workspace's
//! retrieval substrate.
//!
//! The paper evaluates Sparta one query at a time; a deployment runs
//! it behind a frontend that must decide, under load, which queries to
//! run now, which to make wait, and which to refuse. This crate is
//! that frontend, kept deliberately dependency-free (std TCP plus the
//! workspace's own crates):
//!
//! * [`protocol`] — length-prefixed request/response frames with total,
//!   panic-free decoding ([`Frame`], [`ProtocolError`]).
//! * [`admission`] — a bounded in-flight budget with a bounded FIFO
//!   wait queue and load shedding; RAII [`Permit`]s make the
//!   accounting exact on every schedule, and every decision lands in
//!   [`sparta_obs::ServerMetrics`].
//! * [`scheduler`] — the batching layer: every admitted query derives
//!   a per-request [`SearchConfig`](sparta_core::SearchConfig) from a
//!   shared template (`with_k` + `with_query_tag`) and runs on **one
//!   shared** [`WorkerPool`](sparta_exec::WorkerPool) instead of paying
//!   one pool per query. Each pool worker keeps to the query it
//!   admitted until that query completes, then admits the next pending
//!   one; while its query has no queued job it helps another in flight.
//! * [`server`] / [`client`] — the TCP edge: accept loop, polling
//!   handlers, cooperative shutdown that joins every thread.
//! * [`admin`] — the observability plane: a second listener speaking
//!   minimal HTTP/1.0 for `/metrics` (Prometheus exposition),
//!   `/healthz`, `/readyz`, `/debug/trace` (Chrome trace of the
//!   flight-recorder rings), `/debug/slow`, and `/debug/profile`.
//! * [`slowlog`] — the slow-query log: a bounded ring of evidence
//!   records (stage decomposition + flight-recorder dump) for queries
//!   whose end-to-end latency crossed a threshold.
//!
//! The open-loop load harness in `sparta-bench` (`repro load`) drives
//! either the in-process scheduler (deterministic, logical-clock,
//! byte-identical reports) or this TCP edge (real sockets, wall
//! clock); see README "Running the server".

#![warn(missing_docs)]

pub mod admin;
pub mod admission;
pub mod client;
pub mod protocol;
pub mod scheduler;
pub mod server;
pub mod slowlog;

pub use admin::{http_get, MAX_REQUEST_BYTES};
pub use admission::{AdmissionConfig, AdmissionController, Permit, QueueSlot, TryAdmit};
pub use client::Client;
pub use protocol::{
    read_frame, write_frame, ErrorCode, Frame, ProtocolError, QueryRequest, TraceSummary, WireHit,
    MAX_PAYLOAD,
};
pub use scheduler::{BatchScheduler, StageTiming, MAX_K};
pub use server::{serve, serve_with_admin, ServerHandle, POLL_INTERVAL};
pub use slowlog::{SlowLog, SlowLogConfig, SlowQueryRecord, SLOW_DUMP_MAX_BYTES};
