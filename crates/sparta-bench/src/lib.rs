//! Benchmark harness reproducing the evaluation of §5.
//!
//! The paper's experiments run on ClueWeb09B (50M docs) and a 10×
//! synthetic scale-up, on a 12-core Xeon. This reproduction builds the
//! same *generative* corpora at a configurable scale (`SPARTA_DOCS`,
//! default 20 000 documents, ClueWebX10 = 10× that) and measures the
//! same quantities: mean/p95 latency by query length, recall of the
//! approximate variants, recall dynamics over time, latency vs.
//! intra-query parallelism, and throughput on the voice-query mix.
//!
//! Absolute numbers differ from the paper's (different hardware, Rust
//! vs Java, corpus scale); the *shapes* — who wins, by what factor,
//! where crossovers fall — are the reproduction target, and the
//! scheduling-independent work metrics (postings scanned, map sizes,
//! random accesses) are reported alongside wall-clock times. See
//! EXPERIMENTS.md for the paper-vs-measured record.

pub mod arrival;
pub mod dataset;
pub mod export;
pub mod load;
pub mod measure;
pub mod variants;

pub use arrival::ArrivalProcess;
pub use dataset::{Dataset, Scale};
pub use export::{out_path, validate_bench_json, BenchCell, BenchReport, IndexReport, RecallCurve};
pub use load::{
    analyze_saturation, run_load_sim, run_load_tcp, LoadConfig, LoadLevel, LoadReport,
    SaturationReport, ServerScrape, StageStat, DEFAULT_LATENCY_BUDGET_MS,
};
pub use measure::LatencyStats;
pub use variants::VariantParams;
