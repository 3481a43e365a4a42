//! Query tracing spans, executor metrics, and Prometheus exposition.
//!
//! ```sh
//! cargo run --release --example observability [seed]
//! ```
//!
//! Runs one traced Sparta query under the seeded
//! [`DeterministicExecutor`] with a logical-step clock — replaying the
//! seed reproduces the span vector bit-for-bit — then runs the same
//! query on an instrumented [`WorkerPool`] and renders its
//! metrics in Prometheus text exposition format.

use sparta::prelude::*;
use sparta_obs::export::exec_snapshot_text;
use sparta_obs::{phase_totals, ClockMode, ExecMetrics};
use std::sync::Arc;

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("seed must be a u64"))
        .unwrap_or(42);

    let corpus = SynthCorpus::build(CorpusModel::tiny(7));
    let index: Arc<dyn Index> = Arc::new(IndexBuilder::new(TfIdfScorer).build_memory(&corpus));
    let query = QueryLog::generate(corpus.stats(), 1, 4, 11)
        .all()
        .next()
        .expect("query")
        .clone();

    // 1. Traced run under the deterministic executor: the logical
    //    clock stamps spans with scheduling steps, not nanoseconds.
    let cfg = SearchConfig::exact(10)
        .with_seg_size(64)
        .with_spans(true)
        .with_clock(ClockMode::Logical);
    let run = |s: u64| Sparta.search(&index, &query, &cfg, &DeterministicExecutor::new(s));
    let a = run(seed);
    let spans = a.spans.as_deref().expect("spans enabled");
    println!(
        "seed {seed}: {} spans, phase totals (logical ticks):",
        spans.len()
    );
    for t in phase_totals(spans) {
        println!(
            "  {:<13} count {:>3}  ticks {:>4}",
            t.phase.as_str(),
            t.count,
            t.total_ticks
        );
    }

    // 2. Replay: same seed => bit-identical span vector and results.
    let b = run(seed);
    assert_eq!(a.spans, b.spans, "span replay diverged");
    assert_eq!(a.hits, b.hits, "result replay diverged");
    assert_eq!(a.work, b.work, "work-counter replay diverged");
    println!("replay of seed {seed}: spans bit-identical across runs");

    // 3. The same query on an instrumented thread-pool executor, its
    //    metrics scraped into Prometheus text exposition format.
    let metrics = ExecMetrics::new(2);
    let exec = WorkerPool::instrumented(2, Arc::clone(&metrics));
    let r = Sparta.search(&index, &query, &SearchConfig::exact(10), &exec);
    assert_eq!(a.docs(), r.docs(), "instrumented run changed results");
    drop(exec); // joins the workers: the registry is now exact
    let snap = metrics.snapshot();
    assert!(snap.jobs_run > 0, "no jobs observed");
    assert_eq!(snap.jobs_panicked, 0, "unexpected panics");
    let text = exec_snapshot_text("pool", &snap);
    let mut families: Vec<&str> = text
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .filter_map(|l| l.split(' ').next())
        .collect();
    families.sort_unstable();
    println!(
        "prometheus exposition ({} metric families):",
        families.len()
    );
    for f in families {
        println!("  {f}");
    }
}
