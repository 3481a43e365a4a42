//! Phase spans, executor metrics, and Prometheus exposition.
//!
//! ```sh
//! cargo run --release --example observability [seed]
//! ```
//!
//! Runs one Sparta query under the seeded [`DeterministicExecutor`]
//! with a logical-clock flight recorder attached and prints the
//! recorder's per-phase table — replaying the seed reproduces the
//! Chrome trace export byte-for-byte — then runs the same query on an
//! instrumented [`WorkerPool`] and renders its metrics in Prometheus
//! text exposition format.

use sparta::prelude::*;
use sparta_obs::export::exec_snapshot_text;
use sparta_obs::{chrome_trace_string, profile_recorder, ClockMode, ExecMetrics, FlightRecorder};
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

    // 1. Recorded run under the deterministic executor: each virtual
    //    worker records into its ring, phase spans included, and the
    //    logical clock stamps events with steps, not nanoseconds.
    let cfg = SearchConfig::exact(10).with_seg_size(64);
    let run = |s: u64| {
        let rec = FlightRecorder::new(4, 1 << 14, ClockMode::Logical);
        let exec = DeterministicExecutor::new(s).with_recorder(Arc::clone(&rec));
        (Sparta.search(&index, &query, &cfg, &exec), rec)
    };
    let (a, rec_a) = run(seed);
    let profile = profile_recorder(&rec_a);
    println!("seed {seed}: phase table (logical ticks):");
    for p in &profile.phases {
        println!(
            "  {:<13} count {:>3}  inclusive {:>5}  self {:>5}",
            p.phase.as_str(),
            p.count,
            p.total_ticks,
            p.self_ticks
        );
    }

    // 2. Replay: same seed => byte-identical trace export and results.
    let (b, rec_b) = run(seed);
    assert_eq!(
        chrome_trace_string(&rec_a),
        chrome_trace_string(&rec_b),
        "trace replay diverged"
    );
    assert_eq!(a.hits, b.hits, "result replay diverged");
    assert_eq!(a.work, b.work, "work-counter replay diverged");
    println!("replay of seed {seed}: trace export byte-identical across runs");

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
