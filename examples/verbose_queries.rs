//! Verbose (voice) queries — the workload Sparta was built for (§1:
//! "more than 5% of voice search queries exceed 10 terms", and
//! "state-of-the-art algorithms fail to process long queries in
//! real-time").
//!
//! Generates the production voice-query mix of Guy [SIGIR'16] (mean
//! length 4.2, σ 2.96) and compares Sparta's high-recall variant
//! against pBMW and pJASS on it, reporting mean latency, p95 latency
//! and recall — the axes of the paper's Figures 3a/3b and Table 4.
//!
//! ```sh
//! cargo run --release --example verbose_queries [num_docs]
//! ```

use sparta::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

fn main() {
    let num_docs: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(20_000);
    let corpus = SynthCorpus::build(CorpusModel::clueweb_sim(num_docs, 11));
    let index: Arc<dyn Index> = Arc::new(IndexBuilder::new(TfIdfScorer).build_memory(&corpus));
    let k = (num_docs / 100).clamp(10, 1000) as usize;

    let log = QueryLog::generate(corpus.stats(), 20, 12, 3);
    let mix = log.voice_mix(60, 9);
    let lengths: Vec<usize> = mix.iter().map(|q| q.len()).collect();
    println!(
        "voice mix: {} queries, mean length {:.1}, max {}",
        mix.len(),
        lengths.iter().sum::<usize>() as f64 / lengths.len() as f64,
        lengths.iter().max().unwrap()
    );

    let exec = WorkerPool::new(4);
    let high = SearchConfig::exact(k)
        .with_delta(Some(Duration::from_millis(10)))
        .with_bmw_f(1.2)
        .with_jass_p(0.3);

    println!(
        "\n{:<8} {:>10} {:>10} {:>8}",
        "algo", "mean", "p95", "recall"
    );
    for name in ["sparta", "pbmw", "pjass", "pra"] {
        let algo = sparta::core::algorithm_by_name(name).unwrap();
        let mut times = Vec::new();
        let mut recall_sum = 0.0;
        for q in &mix {
            let t0 = Instant::now();
            let r = algo.search(&index, q, &high, &exec);
            times.push(t0.elapsed());
            let oracle = Oracle::compute(index.as_ref(), q, k);
            recall_sum += oracle.recall(&r.docs());
        }
        times.sort();
        let mean: Duration = times.iter().sum::<Duration>() / times.len() as u32;
        println!(
            "{:<8} {:>10.2?} {:>10.2?} {:>7.1}%",
            name,
            mean,
            percentile(&times, 0.95),
            100.0 * recall_sum / mix.len() as f64
        );
    }
    println!("\n(high-recall variants: Δ=10ms for TA-family, f=1.2, p=0.3)");
}
