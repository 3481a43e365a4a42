//! Recall dynamics (Figure 3f): how fast each algorithm accrues the
//! true top-k over its running time. Prints an ASCII recall-vs-time
//! curve per algorithm for one long query.
//!
//! ```sh
//! cargo run --release --example recall_dynamics [num_docs]
//! ```

use sparta::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() {
    let num_docs: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(20_000);
    let corpus = SynthCorpus::build(CorpusModel::clueweb_sim(num_docs, 5));
    let index: Arc<dyn Index> = Arc::new(IndexBuilder::new(TfIdfScorer).build_memory(&corpus));
    let k = (num_docs / 100).clamp(10, 1000) as usize;

    // One 12-term query, 12 workers — the Figure 3f setup.
    let log = QueryLog::generate(corpus.stats(), 1, 12, 13);
    let q = &log.of_length(12)[0];
    let oracle = Oracle::compute(index.as_ref(), q, k);
    let exec = WorkerPool::new(4);
    let cfg = SearchConfig::exact(k).with_trace(true);

    println!("recall dynamics, 12-term query, k = {k}, {num_docs} docs\n");
    let samples = 24;
    for name in ["sparta", "pra", "pjass", "pbmw", "pnra"] {
        let algo = sparta::core::algorithm_by_name(name).unwrap();
        let start = Instant::now();
        let r = algo.search(&index, q, &cfg, &exec);
        let elapsed = start.elapsed();
        let trace = r.trace.clone().expect("trace enabled");
        let horizon = elapsed.max(Duration::from_micros(100));
        let curve = sparta::core::recall::recall_dynamics(&trace, &oracle, horizon, samples);
        print!("{name:>7} |");
        for (_, recall) in &curve {
            let c = match (recall * 10.0) as u32 {
                0 => ' ',
                1..=2 => '.',
                3..=5 => 'o',
                6..=8 => 'O',
                _ => '#',
            };
            print!("{c}");
        }
        println!(
            "| total {:.1?}, final recall {:.1}%",
            elapsed,
            100.0 * oracle.recall(&r.docs())
        );
        if let Some(t80) = sparta::core::recall::time_to_recall(&curve, 0.8) {
            println!("{:>8} 80% recall after {:.1?}", "", t80);
        }
    }
    println!("\n( ' '<10%  '.'<30%  'o'<60%  'O'<90%  '#'>=90% of exact top-k )");
}
