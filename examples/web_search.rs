//! The paper's web-search case study in miniature (§5): build a
//! synthetic ClueWeb-like corpus, index it, and race all six parallel
//! algorithms on AOL-like queries of growing length.
//!
//! ```sh
//! cargo run --release --example web_search [num_docs]
//! ```

use sparta::prelude::*;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let num_docs: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(20_000);
    let threads = 4;
    let k = (num_docs / 100).clamp(10, 1000) as usize;

    println!("building synthetic ClueWeb-like corpus: {num_docs} docs …");
    let t0 = Instant::now();
    let corpus = SynthCorpus::build(CorpusModel::clueweb_sim(num_docs, 42));
    println!(
        "  vocab {} terms, avg doc len {:.0} tokens ({:.1?})",
        corpus.stats().vocab_size(),
        corpus.stats().avg_doc_len,
        t0.elapsed()
    );

    let t0 = Instant::now();
    let index: Arc<dyn Index> = Arc::new(IndexBuilder::new(TfIdfScorer).build_memory(&corpus));
    println!("indexed in {:.1?}", t0.elapsed());

    let log = QueryLog::generate(corpus.stats(), 5, 12, 7);
    let exec = WorkerPool::new(threads);
    let cfg = SearchConfig::exact(k);

    println!("\nmean exact latency by query length (k = {k}, {threads} threads):");
    println!(
        "{:>7} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "terms", "sparta", "pra", "pnra", "snra", "pbmw", "pjass"
    );
    for m in [2usize, 4, 8, 12] {
        print!("{m:>7}");
        for name in ["sparta", "pra", "pnra", "snra", "pbmw", "pjass"] {
            let algo = sparta::core::algorithm_by_name(name).unwrap();
            let t0 = Instant::now();
            let mut checked = false;
            for q in log.of_length(m) {
                let r = algo.search(&index, q, &cfg, &exec);
                if !checked {
                    // Spot-check exactness on the first query.
                    let oracle = Oracle::compute(index.as_ref(), q, k);
                    assert_eq!(oracle.recall(&r.docs()), 1.0, "{name} not exact");
                    checked = true;
                }
            }
            let mean = t0.elapsed() / log.of_length(m).len() as u32;
            print!(" {:>9.2?}", mean);
        }
        println!();
    }
    println!("\n(every cell spot-checked against the exhaustive oracle)");
}
