//! Quickstart: index a handful of real documents and run Sparta.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use sparta::prelude::*;
use std::sync::Arc;

fn main() {
    // 1. Analyze a tiny corpus of real text with the built-in
    //    tokenizer (lowercasing, stop words, tf/df statistics).
    let docs = [
        "Sparta is a practical parallel algorithm for fast approximate top-k retrieval",
        "The threshold algorithm retrieves the top k objects by aggregating features",
        "Block-max WAND prunes document-order traversal using per-block score bounds",
        "Score-order algorithms traverse posting lists in decreasing impact order",
        "Parallel retrieval on multi-core hardware needs careful synchronization",
        "The cleaner task prunes candidates whose upper bounds fell below the threshold",
        "Verbose voice queries challenge real-time top-k retrieval latency budgets",
        "A shared-nothing parallelization partitions the index by document id",
    ];
    let mut tok = Tokenizer::new();
    let bags: Vec<_> = docs.iter().map(|d| tok.add_document(d)).collect();
    let stats = tok.stats();

    // 2. Build an in-memory inverted index with integer tf-idf scores.
    let index: Arc<dyn Index> =
        Arc::new(IndexBuilder::new(TfIdfScorer).build_memory_from_bags(&bags, &stats));

    // 3. Search. Sparta uses up to m = #terms worker threads.
    let query_text = "parallel top-k retrieval algorithm";
    let query = tok.query(query_text);
    println!("query {query_text:?} -> terms {:?}", query.terms);

    let cfg = SearchConfig::exact(3);
    let exec = WorkerPool::new(query.len().max(1));
    let top = Sparta.search(&index, &query, &cfg, &exec);

    println!("top-{} documents (Sparta, exact):", cfg.k);
    for (rank, hit) in top.hits.iter().enumerate() {
        println!(
            "  #{} doc {} (score {}): {:?}",
            rank + 1,
            hit.doc,
            hit.score,
            docs[hit.doc as usize]
        );
    }

    // 4. Verify against the exhaustive oracle and a baseline.
    let oracle = Oracle::compute(index.as_ref(), &query, cfg.k);
    assert_eq!(oracle.recall(&top.docs()), 1.0, "exact Sparta is exact");
    let bmw = SeqBmw.search(&index, &query, &cfg, &exec);
    println!(
        "agreement with BMW: {:.0}%",
        100.0 * oracle.recall(&bmw.docs())
    );
    println!(
        "work: {} postings scanned, {} heap updates",
        top.work.postings_scanned, top.work.heap_updates
    );
}
