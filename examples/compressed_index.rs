//! Compressed posting backend: build one corpus, serve it raw and
//! compressed, and show that every algorithm family returns identical
//! results while the compressed side reports its footprint win and
//! decode traffic.
//!
//! ```sh
//! cargo run --release --example compressed_index [seed]
//! ```

use sparta::index::{IndexBuilder, IndexKind};
use sparta::prelude::*;
use std::sync::Arc;

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("seed must be a u64"))
        .unwrap_or(42);

    // 1. One synthetic corpus, two backends from the same postings.
    let corpus = SynthCorpus::build(CorpusModel::clueweb_sim(6_000, seed));
    let builder = IndexBuilder::new(TfIdfScorer);
    let raw: Arc<dyn Index> = Arc::from(builder.build_kind(&corpus, IndexKind::Raw));
    let comp: Arc<dyn Index> = Arc::from(builder.build_kind(&corpus, IndexKind::Compressed));

    let rf = raw.footprint().expect("raw footprint").total();
    let cf = comp.footprint().expect("compressed footprint").total();
    println!(
        "footprint: raw {rf} B, compressed {cf} B ({:.2}x smaller)",
        rf as f64 / cf as f64
    );

    // 2. Run one algorithm per traversal family on both backends;
    //    results must be bit-identical (exact codebook scores).
    let log = QueryLog::generate(corpus.stats(), 4, 6, seed);
    let cfg = SearchConfig::exact(10);
    for name in ["sparta", "pjass", "pbmw", "pra"] {
        let algo = sparta::core::algorithm_by_name(name).expect("registered algorithm");
        for q in log.of_length(4) {
            // Same seeded schedule on both backends so parallel
            // algorithms break k-boundary score ties identically.
            let a = algo.search(&raw, q, &cfg, &DeterministicExecutor::new(seed));
            let b = algo.search(&comp, q, &cfg, &DeterministicExecutor::new(seed));
            assert_eq!(a.docs(), b.docs(), "{name}: doc ids diverged");
            assert_eq!(a.scores(), b.scores(), "{name}: scores diverged");
        }
        println!("{name}: identical top-k on raw and compressed");
    }

    // 3. The compressed index accounts every block it decodes.
    let (blocks, bytes) = comp
        .io_stats()
        .expect("compressed backend exposes IoStats")
        .decode_snapshot();
    println!("decode traffic: {blocks} blocks, {bytes} compressed bytes");
    assert!(blocks > 0, "queries above must have decoded blocks");
}
