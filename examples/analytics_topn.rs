//! The paper's motivating real-time analytics workload (§1): "a
//! real-time analytics engine might keep daily lists of application
//! access statistics — the number of users accessing every application
//! on a given day. A query may then retrieve the popular applications
//! over a ten-day period by aggregating over ten lists."
//!
//! Here each *term* is a day, each *document* is an application, and a
//! posting's score is that day's access count. Top-k over a 10-term
//! query = the TopN primitive of real-time analytics databases.
//!
//! ```sh
//! cargo run --release --example analytics_topn
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sparta::index::Posting;
use sparta::prelude::*;
use std::sync::Arc;

const APPS: u32 = 200_000;
const DAYS: u32 = 10;

fn main() {
    let mut rng = StdRng::seed_from_u64(2026);

    // Synthesize per-day access lists with app popularity following a
    // Zipf law and day-to-day noise (weekend dips, releases, …).
    let zipf = sparta::corpus::zipf::Zipf::new(u64::from(APPS), 1.05);
    let base: Vec<u64> = (0..APPS)
        .map(|app| {
            // popularity rank = permuted app id
            let rank = u64::from(app.wrapping_mul(2654435761) % APPS) + 1;
            (1e7 * zipf.pmf(rank)) as u64 + 1
        })
        .collect();
    let lists: Vec<Vec<Posting>> = (0..DAYS)
        .map(|_| {
            (0..APPS)
                .map(|app| {
                    let noise: u64 = rng.gen_range(70..130);
                    let count = (base[app as usize] * noise / 100).clamp(1, u64::from(u32::MAX));
                    Posting::new(app, count as u32)
                })
                .collect()
        })
        .collect();

    let index: Arc<dyn Index> = Arc::new(InMemoryIndex::from_term_postings(lists, u64::from(APPS)));
    // The 10-day TopN query: aggregate daily counts over all days.
    let query = Query::new((0..DAYS).collect());
    let k = 20;
    let cfg = SearchConfig::exact(k);
    let exec = WorkerPool::new(4);

    let t0 = std::time::Instant::now();
    let top = Sparta.search(&index, &query, &cfg, &exec);
    let sparta_t = t0.elapsed();

    println!("top-{k} applications by {DAYS}-day access count (Sparta, {sparta_t:.1?}):");
    for (rank, hit) in top.hits.iter().take(10).enumerate() {
        println!(
            "  #{:<2} app-{:<7} {:>12} accesses",
            rank + 1,
            hit.doc,
            hit.score
        );
    }
    println!("  … plus {} more", top.hits.len().saturating_sub(10));

    // Validate against the oracle and compare the brute-force cost.
    let t0 = std::time::Instant::now();
    let oracle = Oracle::compute(index.as_ref(), &query, k);
    let brute_t = t0.elapsed();
    assert_eq!(oracle.recall(&top.docs()), 1.0);
    println!(
        "\nSparta scanned {} of {} postings ({:.1}%); brute force took {brute_t:.1?}",
        top.work.postings_scanned,
        u64::from(APPS * DAYS),
        100.0 * top.work.postings_scanned as f64 / f64::from(APPS * DAYS),
    );

    // The approximate variant answers dashboards-grade queries faster.
    let approx = cfg.with_delta(Some(std::time::Duration::from_millis(5)));
    let t0 = std::time::Instant::now();
    let a = Sparta.search(&index, &query, &approx, &exec);
    println!(
        "approximate (Δ = 5 ms): {:.1?}, recall {:.1}%",
        t0.elapsed(),
        100.0 * oracle.recall(&a.docs())
    );
}
