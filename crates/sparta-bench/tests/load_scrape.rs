//! The TCP load harness's admin scraping: a sweep against a live
//! server with an admin port must come back with server-side truth —
//! a successful scrape per sweep boundary, monotone counters, and
//! stage totals that agree with the client-side view.

use sparta_bench::{run_load_tcp, LoadConfig};
use sparta_core::SearchConfig;
use sparta_obs::ServerMetrics;
use sparta_server::admission::AdmissionConfig;
use sparta_server::protocol::QueryRequest;
use sparta_server::scheduler::BatchScheduler;
use sparta_server::serve_with_admin;
use sparta_testkit::{base_seed, build_index};
use std::sync::Arc;

#[test]
fn tcp_sweep_scrapes_server_truth() {
    let (index, _corpus) = build_index(base_seed());
    let admission = AdmissionConfig::new(4, 16);
    let scheduler = BatchScheduler::new(
        Arc::clone(&index),
        SearchConfig::exact(10),
        2,
        admission,
        ServerMetrics::new(),
    );
    let handle = serve_with_admin("127.0.0.1:0", "127.0.0.1:0", scheduler).expect("bind loopback");
    let cfg = LoadConfig {
        qps_levels: vec![200.0, 500.0],
        queries_per_level: 20,
        admission,
        ..LoadConfig::default()
    };
    let requests = vec![QueryRequest {
        k: 5,
        algorithm: "sparta".to_string(),
        terms: vec![1, 2, 3],
    }];
    let report = run_load_tcp(
        handle.addr(),
        handle.metrics(),
        &cfg,
        &requests,
        handle.admin_addr(),
    );
    handle.shutdown();

    let scrape = report.server.as_ref().expect("admin scrape present");
    // One scrape before the sweep plus one per level.
    assert_eq!(scrape.scrapes, 3, "every boundary scrape must succeed");
    assert!(scrape.monotone, "live counters must be monotone");
    // Server-side counters cover the whole sweep: 40 offered total.
    assert_eq!(
        scrape.snapshot.attempts(),
        40,
        "server saw every query: {:?}",
        scrape.snapshot
    );
    // Five stage entries (4 stages + end_to_end), each with the same
    // count as completed queries.
    assert_eq!(scrape.stages.len(), 5);
    for stage in &scrape.stages {
        assert_eq!(
            stage.count, scrape.snapshot.completed,
            "stage {} count out of lockstep",
            stage.stage
        );
    }
    let e2e = scrape
        .stages
        .iter()
        .find(|s| s.stage == "end_to_end")
        .expect("end_to_end stage");
    let parts: u64 = scrape
        .stages
        .iter()
        .filter(|s| s.stage != "end_to_end")
        .map(|s| s.sum_ns)
        .sum();
    assert!(
        parts <= e2e.sum_ns,
        "stage sums ({parts}) must bound end-to-end ({})",
        e2e.sum_ns
    );
    // The JSON emission carries the block and validates.
    let json = report.to_json().to_pretty_string(2);
    assert!(json.contains("\"server\""), "server block emitted:\n{json}");
}
