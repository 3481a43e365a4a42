//! Query server: serve a corpus over loopback TCP and query it.
//!
//! ```sh
//! cargo run --release --example query_server
//! ```
//!
//! Builds a small index, starts `sparta-server` on an ephemeral
//! loopback port with its admin plane, then drives it with the
//! blocking [`Client`]: a valid query, a bad request (the connection
//! survives), a walk over the admin endpoints (`/healthz`, `/readyz`,
//! `/metrics`, `/debug/slow`, `/debug/trace`), and a final metrics
//! snapshot showing the admission ledger balancing.

use sparta::prelude::*;
use sparta_obs::ServerMetrics;
use sparta_server::{
    http_get, serve_with_admin, AdmissionConfig, BatchScheduler, Client, ErrorCode, Frame,
    QueryRequest, SlowLogConfig,
};
use std::sync::Arc;

fn main() {
    // 1. Index a tiny corpus (same pipeline as the quickstart).
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
    let index: Arc<dyn Index> =
        Arc::new(IndexBuilder::new(TfIdfScorer).build_memory_from_bags(&bags, &stats));

    // 2. Start the server: 2 search workers, admit 2 in flight, queue 4.
    // Threshold 0 on the slow log so every completion is captured —
    // this demo wants to *show* a record, not wait for a real stall.
    let scheduler = BatchScheduler::new(
        Arc::clone(&index),
        SearchConfig::exact(3),
        2,
        AdmissionConfig::new(2, 4),
        ServerMetrics::new(),
    )
    .with_slow_log(SlowLogConfig {
        threshold_ns: 0,
        capacity: 8,
    });
    let handle = serve_with_admin("127.0.0.1:0", "127.0.0.1:0", scheduler).expect("bind loopback");
    let admin = handle.admin_addr().expect("admin listener bound");
    println!("serving on a loopback port (admin plane beside it)");

    // 3. A valid query over the wire.
    let mut client = Client::connect(handle.addr()).expect("connect");
    let query = tok.query("parallel top-k retrieval algorithm");
    let reply = client
        .query(&QueryRequest {
            k: 3,
            algorithm: "sparta".to_string(),
            terms: query.terms.clone(),
        })
        .expect("query answered");
    match &reply {
        Frame::Response { hits, summary, .. } => {
            println!("top-{} documents (served):", hits.len());
            for (rank, hit) in hits.iter().enumerate() {
                println!(
                    "  #{} doc {} (score {}): {:?}",
                    rank + 1,
                    hit.doc,
                    hit.score,
                    docs[hit.doc as usize]
                );
            }
            println!("work: {} postings scanned", summary.postings_scanned);
        }
        other => panic!("expected a response, got {other:?}"),
    }

    // 4. A bad request gets a typed error and the connection survives.
    let reply = client
        .query(&QueryRequest {
            k: 3,
            algorithm: "nope".to_string(),
            terms: query.terms.clone(),
        })
        .expect("server must answer");
    match &reply {
        Frame::Error { code, message } => {
            assert_eq!(*code, ErrorCode::UnknownAlgorithm);
            println!("rejected as expected: {message}");
        }
        other => panic!("expected an error, got {other:?}"),
    }

    // 5. The admin plane, over real HTTP: liveness, readiness, the
    // Prometheus exposition with the stage decomposition, the slow
    // log (threshold 0, so the query above is in it), and the
    // flight-recorder trace.
    let (status, body) = http_get(admin, "/healthz").expect("healthz");
    assert_eq!((status, body.as_str()), (200, "ok\n"));
    let (status, _) = http_get(admin, "/readyz").expect("readyz");
    assert_eq!(status, 200);
    println!("admin: healthz ok, readyz ready");

    let (status, metrics) = http_get(admin, "/metrics").expect("metrics");
    assert_eq!(status, 200);
    let samples = sparta_obs::parse_exposition(&metrics).expect("exposition parses");
    println!("admin: /metrics exposes {} series, e.g.:", samples.len());
    for line in metrics
        .lines()
        .filter(|l| l.contains("stage_duration_nanoseconds_sum"))
    {
        println!("  {line}");
    }

    // The capture lands just after the response write, so poll.
    let slow = loop {
        let (status, body) = http_get(admin, "/debug/slow").expect("slow log");
        assert_eq!(status, 200);
        if body.contains("\"query_tag\"") {
            break body;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    };
    let doc = sparta_obs::json::parse(&slow).expect("slow log is JSON");
    let records = doc
        .get("records")
        .and_then(sparta_obs::json::Json::as_arr)
        .expect("records");
    println!(
        "admin: /debug/slow holds {} record(s) with stage breakdown + recorder snapshot",
        records.len()
    );

    let (status, trace) = http_get(admin, "/debug/trace").expect("trace");
    assert_eq!(status, 200);
    sparta_obs::validate_trace_json(&trace).expect("valid chrome trace");
    println!(
        "admin: /debug/trace is valid Chrome-trace JSON ({} bytes)",
        trace.len()
    );

    // Drain flips readiness off while the data plane keeps serving.
    handle.drain();
    let (status, _) = http_get(admin, "/readyz").expect("readyz after drain");
    assert_eq!(status, 503);
    println!("admin: readyz flips to 503 on drain (healthz stays 200)");

    // 6. The admission ledger balances: one accepted, one completed.
    let snap = handle.metrics().snapshot();
    println!(
        "admission: accepted={} completed={} shed={} abandoned={}",
        snap.accepted, snap.completed, snap.shed, snap.abandoned
    );
    assert_eq!(snap.accepted, 1);
    assert_eq!(snap.completed, 1);

    handle.shutdown();
    println!("server shut down cleanly");
}
