//! Live observability plane, end to end: a burst of real queries over
//! TCP must leave a consistent story in `/metrics` (stage histograms in
//! lockstep, stage sums bounded by end-to-end), `/readyz` must track
//! the server lifecycle, and an injected executor stall must surface in
//! `/debug/slow` with flight-recorder evidence attached.

use sparta_core::SearchConfig;
use sparta_exec::{DeterministicExecutor, Executor, FaultPlan};
use sparta_obs::json::Json;
use sparta_obs::{parse_exposition, sample_value, ClockMode, FlightRecorder, ServerMetrics};
use sparta_server::admission::AdmissionConfig;
use sparta_server::protocol::{Frame, QueryRequest};
use sparta_server::scheduler::BatchScheduler;
use sparta_server::slowlog::SlowLogConfig;
use sparta_server::{http_get, serve_with_admin, Client, ServerHandle};
use sparta_testkit::{base_seed, build_index};
use std::net::SocketAddr;
use std::sync::Arc;

fn start_server() -> (ServerHandle, SocketAddr) {
    let (index, _corpus) = build_index(base_seed());
    let scheduler = BatchScheduler::new(
        Arc::clone(&index),
        SearchConfig::exact(10),
        2,
        AdmissionConfig::new(2, 8),
        ServerMetrics::new(),
    );
    let handle = serve_with_admin("127.0.0.1:0", "127.0.0.1:0", scheduler).expect("bind loopback");
    let admin = handle.admin_addr().expect("admin listener bound");
    (handle, admin)
}

fn scrape(admin: SocketAddr) -> Vec<(String, f64)> {
    let (status, body) = http_get(admin, "/metrics").expect("/metrics answers");
    assert_eq!(status, 200);
    parse_exposition(&body).expect("exposition parses")
}

#[test]
fn burst_load_leaves_consistent_stage_decomposition() {
    let (handle, admin) = start_server();
    let addr = handle.addr();
    // A burst wider than the in-flight budget (2), so some queries
    // actually wait in the queue and the queue_wait stage is exercised.
    let clients: Vec<_> = (0..8)
        .map(|i| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let reply = client
                    .query(&QueryRequest {
                        k: 5,
                        algorithm: "sparta".to_string(),
                        terms: vec![1 + i as u32, 2, 3],
                    })
                    .expect("answered");
                assert!(matches!(reply, Frame::Response { .. }), "got {reply:?}");
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client thread");
    }

    let samples = scrape(admin);
    let get = |series: &str| {
        sample_value(&samples, series).unwrap_or_else(|| panic!("missing series {series}"))
    };

    // Admission counters: the rendered invariant holds and matches the
    // eight completed queries.
    let attempts = get("sparta_server_admission_attempts_total");
    let accepted = get("sparta_server_admission_accepted_total");
    let shed = get("sparta_server_admission_shed_total");
    let abandoned = get("sparta_server_admission_abandoned_total");
    assert_eq!(attempts, accepted + shed + abandoned);
    assert_eq!(accepted, 8.0);
    assert_eq!(get("sparta_server_completed_total"), 8.0);

    // Every stage histogram advanced once per completed query — the
    // decomposition never skips a stage.
    let stage_count = |stage: &str| {
        get(&format!(
            "sparta_server_stage_duration_nanoseconds_count{{stage=\"{stage}\"}}"
        ))
    };
    for stage in ["admission_wait", "queue_wait", "execute", "response_write"] {
        assert_eq!(
            stage_count(stage),
            8.0,
            "stage {stage} count out of lockstep"
        );
    }
    assert_eq!(get("sparta_server_e2e_duration_nanoseconds_count"), 8.0);

    // The invariant the decomposition promises: the summed stages
    // never exceed the end-to-end total (stages are disjoint
    // sub-intervals of each query's lifetime on one clock).
    let stage_sum: f64 = ["admission_wait", "queue_wait", "execute", "response_write"]
        .iter()
        .map(|stage| {
            get(&format!(
                "sparta_server_stage_duration_nanoseconds_sum{{stage=\"{stage}\"}}"
            ))
        })
        .sum();
    let e2e_sum = get("sparta_server_e2e_duration_nanoseconds_sum");
    assert!(
        stage_sum <= e2e_sum,
        "stage sums ({stage_sum}) must bound end-to-end ({e2e_sum})"
    );
    assert!(e2e_sum > 0.0, "real queries take nonzero time");

    // The executor snapshot rides along (the pool is instrumented).
    assert!(
        get("sparta_exec_jobs_run_total{executor=\"pool\"}") > 0.0,
        "pool metrics must be in the exposition"
    );
    handle.shutdown();
}

#[test]
fn readyz_tracks_lifecycle_and_debug_routes_serve() {
    let (handle, admin) = start_server();
    let (status, body) = http_get(admin, "/healthz").expect("healthz");
    assert_eq!((status, body.as_str()), (200, "ok\n"));
    let (status, body) = http_get(admin, "/readyz").expect("readyz");
    assert_eq!((status, body.as_str()), (200, "ready\n"));

    // Run one query so the flight-recorder rings hold real events. It
    // is pRA's, the server's only query before the profile check, so
    // that check fails unless pRA records phase spans too.
    let mut client = Client::connect(handle.addr()).expect("connect");
    let reply = client
        .query(&QueryRequest {
            k: 3,
            algorithm: "pra".to_string(),
            terms: vec![1, 2],
        })
        .expect("answered");
    assert!(matches!(reply, Frame::Response { .. }));

    // The trace dump is well-formed Chrome trace JSON.
    let (status, body) = http_get(admin, "/debug/trace").expect("trace");
    assert_eq!(status, 200);
    sparta_obs::validate_trace_json(&body).expect("valid chrome trace");

    // The default config has no span switch: the recorded pool's rings
    // hold the query's phase spans, so the profile has phase frames.
    let (status, body) = http_get(admin, "/debug/profile?format=collapsed").expect("profile");
    assert_eq!(status, 200);
    assert!(
        body.lines().any(|l| l.contains(";term_process")),
        "no term_process frame in the collapsed profile:\n{body}"
    );

    // The slow log serves (empty) JSON with its bounds.
    let (status, body) = http_get(admin, "/debug/slow").expect("slow");
    assert_eq!(status, 200);
    let doc = sparta_obs::json::parse(&body).expect("slow log is JSON");
    assert_eq!(doc.get("captured").and_then(Json::as_f64), Some(0.0));

    // Drain flips readiness without stopping service.
    handle.drain();
    let (status, body) = http_get(admin, "/readyz").expect("readyz after drain");
    assert_eq!((status, body.as_str()), (503, "not ready\n"));
    let (status, _) = http_get(admin, "/healthz").expect("healthz after drain");
    assert_eq!(status, 200, "drain must not kill liveness");
    // The data plane still answers during the drain window.
    let mut client = Client::connect(handle.addr()).expect("connect");
    let reply = client
        .query(&QueryRequest {
            k: 3,
            algorithm: "sparta".to_string(),
            terms: vec![1, 2],
        })
        .expect("answered during drain");
    assert!(matches!(reply, Frame::Response { .. }));
    handle.shutdown();
}

#[test]
fn injected_stall_lands_in_slow_log_with_recorder_evidence() {
    let (index, _corpus) = build_index(base_seed());
    // A deterministic executor that stalls at step 3: `run` returns
    // with work still outstanding, the query completes with partial
    // results, and the recorder rings hold the steps that did run.
    let recorder = FlightRecorder::new(2, 256, ClockMode::Logical);
    let exec = DeterministicExecutor::new(base_seed())
        .with_parallelism(2)
        .with_faults(FaultPlan::none().stall_at(3))
        .with_recorder(Arc::clone(&recorder));
    let scheduler = BatchScheduler::with_executor(
        Arc::clone(&index),
        SearchConfig::exact(10),
        Arc::new(exec) as Arc<dyn Executor + Send + Sync>,
        Some(recorder),
        AdmissionConfig::new(2, 8),
        ServerMetrics::new(),
    )
    // Threshold 0: every completion is "slow", so the stalled query's
    // capture is deterministic.
    .with_slow_log(SlowLogConfig {
        threshold_ns: 0,
        capacity: 8,
    });
    let handle = serve_with_admin("127.0.0.1:0", "127.0.0.1:0", scheduler).expect("bind loopback");
    let admin = handle.admin_addr().expect("admin bound");

    let mut client = Client::connect(handle.addr()).expect("connect");
    let reply = client
        .query(&QueryRequest {
            k: 5,
            algorithm: "sparta".to_string(),
            terms: vec![1, 2, 3],
        })
        .expect("stalled query still answers (partial results)");
    assert!(matches!(reply, Frame::Response { .. }), "got {reply:?}");

    // The capture lands just *after* the response write (the write is
    // part of the measured decomposition), so poll briefly.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    let doc = loop {
        let (status, body) = http_get(admin, "/debug/slow").expect("slow log answers");
        assert_eq!(status, 200);
        let doc = sparta_obs::json::parse(&body).expect("slow log is JSON");
        if doc.get("captured").and_then(Json::as_f64).unwrap_or(0.0) >= 1.0 {
            break doc;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "stalled query must be captured: {body}"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    };
    let records = doc
        .get("records")
        .and_then(Json::as_arr)
        .expect("records array");
    let rec = records.last().expect("at least one record");
    assert_eq!(rec.get("algorithm").and_then(Json::as_str), Some("sparta"));
    assert_eq!(rec.get("k").and_then(Json::as_f64), Some(5.0));
    let dump = rec
        .get("recorder")
        .and_then(Json::as_str)
        .expect("recorder field present");
    assert!(
        !dump.is_empty(),
        "flight-recorder snapshot must be non-empty"
    );
    assert!(
        dump.contains("worker"),
        "dump shows per-worker rings: {dump}"
    );
    handle.shutdown();
}
