//! End-to-end: a live server on loopback answers real queries with the
//! same hits a direct search produces, rejects nonsense without
//! falling over, and shuts down without leaking threads.

use sparta_core::{algorithm_by_name, SearchConfig};
use sparta_exec::WorkerPool;
use sparta_obs::ServerMetrics;
use sparta_server::admission::AdmissionConfig;
use sparta_server::protocol::{ErrorCode, Frame, QueryRequest};
use sparta_server::scheduler::BatchScheduler;
use sparta_server::{serve, Client};
use sparta_testkit::{base_seed, build_index};
use std::sync::Arc;

fn start_server() -> (sparta_server::ServerHandle, Arc<dyn sparta_index::Index>) {
    let (index, _corpus) = build_index(base_seed());
    let scheduler = BatchScheduler::new(
        Arc::clone(&index),
        SearchConfig::exact(10),
        2,
        AdmissionConfig::new(2, 8),
        ServerMetrics::new(),
    );
    let handle = serve("127.0.0.1:0", scheduler).expect("bind loopback");
    (handle, index)
}

#[test]
fn served_hits_match_direct_search() {
    let (handle, index) = start_server();
    let mut client = Client::connect(handle.addr()).expect("connect");
    let terms: Vec<u32> = vec![1, 2, 3];
    let req = QueryRequest {
        k: 5,
        algorithm: "sparta".to_string(),
        terms: terms.clone(),
    };
    let reply = client.query(&req).expect("query answered");
    let Frame::Response {
        query_tag,
        hits,
        summary,
    } = reply
    else {
        panic!("expected a response, got {reply:?}");
    };
    assert!(query_tag > 0, "scheduler must tag the query");
    assert!(summary.postings_scanned > 0, "work summary must be real");

    let direct = algorithm_by_name("sparta").unwrap().search(
        &index,
        &sparta_corpus::Query::new(terms),
        &SearchConfig::exact(5),
        &WorkerPool::new(2),
    );
    let direct_docs: Vec<u32> = direct.hits.iter().map(|h| h.doc).collect();
    let served_docs: Vec<u32> = hits.iter().map(|h| h.doc).collect();
    assert_eq!(
        served_docs, direct_docs,
        "served top-k must equal direct top-k"
    );
    assert_eq!(
        hits.iter().map(|h| h.score).collect::<Vec<_>>(),
        direct.hits.iter().map(|h| h.score).collect::<Vec<_>>(),
    );
    handle.shutdown();
}

#[test]
fn multiple_sequential_queries_reuse_one_connection() {
    let (handle, _index) = start_server();
    let mut client = Client::connect(handle.addr()).expect("connect");
    let mut tags = Vec::new();
    for terms in [vec![1], vec![2, 3], vec![4, 5, 6]] {
        let reply = client
            .query(&QueryRequest {
                k: 3,
                algorithm: "sparta".to_string(),
                terms,
            })
            .expect("answered");
        match reply {
            Frame::Response { query_tag, .. } => tags.push(query_tag),
            other => panic!("expected response, got {other:?}"),
        }
    }
    assert_eq!(tags.len(), 3);
    assert!(
        tags.windows(2).all(|w| w[0] < w[1]),
        "tags must be unique and increasing: {tags:?}"
    );
    let snap = handle.metrics().snapshot();
    assert_eq!(snap.accepted, 3);
    assert_eq!(snap.completed, 3);
    assert_eq!(snap.shed, 0);
    handle.shutdown();
}

#[test]
fn bad_requests_get_typed_errors_not_disconnects() {
    let (handle, _index) = start_server();
    let mut client = Client::connect(handle.addr()).expect("connect");
    // Unknown algorithm.
    let reply = client
        .query(&QueryRequest {
            k: 3,
            algorithm: "nope".to_string(),
            terms: vec![1],
        })
        .expect("server must answer");
    assert!(
        matches!(
            reply,
            Frame::Error {
                code: ErrorCode::UnknownAlgorithm,
                ..
            }
        ),
        "got {reply:?}"
    );
    // k = 0.
    let reply = client
        .query(&QueryRequest {
            k: 0,
            algorithm: "sparta".to_string(),
            terms: vec![1],
        })
        .expect("server must answer");
    assert!(
        matches!(
            reply,
            Frame::Error {
                code: ErrorCode::BadRequest,
                ..
            }
        ),
        "got {reply:?}"
    );
    // The connection survived both errors: a valid query still works.
    let reply = client
        .query(&QueryRequest {
            k: 2,
            algorithm: "sparta".to_string(),
            terms: vec![1, 2],
        })
        .expect("answered after errors");
    assert!(matches!(reply, Frame::Response { .. }), "got {reply:?}");
    // Neither rejected request consumed an admission slot.
    assert_eq!(handle.metrics().snapshot().accepted, 1);
    handle.shutdown();
}

#[test]
fn concurrent_clients_are_all_answered() {
    let (handle, _index) = start_server();
    let addr = handle.addr();
    let threads: Vec<_> = (0..8)
        .map(|i| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let reply = client
                    .query(&QueryRequest {
                        k: 4,
                        algorithm: "sparta".to_string(),
                        terms: vec![1 + i as u32, 2],
                    })
                    .expect("answered");
                matches!(reply, Frame::Response { .. })
            })
        })
        .collect();
    let answered = threads
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .filter(|&ok| ok)
        .count();
    // Budget 2 + queue 8 ≥ 8 concurrent queries: none shed.
    assert_eq!(answered, 8, "all concurrent queries must be answered");
    let snap = handle.metrics().snapshot();
    assert_eq!(snap.accepted, 8);
    assert_eq!(snap.completed, 8);
    assert_eq!(snap.shed, 0);
    assert!(snap.in_flight_highwater <= 2, "budget must cap concurrency");
    handle.shutdown();
}

#[test]
fn shutdown_joins_cleanly_with_idle_connections() {
    let (handle, _index) = start_server();
    // An idle connection that never sends anything must not block
    // shutdown (the handler polls the stop flag).
    let _idle = std::net::TcpStream::connect(handle.addr()).expect("connect");
    let t0 = std::time::Instant::now();
    handle.shutdown();
    assert!(
        t0.elapsed() < std::time::Duration::from_secs(5),
        "shutdown must not hang on idle connections"
    );
}
