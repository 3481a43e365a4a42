//! The admin plane: a dependency-free HTTP/1.0 listener on a second
//! port, serving operational state about the query server.
//!
//! Routes:
//!
//! * `GET /metrics` — Prometheus text exposition: admission counters
//!   and high-water gauges ([`sparta_obs::ServerSnapshot`]), the
//!   per-query stage latency histograms
//!   ([`sparta_obs::StageSnapshot`]), and — when the scheduler's pool
//!   is instrumented — the aggregated executor snapshot.
//! * `GET /healthz` — liveness: `200 ok` whenever the listener answers.
//! * `GET /readyz` — readiness: `200` only between "accept loops are
//!   live" and "shutdown/drain began"; `503` otherwise, so a load
//!   balancer stops routing before in-flight queries are cut off.
//! * `GET /debug/trace` — Chrome trace-event JSON of the flight
//!   recorder rings (open in `chrome://tracing` / Perfetto).
//! * `GET /debug/slow` — the slow-query log as JSON.
//! * `GET /debug/profile` — deterministic aggregate profile folded
//!   from the flight-recorder rings (utilization breakdown, per-phase
//!   self time) as JSON; `?format=collapsed` returns
//!   the flamegraph-collapsed text rendering instead.
//! * `GET /debug/history` — the bounded metrics-history ring as JSON
//!   (periodic `ServerSnapshot`/`StageSnapshot`/`ExecSnapshot` samples
//!   with exact overwrite accounting).
//!
//! The protocol support is deliberately minimal — request line + headers
//! are read, only `GET` and the path matter, every response closes the
//! connection (`Connection: close`, HTTP/1.0 semantics). That keeps the
//! entire admin plane inside std TCP: no HTTP dependency enters the
//! workspace for the sake of five read-only routes.
//!
//! Error paths are first-class: malformed request lines get `400`,
//! unknown paths `404`, request heads larger than
//! [`MAX_REQUEST_BYTES`] get `431` followed by a bounded lingering
//! close (the rest of the oversized head is read and discarded, so the
//! kernel does not reset the connection under the client before it has
//! read the answer), and a client that vanishes mid-response only
//! costs the handler thread a failed write. Handlers poll the server's
//! stop flag on read timeouts, so admin connections never outlive
//! shutdown.

use crate::scheduler::BatchScheduler;
use crate::server::POLL_INTERVAL;
use sparta_obs::{
    chrome_trace_string, exec_snapshot_text, profile_recorder, server_snapshot_text,
    stage_snapshot_text, MetricsHistory,
};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Upper bound on an admin request head (request line + headers). A
/// request that exceeds this without completing is answered `431` and
/// dropped — the admin plane never buffers unbounded client input.
pub const MAX_REQUEST_BYTES: usize = 4096;

/// How many consecutive read-timeout polls a handler tolerates while
/// waiting for the request head before giving up on the connection
/// (mirrors the data-plane's mid-frame bound: an admin client that
/// opens a socket and sends nothing cannot pin a thread forever).
const REQUEST_TIMEOUT_POLLS: usize = 200;

/// Upper bound on what a handler reads and discards after answering
/// `431`. A client still sending past this is cut off (and may see a
/// reset instead of the answer); the admin plane never waits on, or
/// reads, unbounded input.
const MAX_DISCARD_BYTES: usize = 16 * MAX_REQUEST_BYTES;

/// Shared state the admin handlers read. Everything is either atomic
/// or behind the scheduler's own synchronization; handlers never block
/// the data plane.
pub(crate) struct AdminState {
    pub(crate) scheduler: Arc<BatchScheduler>,
    /// True once the accept loops are live; cleared by drain/shutdown.
    pub(crate) ready: Arc<AtomicBool>,
    pub(crate) stop: Arc<AtomicBool>,
    /// The metrics-history ring the background sampler feeds; `None`
    /// when the server runs without an admin plane.
    pub(crate) history: Option<Arc<MetricsHistory>>,
}

/// Serves one admin connection: read the request head, route, answer,
/// close.
pub(crate) fn handle_admin_connection(stream: TcpStream, state: &AdminState) {
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let _ = stream.set_nodelay(true);
    let mut reader = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut writer = stream;
    let head = match read_request_head(&mut reader, &state.stop) {
        Ok(h) => h,
        Err(ReadError::Oversized) => {
            write_response(
                &mut writer,
                431,
                "Request Header Fields Too Large",
                "text/plain",
                "request head exceeds 4096 bytes\n",
            );
            discard_rest_of_request(&mut reader, &state.stop);
            return;
        }
        // Stop, EOF before a full request, or a dead socket: nothing
        // useful to answer.
        Err(ReadError::Gone) => return,
    };
    let Some((method, path)) = parse_request_line(&head) else {
        write_response(
            &mut writer,
            400,
            "Bad Request",
            "text/plain",
            "malformed request line\n",
        );
        return;
    };
    if method != "GET" {
        write_response(
            &mut writer,
            405,
            "Method Not Allowed",
            "text/plain",
            "only GET is supported\n",
        );
        return;
    }
    let (status, reason, ctype, body) = route(&path, state);
    write_response(&mut writer, status, reason, ctype, &body);
}

enum ReadError {
    /// Head grew past [`MAX_REQUEST_BYTES`] without completing.
    Oversized,
    /// EOF / error / stop before a complete request arrived.
    Gone,
}

/// Reads the next bytes the client sent into `chunk`, polling through
/// read timeouts. `None` once nothing more is coming: EOF, a dead
/// socket, [`REQUEST_TIMEOUT_POLLS`] idle polls in a row, or server
/// stop.
fn read_more(reader: &mut TcpStream, stop: &AtomicBool, chunk: &mut [u8]) -> Option<usize> {
    let mut idle_polls = 0usize;
    loop {
        // ordering: Acquire pairs with the Release store in (model: server_lifecycle)
        // stop_and_join; a stopping server abandons pending reads.
        if stop.load(Ordering::Acquire) {
            return None;
        }
        match reader.read(chunk) {
            Ok(0) => return None,
            Ok(n) => return Some(n),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                idle_polls += 1;
                if idle_polls > REQUEST_TIMEOUT_POLLS {
                    return None;
                }
            }
            Err(_) => return None,
        }
    }
}

/// Reads until the end of the request head (blank line) or the first
/// full request line, whichever lets us route. Bounded by
/// [`MAX_REQUEST_BYTES`] and [`REQUEST_TIMEOUT_POLLS`].
fn read_request_head(reader: &mut TcpStream, stop: &AtomicBool) -> Result<String, ReadError> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 512];
    loop {
        // The request line is enough to route; the head ends at the
        // blank line but we don't need to wait for it.
        if buf.contains(&b'\n') {
            return String::from_utf8(buf).map_err(|_| ReadError::Gone);
        }
        if buf.len() >= MAX_REQUEST_BYTES {
            return Err(ReadError::Oversized);
        }
        let n = read_more(reader, stop, &mut chunk).ok_or(ReadError::Gone)?;
        buf.extend_from_slice(&chunk[..n.min(MAX_REQUEST_BYTES + 1 - buf.len())]);
    }
}

/// The lingering half of a rejecting close. The answer is already
/// written and the write side shut; closing now, with the client's
/// unread bytes still queued (or still arriving), makes the kernel
/// reset the connection, which can fail the client's write or discard
/// the answer before the client reads it. So read and drop what the
/// client sends until it finishes, [`read_more`] gives up, or
/// [`MAX_DISCARD_BYTES`] have gone by.
fn discard_rest_of_request(reader: &mut TcpStream, stop: &AtomicBool) {
    let mut chunk = [0u8; 512];
    let mut discarded = 0usize;
    while discarded < MAX_DISCARD_BYTES {
        match read_more(reader, stop, &mut chunk) {
            Some(n) => discarded += n,
            None => return,
        }
    }
}

/// Parses `"GET /path HTTP/1.x"` into `(method, path)`. `None` on any
/// shape violation.
fn parse_request_line(head: &str) -> Option<(String, String)> {
    let line = head.lines().next()?;
    let mut parts = line.split_whitespace();
    let method = parts.next()?;
    let path = parts.next()?;
    let version = parts.next()?;
    if parts.next().is_some() || !version.starts_with("HTTP/") || !path.starts_with('/') {
        return None;
    }
    Some((method.to_string(), path.to_string()))
}

/// Routes a GET. Returns `(status, reason, content-type, body)`. The
/// query string (everything past the first `?`) only matters to
/// `/debug/profile`, which accepts `format=collapsed`.
fn route(path: &str, state: &AdminState) -> (u16, &'static str, &'static str, String) {
    let (path, query) = path.split_once('?').map_or((path, ""), |(p, q)| (p, q));
    match path {
        "/metrics" => (200, "OK", "text/plain; version=0.0.4", metrics_body(state)),
        "/healthz" => (200, "OK", "text/plain", "ok\n".to_string()),
        "/readyz" => {
            // ordering: Acquire pairs with the Release store in (model: server_lifecycle)
            // stop_and_join / drain; readiness must observe them.
            let ready = state.ready.load(Ordering::Acquire) && !state.stop.load(Ordering::Acquire);
            if ready {
                (200, "OK", "text/plain", "ready\n".to_string())
            } else {
                (
                    503,
                    "Service Unavailable",
                    "text/plain",
                    "not ready\n".to_string(),
                )
            }
        }
        "/debug/trace" => match state.scheduler.recorder() {
            Some(rec) => (200, "OK", "application/json", chrome_trace_string(rec)),
            None => (
                404,
                "Not Found",
                "text/plain",
                "no flight recorder attached\n".to_string(),
            ),
        },
        "/debug/slow" => (
            200,
            "OK",
            "application/json",
            state.scheduler.slow_log().to_json().to_pretty_string(2),
        ),
        "/debug/profile" => match state.scheduler.recorder() {
            Some(rec) => {
                let profile = profile_recorder(rec);
                if query.split('&').any(|kv| kv == "format=collapsed") {
                    (200, "OK", "text/plain", profile.to_collapsed())
                } else {
                    (
                        200,
                        "OK",
                        "application/json",
                        profile.to_json().to_pretty_string(2),
                    )
                }
            }
            None => (
                404,
                "Not Found",
                "text/plain",
                "no flight recorder attached\n".to_string(),
            ),
        },
        "/debug/history" => match &state.history {
            Some(history) => (
                200,
                "OK",
                "application/json",
                history.to_json().to_pretty_string(2),
            ),
            None => (
                404,
                "Not Found",
                "text/plain",
                "no metrics history attached\n".to_string(),
            ),
        },
        _ => (404, "Not Found", "text/plain", format!("no route {path}\n")),
    }
}

/// The `/metrics` exposition: admission + stage histograms, plus the
/// executor snapshot when the pool is instrumented, the flight
/// recorder's loss counters when one is attached, and the compressed
/// backend's decode counters when the index reports [`IoStats`]
/// decode activity.
///
/// [`IoStats`]: sparta_index::IoStats
fn metrics_body(state: &AdminState) -> String {
    use std::fmt::Write as _;
    let metrics = state.scheduler.admission().metrics();
    let mut out = server_snapshot_text(&metrics.snapshot());
    out.push_str(&stage_snapshot_text(&metrics.stages.snapshot()));
    if let Some(exec) = state.scheduler.exec_metrics() {
        out.push_str(&exec_snapshot_text("pool", &exec.snapshot()));
    }
    if let Some(rec) = state.scheduler.recorder() {
        let _ = write!(
            out,
            "# HELP sparta_recorder_dropped_events_total Flight-recorder events overwritten before any reader saw them.\n\
             # TYPE sparta_recorder_dropped_events_total counter\n\
             sparta_recorder_dropped_events_total {}\n\
             # HELP sparta_recorder_skipped_reads_total Ring slots skipped by readers because a seqlock torn read was detected.\n\
             # TYPE sparta_recorder_skipped_reads_total counter\n\
             sparta_recorder_skipped_reads_total {}\n",
            rec.dropped_events(),
            rec.skipped_reads(),
        );
    }
    if let Some(io) = state.scheduler.index().io_stats() {
        let (blocks_decoded, compressed_bytes) = io.decode_snapshot();
        let _ = write!(
            out,
            "# HELP sparta_index_blocks_decoded_total Compressed posting blocks decoded.\n\
             # TYPE sparta_index_blocks_decoded_total counter\n\
             sparta_index_blocks_decoded_total {blocks_decoded}\n\
             # HELP sparta_index_compressed_bytes_total Compressed bytes moved through the block decoder.\n\
             # TYPE sparta_index_compressed_bytes_total counter\n\
             sparta_index_compressed_bytes_total {compressed_bytes}\n",
        );
    }
    out
}

/// Writes a complete HTTP/1.0 response. Write errors are swallowed —
/// a client that hung up mid-response costs nothing but this handler.
fn write_response(writer: &mut TcpStream, status: u16, reason: &str, ctype: &str, body: &str) {
    let head = format!(
        "HTTP/1.0 {status} {reason}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = writer
        .write_all(head.as_bytes())
        .and_then(|()| writer.write_all(body.as_bytes()))
        .and_then(|()| writer.flush());
    let _ = writer.shutdown(std::net::Shutdown::Write);
}

/// Minimal HTTP/1.0 GET client for the admin plane — used by the bench
/// harness's scraper, the CI smoke job, and tests. Returns the status
/// code and the response body.
pub fn http_get(addr: SocketAddr, path: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true).ok();
    stream.write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes())?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .or_else(|| raw.split_once("\n\n"))
        .ok_or_else(|| std::io::Error::new(ErrorKind::InvalidData, "no header/body separator"))?;
    let status_line = head.lines().next().unwrap_or_default();
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| std::io::Error::new(ErrorKind::InvalidData, "bad status line"))?;
    Ok((status, body.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_line_parses_and_rejects() {
        assert_eq!(
            parse_request_line("GET /metrics HTTP/1.0\r\n"),
            Some(("GET".to_string(), "/metrics".to_string()))
        );
        assert_eq!(
            parse_request_line("GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n"),
            Some(("GET".to_string(), "/metrics".to_string()))
        );
        assert!(parse_request_line("\r\n").is_none(), "empty line");
        assert!(parse_request_line("GET /x\r\n").is_none(), "no version");
        assert!(
            parse_request_line("GET metrics HTTP/1.0\r\n").is_none(),
            "path must be absolute"
        );
        assert!(
            parse_request_line("GET /x HTTP/1.0 extra\r\n").is_none(),
            "trailing tokens"
        );
        assert!(
            parse_request_line("GET /x FTP/1.0\r\n").is_none(),
            "not HTTP"
        );
    }
}
