//! The TCP frontend: accept loop, per-connection handlers, clean
//! shutdown, and the optional admin plane.
//!
//! One thread accepts connections; each connection gets a handler
//! thread that reads framed requests and answers through the shared
//! [`BatchScheduler`]. Shutdown is cooperative:
//! [`ServerHandle::shutdown`] raises a flag, pokes the accept loop(s)
//! with a throwaway connection, and joins every thread — no detached
//! threads survive, so the stall watchdog stays quiet after a test.
//!
//! Handlers poll the shutdown flag between frames via a short read
//! timeout; an idle connection therefore notices shutdown within
//! [`POLL_INTERVAL`] without any wall-clock dependence in the hot
//! path (this crate is outside the core wall-clock lint scope — the
//! timeout exists only at the transport edge).
//!
//! [`serve_with_admin`] binds a second listener speaking minimal
//! HTTP/1.0 (see [`crate::admin`]) for `/metrics`, `/healthz`,
//! `/readyz`, `/debug/trace`, and `/debug/slow`. Readiness tracks the
//! server lifecycle: `/readyz` answers `200` only after both accept
//! loops are live and flips to `503` the moment [`ServerHandle::drain`]
//! or shutdown begins.
//!
//! Each data-plane request is decomposed into stage latencies: the
//! scheduler times admission/queue/execute
//! ([`BatchScheduler::execute_timed`]), the handler times the response
//! write on the same clock, and [`BatchScheduler::complete`] folds the
//! stages plus the end-to-end interval into the
//! [`StageLatency`](sparta_obs::StageLatency) histograms and the
//! slow-query log.

use crate::admin::{handle_admin_connection, AdminState};
use crate::protocol::{read_frame, write_frame, ErrorCode, Frame, ProtocolError};
use crate::scheduler::BatchScheduler;
use parking_lot::Mutex;
use sparta_obs::{start_sampler, MetricsHistory, SamplerHandle, ServerMetrics};
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How often an idle connection re-checks the shutdown flag.
pub const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// Samples the metrics-history ring keeps before overwriting the
/// oldest (`/debug/history` serves the whole ring).
pub const HISTORY_CAPACITY: usize = 256;

/// How often the background sampler snapshots the metrics registries
/// into the history ring.
pub const SAMPLE_INTERVAL: Duration = Duration::from_millis(100);

/// A running query server. Dropping the handle shuts it down.
pub struct ServerHandle {
    addr: SocketAddr,
    admin_addr: Option<SocketAddr>,
    scheduler: Arc<BatchScheduler>,
    metrics: Arc<ServerMetrics>,
    stop: Arc<AtomicBool>,
    ready: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    admin_accept: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
    history: Option<Arc<MetricsHistory>>,
    sampler: Option<SamplerHandle>,
}

impl ServerHandle {
    /// The bound query address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound admin address, when started via [`serve_with_admin`].
    pub fn admin_addr(&self) -> Option<SocketAddr> {
        self.admin_addr
    }

    /// The admission/scheduling metrics registry.
    pub fn metrics(&self) -> &Arc<ServerMetrics> {
        &self.metrics
    }

    /// The scheduler (exposed so in-process harnesses can bypass TCP).
    pub fn scheduler(&self) -> &Arc<BatchScheduler> {
        &self.scheduler
    }

    /// The metrics-history ring the admin sampler feeds, when started
    /// via [`serve_with_admin`].
    pub fn history(&self) -> Option<&Arc<MetricsHistory>> {
        self.history.as_ref()
    }

    /// Marks the server not-ready (`/readyz` → 503) without stopping
    /// it: the drain step a rolling restart takes before shutdown, so
    /// load balancers stop routing while in-flight queries finish.
    pub fn drain(&self) {
        // ordering: Release publishes the drain; /readyz reads with (model: server_lifecycle)
        // Acquire.
        self.ready.store(false, Ordering::Release);
    }

    /// Stops accepting, wakes every handler, and joins all threads.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        // Stop the metrics sampler first: it only reads registries,
        // but joining it here keeps the no-detached-threads invariant.
        if let Some(sampler) = self.sampler.take() {
            sampler.stop();
        }
        // ordering: Release publishes the drain; /readyz reads with (model: server_lifecycle)
        // Acquire.
        self.ready.store(false, Ordering::Release);
        // ordering: Release publishes the stop request; handlers and (model: server_lifecycle)
        // the accept loops read it with Acquire.
        self.stop.store(true, Ordering::Release);
        // Unblock the accept loops with throwaway connections.
        let _ = TcpStream::connect(self.addr);
        if let Some(admin) = self.admin_addr {
            let _ = TcpStream::connect(admin);
        }
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let Some(h) = self.admin_accept.take() {
            let _ = h.join();
        }
        loop {
            let Some(h) = self.conns.lock().pop() else {
                break;
            };
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.accept.is_some() {
            self.stop_and_join();
        }
    }
}

/// Starts a server bound to `addr` (use `"127.0.0.1:0"` for an
/// ephemeral port) answering queries through `scheduler`.
pub fn serve(addr: &str, scheduler: BatchScheduler) -> std::io::Result<ServerHandle> {
    serve_inner(addr, None, scheduler)
}

/// Like [`serve`], but also binds an admin listener at `admin_addr`
/// serving `/metrics`, `/healthz`, `/readyz`, `/debug/trace`,
/// `/debug/slow`, `/debug/profile`, and `/debug/history` over minimal
/// HTTP/1.0, and starts the metrics-history sampler that feeds
/// `/debug/history`. The bound admin address is available from
/// [`ServerHandle::admin_addr`].
pub fn serve_with_admin(
    addr: &str,
    admin_addr: &str,
    scheduler: BatchScheduler,
) -> std::io::Result<ServerHandle> {
    serve_inner(addr, Some(admin_addr), scheduler)
}

fn serve_inner(
    addr: &str,
    admin_addr: Option<&str>,
    scheduler: BatchScheduler,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let admin_listener = admin_addr.map(TcpListener::bind).transpose()?;
    let admin_local = admin_listener
        .as_ref()
        .map(TcpListener::local_addr)
        .transpose()?;
    let scheduler = Arc::new(scheduler);
    let metrics = Arc::clone(scheduler.admission().metrics());
    let stop = Arc::new(AtomicBool::new(false));
    let ready = Arc::new(AtomicBool::new(false));
    let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

    let accept = {
        let scheduler = Arc::clone(&scheduler);
        let stop = Arc::clone(&stop);
        let conns = Arc::clone(&conns);
        std::thread::Builder::new()
            .name("sparta-accept".to_string())
            .spawn(move || {
                for incoming in listener.incoming() {
                    // ordering: Acquire pairs with the Release store in (model: server_lifecycle)
                    // stop_and_join.
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = incoming else { continue };
                    let scheduler = Arc::clone(&scheduler);
                    let stop = Arc::clone(&stop);
                    let handle = std::thread::Builder::new()
                        .name("sparta-conn".to_string())
                        .spawn(move || handle_connection(stream, &scheduler, &stop))
                        .expect("spawn connection handler");
                    conns.lock().push(handle);
                }
            })?
    };

    // The admin plane gets a metrics-history ring fed by a background
    // sampler that snapshots the admission/stage/executor registries on
    // the scheduler's clock.
    let (history, sampler) = if admin_listener.is_some() {
        let history = MetricsHistory::new(HISTORY_CAPACITY);
        let source_scheduler = Arc::clone(&scheduler);
        let sampler = start_sampler(
            Arc::clone(&history),
            Arc::clone(scheduler.clock()),
            SAMPLE_INTERVAL,
            move || {
                let metrics = source_scheduler.admission().metrics();
                (
                    metrics.snapshot(),
                    metrics.stages.snapshot(),
                    source_scheduler.exec_metrics().map(|m| m.snapshot()),
                )
            },
        );
        (Some(history), Some(sampler))
    } else {
        (None, None)
    };

    let admin_accept = match admin_listener {
        Some(listener) => {
            let state = Arc::new(AdminState {
                scheduler: Arc::clone(&scheduler),
                ready: Arc::clone(&ready),
                stop: Arc::clone(&stop),
                history: history.clone(),
            });
            let stop = Arc::clone(&stop);
            let conns = Arc::clone(&conns);
            Some(
                std::thread::Builder::new()
                    .name("sparta-admin-accept".to_string())
                    .spawn(move || {
                        for incoming in listener.incoming() {
                            // ordering: Acquire pairs with the Release (model: server_lifecycle)
                            // store in stop_and_join.
                            if stop.load(Ordering::Acquire) {
                                break;
                            }
                            let Ok(stream) = incoming else { continue };
                            let state = Arc::clone(&state);
                            let handle = std::thread::Builder::new()
                                .name("sparta-admin-conn".to_string())
                                .spawn(move || handle_admin_connection(stream, &state))
                                .expect("spawn admin handler");
                            conns.lock().push(handle);
                        }
                    })?,
            )
        }
        None => None,
    };

    // ordering: Release publishes readiness after both accept loops (model: server_lifecycle)
    // are spawned; /readyz reads with Acquire.
    ready.store(true, Ordering::Release);

    Ok(ServerHandle {
        addr: local,
        admin_addr: admin_local,
        scheduler,
        metrics,
        stop,
        ready,
        accept: Some(accept),
        admin_accept,
        conns,
        history,
        sampler,
    })
}

/// Serves one connection until EOF, a protocol error, or shutdown.
fn handle_connection(stream: TcpStream, scheduler: &BatchScheduler, stop: &AtomicBool) {
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let _ = stream.set_nodelay(true);
    let mut reader = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut writer = stream;
    loop {
        // ordering: Acquire pairs with the Release store in (model: server_lifecycle)
        // stop_and_join.
        if stop.load(Ordering::Acquire) {
            return;
        }
        match read_frame(&mut reader) {
            Ok(Frame::Request(req)) => {
                let (reply, timing) = scheduler.execute_timed(&req);
                let write_start = scheduler.clock().tick();
                let write_ok = write_frame(&mut writer, &reply).is_ok();
                if let Some(t) = timing {
                    let write_ns = scheduler.clock().tick().saturating_sub(write_start);
                    scheduler.complete(&req, &t, write_ns);
                }
                if !write_ok {
                    return; // client gone
                }
            }
            Ok(_) => {
                // Clients must only send requests.
                let _ = write_frame(
                    &mut writer,
                    &Frame::Error {
                        code: ErrorCode::BadRequest,
                        message: "only Request frames are accepted".to_string(),
                    },
                );
                return;
            }
            Err(ProtocolError::Io(ErrorKind::WouldBlock | ErrorKind::TimedOut)) => {
                // Idle poll tick; loop to re-check the stop flag.
                continue;
            }
            Err(ProtocolError::Closed) => return,
            Err(e) => {
                let _ = write_frame(
                    &mut writer,
                    &Frame::Error {
                        code: ErrorCode::BadRequest,
                        message: e.to_string(),
                    },
                );
                return;
            }
        }
    }
}
