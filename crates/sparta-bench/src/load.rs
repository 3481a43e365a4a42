//! Latency-under-load: the open-loop harness that drives the query
//! server's admission controller across offered-QPS levels.
//!
//! Two modes share one report shape:
//!
//! * **Simulated** ([`run_load_sim`]) — an event-driven simulation on
//!   a virtual nanosecond timeline. Arrivals come from a seeded
//!   [`ArrivalProcess`]; each admitted query "runs" for a seeded
//!   service time; the *real* [`AdmissionController`] makes every
//!   admit/queue/shed decision, so its accounting and FIFO grant
//!   policy are what the curves measure. No wall clock anywhere:
//!   the same seed yields a byte-identical report on any machine.
//! * **TCP** ([`run_load_tcp`]) — the same arrival schedule paced in
//!   real time against a live [`sparta_server`] instance over
//!   loopback, measuring true end-to-end latency (not reproducible
//!   byte-for-byte; CI validates its schema, not its bytes). When the
//!   server exposes an admin port, the harness scrapes `/metrics` at
//!   every sweep boundary and folds the server-side truth — admission
//!   counters, queue high-water, per-stage latency totals — into the
//!   report as a [`ServerScrape`], cross-checking that every scraped
//!   counter is monotone across the sweep.
//!
//! Each level reports p50/p99/p999 latency, the admission counters
//! (accepted/queued/shed/abandoned/completed), and a queue-depth
//! series — the "latency-under-load curve" of the service writeup.
//!
//! Every report closes with a **saturation analysis**
//! ([`SaturationReport`]): the knee — the lowest offered QPS whose p99
//! exceeds the latency budget — plus the in-flight utilization and the
//! dominant wait class at that level, so a sweep answers not just
//! "where does it fall over" but "what it was waiting on when it did".

use crate::arrival::{ArrivalProcess, SplitMix64};
use sparta_obs::json::Json;
use sparta_obs::{percentile, ServerSnapshot};
use sparta_server::admission::{AdmissionConfig, AdmissionController, Permit, QueueSlot, TryAdmit};
use sparta_server::protocol::{Frame, QueryRequest};
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;
use std::time::Duration;

/// Default p99 budget for knee detection, in milliseconds. Chosen so
/// the default simulated sweep (2 ms mean service, 2000 qps capacity)
/// stays inside the budget at 200 qps and blows through it at 5000.
pub const DEFAULT_LATENCY_BUDGET_MS: f64 = 10.0;

/// Parameters shared by every level of one load run.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Offered rates to sweep (queries per second).
    pub qps_levels: Vec<f64>,
    /// Queries offered per level.
    pub queries_per_level: usize,
    /// Burst size; `None` = Poisson arrivals.
    pub burst_size: Option<usize>,
    /// Root seed; each level derives its own stream from it.
    pub seed: u64,
    /// Admission limits.
    pub admission: AdmissionConfig,
    /// Mean simulated service time per query, nanoseconds (sim mode).
    pub service_ns: u64,
    /// p99 budget (milliseconds) the saturation analysis detects the
    /// knee against.
    pub latency_budget_ms: f64,
}

impl Default for LoadConfig {
    fn default() -> Self {
        Self {
            // Sweep from well under to well over the simulated
            // capacity (max_in_flight / service_time = 2000 qps), so
            // the curve shows the knee and the shedding regime.
            qps_levels: vec![200.0, 1000.0, 5000.0],
            queries_per_level: 200,
            burst_size: None,
            seed: 0x5EED_10AD,
            admission: AdmissionConfig::new(4, 16),
            service_ns: 2_000_000,
            latency_budget_ms: DEFAULT_LATENCY_BUDGET_MS,
        }
    }
}

impl LoadConfig {
    /// The arrival process at `qps`.
    pub fn process(&self, qps: f64) -> ArrivalProcess {
        match self.burst_size {
            Some(burst_size) => ArrivalProcess::Burst { qps, burst_size },
            None => ArrivalProcess::Poisson { qps },
        }
    }
}

/// Measurements for one offered-QPS level.
#[derive(Debug, Clone)]
pub struct LoadLevel {
    /// Offered rate this level was driven at.
    pub offered_qps: f64,
    /// Queries offered.
    pub offered: u64,
    /// Admission counters over this level (delta, not cumulative).
    pub snapshot: ServerSnapshot,
    /// Completed-query latencies in nanoseconds, sorted ascending.
    pub latencies_ns: Vec<u64>,
    /// `(t_ns, depth)` whenever the wait-queue depth changed.
    pub queue_depth: Vec<(u64, u64)>,
}

/// One stage's scraped totals from the admin `/metrics` exposition.
#[derive(Debug, Clone)]
pub struct StageStat {
    /// Stage label (`admission_wait`, …) or `end_to_end`.
    pub stage: String,
    /// Scraped `_count` — completed queries measured in this stage.
    pub count: u64,
    /// Scraped `_sum` — total nanoseconds spent in this stage.
    pub sum_ns: u64,
}

/// Server-side truth scraped from the admin `/metrics` endpoint at the
/// end of a TCP sweep — the cross-check that client-observed load and
/// server-recorded load tell the same story.
#[derive(Debug, Clone)]
pub struct ServerScrape {
    /// Successful scrapes over the sweep (boundaries + final).
    pub scrapes: u64,
    /// Whether every monotone series (`*_total`, `*_sum`, `*_count`,
    /// `*_bucket`) was non-decreasing across consecutive scrapes.
    pub monotone: bool,
    /// Admission counters the sweep added: the final scrape less the
    /// first (highwaters as of the final scrape).
    pub snapshot: ServerSnapshot,
    /// Per-stage latency totals the sweep added, likewise.
    pub stages: Vec<StageStat>,
}

impl ServerScrape {
    /// Serializes the scrape (the load block's `"server"` field).
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("scrapes", self.scrapes)
            .with("monotone", self.monotone)
            .with("attempts", self.snapshot.attempts())
            .with("accepted", self.snapshot.accepted)
            .with("queued", self.snapshot.queued)
            .with("shed", self.snapshot.shed)
            .with("abandoned", self.snapshot.abandoned)
            .with("completed", self.snapshot.completed)
            .with("queue_depth_highwater", self.snapshot.queue_depth_highwater)
            .with("in_flight_highwater", self.snapshot.in_flight_highwater)
            .with(
                "stages",
                Json::Arr(
                    self.stages
                        .iter()
                        .map(|s| {
                            Json::obj()
                                .with("stage", s.stage.as_str())
                                .with("count", s.count)
                                .with("sum_ns", s.sum_ns)
                        })
                        .collect(),
                ),
            )
    }
}

/// The saturation verdict of one sweep: where the latency budget was
/// first exceeded and what the service was doing there.
#[derive(Debug, Clone)]
pub struct SaturationReport {
    /// The p99 budget the knee was detected against, milliseconds.
    pub latency_budget_ms: f64,
    /// Whether any level's p99 exceeded the budget.
    pub knee_detected: bool,
    /// Lowest offered QPS whose p99 exceeded the budget; when no level
    /// did, the highest offered QPS swept (the knee lies beyond it).
    pub knee_qps: f64,
    /// p99 at the knee level, milliseconds.
    pub knee_p99_ms: f64,
    /// Dominant wait class at the knee: the stage with the largest
    /// scraped time total (`admission_wait` / `queue_wait` / `execute`
    /// / `response_write`) in TCP mode, the queueing-vs-service split
    /// in sim mode, `"unknown"` when neither source is available.
    pub dominant_wait: String,
    /// `in_flight_highwater / max_in_flight` at the knee level — 1.0
    /// means the pool's concurrency budget was fully used.
    pub in_flight_utilization: f64,
}

impl SaturationReport {
    /// Serializes the analysis (the load block's `"saturation"` field).
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("latency_budget_ms", self.latency_budget_ms)
            .with("knee_detected", self.knee_detected)
            .with("knee_qps", self.knee_qps)
            .with("knee_p99_ms", self.knee_p99_ms)
            .with("dominant_wait", self.dominant_wait.as_str())
            .with("in_flight_utilization", self.in_flight_utilization)
    }
}

/// A nanosecond latency in milliseconds.
fn ns_to_ms(ns: u64) -> f64 {
    Duration::from_nanos(ns).as_secs_f64() * 1e3
}

/// p99 of a sorted nanosecond latency series, in milliseconds.
fn p99_ms(latencies_ns: &[u64]) -> f64 {
    ns_to_ms(percentile(latencies_ns, 0.99))
}

/// Detects the knee and characterizes the service there.
///
/// The knee is the lowest offered QPS whose p99 exceeds
/// `budget_ms` (levels are scanned in sweep order, which the harness
/// drives in ascending offered rate). When every level stays inside
/// the budget, the analysis reports the last level with
/// `knee_detected: false` — the best statement the sweep supports is
/// "the knee lies beyond the highest rate offered".
///
/// Wait-class attribution prefers server-side truth: with an admin
/// scrape, the stage whose scraped time total dominates names the
/// class (sweep-cumulative — per-level stage deltas are not scraped).
/// In sim mode the split is exact per level: total latency minus the
/// completed queries' expected service time is time spent queued.
pub fn analyze_saturation(
    levels: &[LoadLevel],
    max_in_flight: u64,
    service_ns: u64,
    budget_ms: f64,
    server: Option<&ServerScrape>,
) -> Option<SaturationReport> {
    let knee = levels
        .iter()
        .find(|level| p99_ms(&level.latencies_ns) > budget_ms);
    let detected = knee.is_some();
    let level = knee.or_else(|| levels.last())?;
    let dominant_wait = match server {
        Some(scrape) => scrape
            .stages
            .iter()
            .filter(|s| s.stage != "end_to_end")
            .max_by_key(|s| s.sum_ns)
            .map_or_else(|| "unknown".to_string(), |s| s.stage.clone()),
        None if service_ns > 0 => {
            let total: u64 = level.latencies_ns.iter().sum();
            let exec = level.snapshot.completed * service_ns;
            if total.saturating_sub(exec) > exec {
                "queue_wait".to_string()
            } else {
                "execute".to_string()
            }
        }
        None => "unknown".to_string(),
    };
    Some(SaturationReport {
        latency_budget_ms: budget_ms,
        knee_detected: detected,
        knee_qps: level.offered_qps,
        knee_p99_ms: p99_ms(&level.latencies_ns),
        dominant_wait,
        in_flight_utilization: if max_in_flight == 0 {
            0.0
        } else {
            level.snapshot.in_flight_highwater as f64 / max_in_flight as f64
        },
    })
}

/// One full load run: every level plus the knobs that produced it.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// "poisson" or "burst".
    pub arrival: String,
    /// "sim" or "tcp".
    pub mode: String,
    /// Root seed.
    pub seed: u64,
    /// Mean service time (sim mode; 0 for tcp).
    pub service_ns: u64,
    /// In-flight budget the controller enforced.
    pub max_in_flight: u64,
    /// Wait-queue capacity.
    pub queue_capacity: u64,
    /// Per-level measurements, in sweep order.
    pub levels: Vec<LoadLevel>,
    /// Admin-endpoint scrape results (TCP mode with an admin port;
    /// `None` in sim mode, keeping sim reports byte-identical).
    pub server: Option<ServerScrape>,
    /// Saturation analysis over the sweep (`None` only for an empty
    /// sweep).
    pub saturation: Option<SaturationReport>,
}

fn latency_block(latencies_ns: &[u64]) -> Json {
    let mean = if latencies_ns.is_empty() {
        Duration::ZERO
    } else {
        latencies_ns
            .iter()
            .map(|&n| Duration::from_nanos(n))
            .sum::<Duration>()
            / latencies_ns.len() as u32
    };
    Json::obj()
        .with("count", latencies_ns.len() as u64)
        .with("mean", mean.as_secs_f64() * 1e3)
        .with("p50", ns_to_ms(percentile(latencies_ns, 0.50)))
        .with("p99", ns_to_ms(percentile(latencies_ns, 0.99)))
        .with("p999", ns_to_ms(percentile(latencies_ns, 0.999)))
}

impl LoadLevel {
    /// Serializes the level.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("offered_qps", self.offered_qps)
            .with("offered", self.offered)
            .with("accepted", self.snapshot.accepted)
            .with("queued", self.snapshot.queued)
            .with("shed", self.snapshot.shed)
            .with("abandoned", self.snapshot.abandoned)
            .with("completed", self.snapshot.completed)
            .with("queue_depth_highwater", self.snapshot.queue_depth_highwater)
            .with("in_flight_highwater", self.snapshot.in_flight_highwater)
            .with("latency_ms", latency_block(&self.latencies_ns))
            .with(
                "queue_depth",
                Json::Arr(
                    self.queue_depth
                        .iter()
                        .map(|&(t, d)| Json::obj().with("ns", t).with("depth", d))
                        .collect(),
                ),
            )
    }
}

impl LoadReport {
    /// Serializes the run (the report's `"load"` block).
    pub fn to_json(&self) -> Json {
        let mut obj = Json::obj()
            .with("arrival", self.arrival.as_str())
            .with("mode", self.mode.as_str())
            .with("seed", self.seed)
            .with("service_ns", self.service_ns)
            .with("max_in_flight", self.max_in_flight)
            .with("queue_capacity", self.queue_capacity);
        if let Some(server) = &self.server {
            obj = obj.with("server", server.to_json());
        }
        if let Some(saturation) = &self.saturation {
            obj = obj.with("saturation", saturation.to_json());
        }
        obj.with(
            "levels",
            Json::Arr(self.levels.iter().map(LoadLevel::to_json).collect()),
        )
    }
}

/// Seeded service time: mean `base_ns`, uniform in `[0.5, 1.5) × base`.
fn service_time(base_ns: u64, rng: &mut SplitMix64) -> u64 {
    let jitter = 0.5 + rng.next_f64();
    ((base_ns as f64 * jitter) as u64).max(1)
}

/// Simulates one offered-QPS level against a real admission
/// controller on a virtual timeline. Deterministic in `(cfg, qps,
/// level_seed)`.
fn run_level_sim(cfg: &LoadConfig, qps: f64, level_seed: u64) -> LoadLevel {
    let n = cfg.queries_per_level;
    let ctrl = AdmissionController::new(cfg.admission, sparta_obs::ServerMetrics::new());
    let arrivals = cfg.process(qps).schedule(n, level_seed);
    let mut service_rng = SplitMix64::new(level_seed ^ 0x5EE6_F00D);
    let service: Vec<u64> = (0..n)
        .map(|_| service_time(cfg.service_ns, &mut service_rng))
        .collect();

    // Virtual-time event loop. Completions sort by (time, index) via
    // `Reverse` in a max-heap, so ties resolve deterministically; a
    // completion at time t is processed before an arrival at t (slots
    // free up first, which is what a real scheduler's release→accept
    // ordering does).
    let mut completions: BinaryHeap<std::cmp::Reverse<(u64, usize)>> = BinaryHeap::new();
    let mut permits: Vec<Option<Permit>> = (0..n).map(|_| None).collect();
    let mut waiting: VecDeque<(usize, QueueSlot)> = VecDeque::new();
    let mut latencies: Vec<u64> = Vec::new();
    let mut depth_series: Vec<(u64, u64)> = Vec::new();
    let mut last_depth = u64::MAX;

    let record_depth =
        |t: u64, ctrl: &Arc<AdmissionController>, series: &mut Vec<(u64, u64)>, last: &mut u64| {
            let d = ctrl.queue_depth() as u64;
            if d != *last {
                series.push((t, d));
                *last = d;
            }
        };

    let mut next = 0usize;
    while next < n || !completions.is_empty() {
        let arrival_next = arrivals.get(next).copied();
        let completion_next = completions.peek().map(|r| r.0 .0);
        let take_completion = match (arrival_next, completion_next) {
            (Some(a), Some(c)) => c <= a,
            (None, Some(_)) => true,
            (Some(_), None) => false,
            (None, None) => unreachable!("loop condition"),
        };
        if take_completion {
            let std::cmp::Reverse((t, idx)) = completions.pop().expect("peeked");
            permits[idx] = None; // drop → release slot, grant queue head
            latencies.push(t - arrivals[idx]);
            // Exactly one grant can have happened; the FIFO head is
            // the grantee if anyone was waiting.
            if let Some((widx, slot)) = waiting.pop_front() {
                match slot.try_claim() {
                    Ok(p) => {
                        permits[widx] = Some(p);
                        completions.push(std::cmp::Reverse((t + service[widx], widx)));
                    }
                    Err(slot) => waiting.push_front((widx, slot)),
                }
            }
            record_depth(t, &ctrl, &mut depth_series, &mut last_depth);
        } else {
            let t = arrival_next.expect("take_completion is false");
            match ctrl.try_admit() {
                TryAdmit::Admitted(p) => {
                    permits[next] = Some(p);
                    completions.push(std::cmp::Reverse((t + service[next], next)));
                }
                TryAdmit::Queued(slot) => waiting.push_back((next, slot)),
                TryAdmit::Shed => {}
            }
            record_depth(t, &ctrl, &mut depth_series, &mut last_depth);
            next += 1;
        }
    }
    assert!(waiting.is_empty(), "every queued query must drain");
    latencies.sort_unstable();
    let snapshot = ctrl.metrics().snapshot();

    LoadLevel {
        offered_qps: qps,
        offered: n as u64,
        snapshot,
        latencies_ns: latencies,
        queue_depth: depth_series,
    }
}

/// Runs the full simulated sweep.
pub fn run_load_sim(cfg: &LoadConfig) -> LoadReport {
    let levels: Vec<LoadLevel> = cfg
        .qps_levels
        .iter()
        .enumerate()
        .map(|(i, &qps)| run_level_sim(cfg, qps, cfg.seed.wrapping_add(i as u64)))
        .collect();
    let saturation = analyze_saturation(
        &levels,
        cfg.admission.max_in_flight as u64,
        cfg.service_ns,
        cfg.latency_budget_ms,
        None,
    );
    LoadReport {
        arrival: cfg.process(1.0).label().to_string(),
        mode: "sim".to_string(),
        seed: cfg.seed,
        service_ns: cfg.service_ns,
        max_in_flight: cfg.admission.max_in_flight as u64,
        queue_capacity: cfg.admission.queue_capacity as u64,
        levels,
        server: None,
        saturation,
    }
}

/// The stage labels [`scrape_admin`] extracts, in exposition order.
const SCRAPE_STAGES: [&str; 4] = ["admission_wait", "queue_wait", "execute", "response_write"];

/// Every sample of one `/metrics` exposition: `(series, value)`.
type Samples = Vec<(String, f64)>;

/// One `/metrics` scrape, decoded: the admission snapshot, the stage
/// totals, and every sample (for the monotonicity cross-check).
fn scrape_admin(admin: std::net::SocketAddr) -> Option<(ServerSnapshot, Vec<StageStat>, Samples)> {
    let (status, body) = sparta_server::http_get(admin, "/metrics").ok()?;
    if status != 200 {
        return None;
    }
    let samples = sparta_obs::parse_exposition(&body).ok()?;
    let get = |series: &str| sparta_obs::sample_value(&samples, series).unwrap_or(0.0) as u64;
    let snapshot = ServerSnapshot {
        accepted: get("sparta_server_admission_accepted_total"),
        queued: get("sparta_server_admission_queued_total"),
        shed: get("sparta_server_admission_shed_total"),
        abandoned: get("sparta_server_admission_abandoned_total"),
        completed: get("sparta_server_completed_total"),
        queue_depth_highwater: get("sparta_server_queue_depth_highwater"),
        in_flight_highwater: get("sparta_server_in_flight_highwater"),
    };
    let mut stages: Vec<StageStat> = SCRAPE_STAGES
        .iter()
        .map(|stage| StageStat {
            stage: (*stage).to_string(),
            count: get(&format!(
                "sparta_server_stage_duration_nanoseconds_count{{stage=\"{stage}\"}}"
            )),
            sum_ns: get(&format!(
                "sparta_server_stage_duration_nanoseconds_sum{{stage=\"{stage}\"}}"
            )),
        })
        .collect();
    stages.push(StageStat {
        stage: "end_to_end".to_string(),
        count: get("sparta_server_e2e_duration_nanoseconds_count"),
        sum_ns: get("sparta_server_e2e_duration_nanoseconds_sum"),
    });
    Some((snapshot, stages, samples))
}

/// Whether a series is monotone by construction (counters, histogram
/// sums/counts, cumulative buckets) and thus must never decrease
/// between scrapes of the same live server.
fn is_monotone_series(series: &str) -> bool {
    let name = series.split('{').next().unwrap_or(series);
    ["_total", "_sum", "_count", "_bucket"]
        .iter()
        .any(|suffix| name.ends_with(suffix))
}

/// Scrapes the admin endpoint at sweep boundaries and cross-checks
/// monotonicity between consecutive scrapes.
struct ScrapeState {
    admin: std::net::SocketAddr,
    scrapes: u64,
    monotone: bool,
    prev: Samples,
    /// The first and the latest successful scrape.
    first: Option<(ServerSnapshot, Vec<StageStat>)>,
    last: Option<(ServerSnapshot, Vec<StageStat>)>,
}

impl ScrapeState {
    fn new(admin: std::net::SocketAddr) -> Self {
        Self {
            admin,
            scrapes: 0,
            monotone: true,
            prev: Vec::new(),
            first: None,
            last: None,
        }
    }

    fn scrape(&mut self) {
        let Some((snapshot, stages, samples)) = scrape_admin(self.admin) else {
            // A failed scrape breaks the evidence chain; report it.
            self.monotone = false;
            return;
        };
        self.scrapes += 1;
        for (series, value) in &samples {
            if !is_monotone_series(series) {
                continue;
            }
            if let Some(prev) = sparta_obs::sample_value(&self.prev, series) {
                if *value < prev {
                    self.monotone = false;
                }
            }
        }
        self.prev = samples;
        if self.first.is_none() {
            self.first = Some((snapshot, stages.clone()));
        }
        self.last = Some((snapshot, stages));
    }

    /// What the sweep added: the latest scrape less the first.
    fn finish(self) -> Option<ServerScrape> {
        let ((base, base_stages), (snapshot, stages)) = (self.first?, self.last?);
        let stages = stages
            .into_iter()
            .zip(base_stages)
            .map(|(s, b)| StageStat {
                count: s.count.saturating_sub(b.count),
                sum_ns: s.sum_ns.saturating_sub(b.sum_ns),
                ..s
            })
            .collect();
        Some(ServerScrape {
            scrapes: self.scrapes,
            monotone: self.monotone,
            snapshot: snapshot_delta(&base, &snapshot),
            stages,
        })
    }
}

/// Counter deltas between two snapshots (highwaters carry over as the
/// later absolute value — they cannot be meaningfully diffed).
fn snapshot_delta(before: &ServerSnapshot, after: &ServerSnapshot) -> ServerSnapshot {
    ServerSnapshot {
        accepted: after.accepted.saturating_sub(before.accepted),
        queued: after.queued.saturating_sub(before.queued),
        shed: after.shed.saturating_sub(before.shed),
        abandoned: after.abandoned.saturating_sub(before.abandoned),
        completed: after.completed.saturating_sub(before.completed),
        queue_depth_highwater: after.queue_depth_highwater,
        in_flight_highwater: after.in_flight_highwater,
    }
}

/// Drives one level against a live server over TCP: one connection per
/// query, paced open-loop by the arrival schedule, wall-clock
/// latencies.
fn run_level_tcp(
    addr: std::net::SocketAddr,
    metrics: &Arc<sparta_obs::ServerMetrics>,
    cfg: &LoadConfig,
    qps: f64,
    level_seed: u64,
    requests: &[QueryRequest],
) -> LoadLevel {
    let n = cfg.queries_per_level;
    let arrivals = cfg.process(qps).schedule(n, level_seed);
    let before = metrics.snapshot();
    let start = std::time::Instant::now();
    let handles: Vec<_> = (0..n)
        .map(|i| {
            let offset = Duration::from_nanos(arrivals[i]);
            let req = requests[i % requests.len()].clone();
            std::thread::spawn(move || {
                let mut client = sparta_server::Client::connect(addr).ok()?;
                let now = start.elapsed();
                if offset > now {
                    std::thread::sleep(offset - now);
                }
                let sent = std::time::Instant::now();
                let reply = client.query(&req);
                let latency = sent.elapsed().as_nanos() as u64;
                // The level ends, and the admin plane is scraped, only
                // once the server has recorded this query's stages.
                let _ = client.close();
                matches!(reply, Ok(Frame::Response { .. })).then_some(latency)
            })
        })
        .collect();
    let mut latencies: Vec<u64> = handles
        .into_iter()
        .filter_map(|h| h.join().ok().flatten())
        .collect();
    latencies.sort_unstable();
    LoadLevel {
        offered_qps: qps,
        offered: n as u64,
        snapshot: snapshot_delta(&before, &metrics.snapshot()),
        latencies_ns: latencies,
        // The TCP path has no virtual timeline to sample on; the
        // high-water gauge in the snapshot carries the depth story.
        queue_depth: Vec::new(),
    }
}

/// Runs the full sweep against a live server at `addr`. The first
/// level's schedule runs once beforehand and its results are dropped,
/// so the first measured level does not also pay the server's cold
/// start (first connections, first queries on fresh workers). When
/// `admin` is given, the server's `/metrics` endpoint is scraped after
/// that warm-up and after every level; what the sweep added between
/// the first and the final scrape (plus a sweep-wide monotonicity
/// verdict) lands in [`LoadReport::server`].
pub fn run_load_tcp(
    addr: std::net::SocketAddr,
    metrics: &Arc<sparta_obs::ServerMetrics>,
    cfg: &LoadConfig,
    requests: &[QueryRequest],
    admin: Option<std::net::SocketAddr>,
) -> LoadReport {
    assert!(!requests.is_empty(), "need at least one request template");
    if let Some(&qps) = cfg.qps_levels.first() {
        run_level_tcp(addr, metrics, cfg, qps, cfg.seed, requests);
    }
    let mut scraper = admin.map(ScrapeState::new);
    if let Some(s) = &mut scraper {
        s.scrape();
    }
    let mut levels = Vec::with_capacity(cfg.qps_levels.len());
    for (i, &qps) in cfg.qps_levels.iter().enumerate() {
        levels.push(run_level_tcp(
            addr,
            metrics,
            cfg,
            qps,
            cfg.seed.wrapping_add(i as u64),
            requests,
        ));
        if let Some(s) = &mut scraper {
            s.scrape();
        }
    }
    let server = scraper.and_then(ScrapeState::finish);
    let saturation = analyze_saturation(
        &levels,
        cfg.admission.max_in_flight as u64,
        0,
        cfg.latency_budget_ms,
        server.as_ref(),
    );
    LoadReport {
        arrival: cfg.process(1.0).label().to_string(),
        mode: "tcp".to_string(),
        seed: cfg.seed,
        service_ns: 0,
        max_in_flight: cfg.admission.max_in_flight as u64,
        queue_capacity: cfg.admission.queue_capacity as u64,
        levels,
        server,
        saturation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_accounting_is_exact_per_level() {
        let cfg = LoadConfig::default();
        let report = run_load_sim(&cfg);
        assert_eq!(report.levels.len(), 3);
        for level in &report.levels {
            let s = &level.snapshot;
            assert_eq!(s.attempts(), level.offered, "every arrival accounted");
            assert_eq!(s.accepted, s.completed, "accepted queries all complete");
            assert_eq!(s.abandoned, 0, "sim never abandons");
            assert_eq!(
                level.latencies_ns.len() as u64,
                s.completed,
                "one latency per completion"
            );
        }
        // The overloaded level must actually shed.
        assert!(
            report.levels.last().unwrap().snapshot.shed > 0,
            "5000 qps against 2000 qps capacity must shed"
        );
        // The underloaded level should not.
        assert_eq!(report.levels[0].snapshot.shed, 0);
    }

    #[test]
    fn sim_is_deterministic() {
        let cfg = LoadConfig::default();
        let a = run_load_sim(&cfg);
        let b = run_load_sim(&cfg);
        let aj = a.to_json().to_pretty_string(2);
        let bj = b.to_json().to_pretty_string(2);
        assert_eq!(aj, bj, "same seed must replay byte-identically");
        let mut cfg2 = LoadConfig::default();
        cfg2.seed ^= 1;
        let c = run_load_sim(&cfg2);
        assert_ne!(
            aj,
            c.to_json().to_pretty_string(2),
            "different seed must actually change the run"
        );
    }

    #[test]
    fn saturation_finds_knee_and_wait_class_in_default_sweep() {
        let report = run_load_sim(&LoadConfig::default());
        let sat = report.saturation.expect("non-empty sweep");
        assert!(
            sat.knee_detected,
            "5000 qps against 2000 qps capacity must cross the {} ms p99 budget (saw {:.3} ms)",
            sat.latency_budget_ms, sat.knee_p99_ms
        );
        assert!(
            sat.knee_qps > 200.0,
            "the underloaded level must stay inside the budget"
        );
        assert!(sat.knee_p99_ms > sat.latency_budget_ms);
        assert_eq!(
            sat.dominant_wait, "queue_wait",
            "an overloaded sim knee is queueing, not service time"
        );
        assert!(sat.in_flight_utilization > 0.99, "knee saturates the pool");

        // An unreachable budget pushes the knee beyond the sweep: the
        // analysis reports the last level, undetected.
        let cfg = LoadConfig {
            latency_budget_ms: 1e9,
            ..LoadConfig::default()
        };
        let sat = run_load_sim(&cfg).saturation.expect("non-empty sweep");
        assert!(!sat.knee_detected);
        assert_eq!(sat.knee_qps, 5000.0);
    }

    #[test]
    fn burst_arrivals_queue_deeper_than_poisson() {
        let poisson = LoadConfig {
            qps_levels: vec![1000.0],
            ..LoadConfig::default()
        };
        let mut burst = poisson.clone();
        burst.burst_size = Some(20);
        let p = run_load_sim(&poisson).levels.remove(0);
        let b = run_load_sim(&burst).levels.remove(0);
        assert!(
            b.snapshot.queue_depth_highwater >= p.snapshot.queue_depth_highwater,
            "bursts at the same average rate must not queue shallower (burst {} vs poisson {})",
            b.snapshot.queue_depth_highwater,
            p.snapshot.queue_depth_highwater
        );
    }
}
