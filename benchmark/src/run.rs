//! One run of one workload: set-up, ground truth, warm-up, then either
//! the end-to-end measurement (`--trace 0`) or the traced per-layer
//! pass (`--trace 1`).
//!
//! Both kinds fit the same `--seconds` budget. End-to-end metrics are
//! only ever taken with tracing off; the traced run spends its budget
//! on slices of the same phases plus the probes, and reports what
//! tracing cost as `trace.overhead_share`.

use crate::phases::{InProcess, Load, OverWire, Runner, Sample, Throughput};
use crate::probes;
use crate::spec::Spec;
use crate::stats;
use crate::trace::{self, Span, Tracer};
use crate::workload::{self, SetUp, Truth, WorkloadDef, K};
use sparta_core::{algorithm_by_name, Algorithm, SearchConfig, WorkStats};
use sparta_exec::{DedicatedExecutor, DeterministicExecutor, Executor, WorkerPool};
use sparta_index::DEFAULT_BLOCK_SIZE;
use sparta_obs::json::Json;
use sparta_obs::{ClockMode, ExecMetrics, ExecSnapshot, FlightRecorder, StageSnapshot};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The six algorithms of the paper's case study, reported as ungated
/// baseline rows so they stay visible.
const CASE_STUDY: [&str; 6] = ["sparta", "pnra", "snra", "pra", "pbmw", "pjass"];

/// Queries of the deterministic count replay. Fixed, so the counts of
/// one seed repeat exactly.
const REPLAY_QUERIES: usize = 24;

/// Repetitions of every micro-probe.
const PROBE_REPS: usize = 9;

/// Events each flight-recorder ring of the observation-cost row keeps;
/// the server's own rings are this size.
const RECORDER_RING: usize = 1 << 12;

#[derive(Debug, Clone, Copy)]
pub struct RunOpts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Threads per query and clients in throughput mode.
    pub threads: usize,
}

/// `T = min(cores, 4)`: the thread budget of every workload.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(4))
}

/// What one run found.
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// Every metric the run's kind must report, by name.
    pub metrics: BTreeMap<String, f64>,
    /// Sample counts, spreads and probe MADs behind the metrics.
    pub detail: Json,
    /// Spans and per-layer self times (traced runs).
    pub trace: Option<Json>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The one-line result object the benchmark contract asks for.
    pub fn summary_json(&self, spec: &Spec, trace: bool) -> Json {
        let metrics = spec.metrics(trace).iter().fold(Json::obj(), |j, m| {
            let value = *self
                .metrics
                .get(&m.name)
                .unwrap_or_else(|| panic!("metric {} was not measured", m.name));
            j.with(
                &m.name,
                Json::obj()
                    .with("value", value)
                    .with("unit", m.unit.as_str()),
            )
        });
        Json::obj()
            .with("correct", self.correct())
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with("metrics", metrics)
    }
}

/// Share `part` of the run's `--seconds`.
fn share(opts: &RunOpts, part: f64) -> Duration {
    Duration::from_secs_f64(opts.seconds * part)
}

fn latencies(samples: &[Sample]) -> Vec<f64> {
    let mut ms: Vec<f64> = samples.iter().map(|s| s.ms).collect();
    stats::sort(&mut ms);
    ms
}

fn failures(samples: &[Sample]) -> u64 {
    samples.iter().filter(|s| !s.ok).count() as u64
}

/// A size field of `/proc/self/status` in MiB.
fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `VmHWM` of this process: the peak resident size since the process
/// began, or since [`reset_peak_rss`].
fn peak_rss_mb() -> f64 {
    status_mb("VmHWM")
}

/// Hands the allocator's free pages back to the kernel. glibc keeps
/// what set-up freed (the corpus, the raw index behind a compressed
/// one) resident and would serve later allocations from it, so without
/// this neither the resident size nor its peak could show memory spent
/// while serving.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
#[allow(unsafe_code)]
fn release_free_memory() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: `malloc_trim` takes no pointer and touches only the
    // allocator's own free lists, under the allocator's locks.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_free_memory() {}

/// Resets `VmHWM` to what is live now (free pages released, then `5`
/// written to `/proc/self/clear_refs`), so a later reading is the peak
/// of what ran in between.
fn reset_peak_rss() {
    release_free_memory();
    if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
        eprintln!("warning: cannot reset VmHWM ({e}): peak_rss_mb will include set-up");
    }
}

/// The pieces of a set-up run the measurement code passes around.
struct Bench<'a> {
    def: &'a WorkloadDef,
    opts: &'a RunOpts,
    setup: &'a SetUp,
    load: Load<'a>,
    algo: Arc<dyn Algorithm>,
    cfg: SearchConfig,
}

impl<'a> Bench<'a> {
    fn in_process(&self, exec: &'a dyn Executor) -> InProcess<'a> {
        InProcess {
            algo: Arc::clone(&self.algo),
            index: Arc::clone(&self.setup.index),
            cfg: self.cfg,
            exec,
        }
    }

    fn over_wire(&self) -> OverWire {
        let server = self.setup.server.as_ref().expect("a served workload");
        OverWire::connect(server.addr(), self.def.algorithm, K).expect("connect to own server")
    }

    /// Latency mode through the workload's entry point.
    fn latency(&self, budget: Duration) -> Vec<Sample> {
        if self.def.served {
            self.load.latency_phase(&mut self.over_wire(), budget)
        } else {
            let exec = DedicatedExecutor::new(self.opts.threads);
            self.load.latency_phase(&mut self.in_process(&exec), budget)
        }
    }

    /// Throughput mode through the workload's entry point: `T` clients
    /// on one shared pool, or on `T` connections to the server. Also
    /// returns what the executor's own metrics saw over the phase.
    fn throughput(
        &self,
        budget: Duration,
        trace_epoch: Option<Instant>,
    ) -> (Throughput, ExecSnapshot) {
        let t = self.opts.threads;
        if let Some(server) = &self.setup.server {
            let metrics = server
                .scheduler()
                .exec_metrics()
                .expect("pool is instrumented");
            let before = metrics.snapshot();
            let runners = (0..t)
                .map(|_| Box::new(self.over_wire()) as Box<dyn Runner>)
                .collect();
            let out = self.load.throughput_phase(runners, budget, trace_epoch);
            (out, exec_delta(&before, &metrics.snapshot()))
        } else {
            // The end-to-end phase runs on a plain pool; only the traced
            // slice pays for the executor's metrics.
            let metrics = trace_epoch.map(|_| ExecMetrics::new(t));
            let pool = match &metrics {
                Some(m) => WorkerPool::instrumented(t, Arc::clone(m)),
                None => WorkerPool::new(t),
            };
            let runners = (0..t)
                .map(|_| Box::new(self.in_process(&pool)) as Box<dyn Runner + '_>)
                .collect();
            let out = self.load.throughput_phase(runners, budget, trace_epoch);
            (out, metrics.map(|m| m.snapshot()).unwrap_or_default())
        }
    }
}

fn exec_delta(before: &ExecSnapshot, after: &ExecSnapshot) -> ExecSnapshot {
    ExecSnapshot {
        workers: after.workers,
        jobs_run: after.jobs_run - before.jobs_run,
        jobs_panicked: after.jobs_panicked - before.jobs_panicked,
        busy_ns: after.busy_ns - before.busy_ns,
        idle_ns: after.idle_ns - before.idle_ns,
        queue_depth_highwater: after.queue_depth_highwater,
        queries_run: after.queries_run - before.queries_run,
        job_ns: Default::default(),
    }
}

/// Runs `def` once. `def` is a parameter (not looked up by name) so
/// tests can run toy-scale copies of the real workloads.
pub fn run_workload(def: &WorkloadDef, opts: &RunOpts) -> RunResult {
    // Set up `def.setups` times; `setup_s` and the stage times are
    // medians, the last set-up serves the run.
    let mut setups = Vec::with_capacity(def.setups);
    let mut setup = workload::set_up(def, opts.seed, opts.threads);
    setups.push(setup.times);
    for _ in 1..def.setups {
        drop(setup);
        setup = workload::set_up(def, opts.seed, opts.threads);
        setups.push(setup.times);
    }
    let stage = |f: fn(&workload::SetupTimes) -> f64| -> f64 {
        stats::median(&setups.iter().map(f).collect::<Vec<_>>())
    };

    // Ground truth: not part of any metric.
    let truths: Vec<Truth> = setup
        .queries
        .iter()
        .map(|q| Truth::compute(setup.index.as_ref(), q))
        .collect();

    // Set-up holds the corpus, the raw index and the serving index at
    // once, which is more than serving ever holds. The two peaks are
    // reported apart, so memory spent while serving (a cache, say)
    // shows in `peak_rss_mb` instead of hiding below the set-up peak.
    let setup_peak_mb = peak_rss_mb();
    reset_peak_rss();
    let serving_start_mb = status_mb("VmRSS");

    let bench = Bench {
        def,
        opts,
        setup: &setup,
        load: Load {
            queries: &setup.queries,
            truths: &truths,
            exact_scores: workload::reports_exact_scores(def.algorithm),
        },
        algo: algorithm_by_name(def.algorithm).expect("a registered algorithm"),
        cfg: SearchConfig::exact(K),
    };

    // Warm-up, untimed: caches fill, lazy set-up finishes, the
    // allocator grows to its working size.
    bench.latency(share(opts, 0.1));

    let mut result = if opts.trace {
        traced_run(&bench)
    } else {
        end_to_end_run(&bench)
    };
    let m = &mut result.metrics;
    if opts.trace {
        m.insert("corpus.synth_s".into(), stage(|t| t.synth_s));
        m.insert("corpus.querylog_s".into(), stage(|t| t.querylog_s));
        m.insert("index.build_s".into(), stage(|t| t.build_s));
        m.insert("index.compress_s".into(), stage(|t| t.compress_s));
        m.insert("setup.peak_rss_mb".into(), setup_peak_mb);
    } else {
        m.insert("setup_s".into(), stage(workload::SetupTimes::total));
    }
    result.detail = result
        .detail
        .with("workload", def.name)
        .with("seed", opts.seed)
        .with("seconds", opts.seconds)
        .with("threads", opts.threads)
        .with("docs", def.docs)
        .with("setups", def.setups)
        .with("setup_peak_rss_mb", setup_peak_mb)
        .with("serving_start_rss_mb", serving_start_mb)
        .with("distinct_queries", setup.queries.len());

    drop(bench);
    if let Some(server) = setup.server.take() {
        server.shutdown();
    }
    if !opts.trace {
        result.metrics.insert("peak_rss_mb".into(), peak_rss_mb());
    }
    result
}

/// `--trace 0`: the latency phase, then the throughput phase.
fn end_to_end_run(b: &Bench<'_>) -> RunResult {
    let lat = b.latency(share(b.opts, 0.6));
    let thr_budget = share(b.opts, 0.4);
    let (thr, _) = b.throughput(thr_budget, None);
    // About one chunk per second, never fewer than three.
    let chunk_qps = thr.chunk_qps((thr_budget.as_secs_f64() as usize).max(3));

    let ms = latencies(&lat);
    // Recall over the first pass of the list only: later passes repeat
    // the same queries.
    let first_pass = &lat[..lat.len().min(b.load.queries.len())];
    let recall_mean =
        first_pass.iter().map(|s| s.recall).sum::<f64>() / first_pass.len().max(1) as f64;
    let footprint = b.setup.index.footprint().map_or(0, |f| f.total());

    let metrics = BTreeMap::from([
        ("latency_p50_ms".to_string(), stats::percentile(&ms, 0.5)),
        ("latency_p95_ms".to_string(), stats::percentile(&ms, 0.95)),
        ("throughput_qps".to_string(), stats::median(&chunk_qps)),
        ("recall_mean".to_string(), recall_mean),
        ("index_bytes".to_string(), footprint as f64),
    ]);
    if !stats::supports(ms.len(), 0.95) {
        eprintln!(
            "warning: {} latency samples do not support p95 (ten samples must lie beyond it)",
            ms.len()
        );
    }
    let detail = Json::obj()
        .with("latency_samples", ms.len())
        .with("latency_p95_supported", stats::supports(ms.len(), 0.95))
        .with("latency_min_ms", ms.first().copied().unwrap_or(0.0))
        .with("latency_max_ms", ms.last().copied().unwrap_or(0.0))
        .with("throughput_samples", thr.samples.len())
        .with(
            "throughput_chunk_qps",
            chunk_qps.iter().map(|&q| Json::F64(q)).collect::<Vec<_>>(),
        );
    RunResult {
        attempted: (lat.len() + thr.samples.len()) as u64,
        failed: failures(&lat) + failures(&thr.samples),
        metrics,
        detail,
        trace: None,
    }
}

/// Counts of the deterministic replay, summed over its queries.
struct Replay {
    queries: usize,
    work: WorkStats,
    /// Σ document frequency of the replayed queries' terms.
    list_postings: u64,
}

/// Replays the first queries single-threaded under a seeded schedule,
/// so every count repeats exactly for a given `--seed`.
fn replay_counts(b: &Bench<'_>) -> Replay {
    let exec = DeterministicExecutor::new(b.opts.seed).with_parallelism(b.opts.threads);
    let mut runner = b.in_process(&exec);
    let n = REPLAY_QUERIES.min(b.load.queries.len());
    let mut work = WorkStats::default();
    let mut list_postings = 0;
    for q in &b.load.queries[..n] {
        let answer = runner.run(q).expect("in-process search returns");
        work.merge(&answer.work);
        list_postings += q
            .terms
            .iter()
            .map(|&t| b.setup.index.doc_freq(t))
            .sum::<u64>();
    }
    Replay {
        queries: n,
        work,
        list_postings,
    }
}

/// Median latency of `algorithm` over the first queries, within a time
/// box; at least three queries so a median exists.
fn algorithm_row(b: &Bench<'_>, algorithm: &str, exec: &dyn Executor, budget: Duration) -> f64 {
    let algo = algorithm_by_name(algorithm).expect("a case-study algorithm");
    let start = Instant::now();
    let mut ms = Vec::new();
    for q in b.load.queries {
        if ms.len() >= 3 && start.elapsed() >= budget {
            break;
        }
        let t0 = Instant::now();
        std::hint::black_box(algo.search(&b.setup.index, q, &b.cfg, exec));
        ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    stats::median(&ms)
}

/// Calls `f(side, i)` for both sides of query `i`, query after query,
/// until the time box closes (at least three queries). Which side goes
/// first alternates, so neither is favoured by the caches the other
/// just warmed or by drift over the run.
fn alternate(budget: Duration, mut f: impl FnMut(bool, usize)) {
    let start = Instant::now();
    let mut i = 0;
    while i < 3 || start.elapsed() < budget {
        let first = i % 2 == 1;
        f(first, i);
        f(!first, i);
        i += 1;
    }
}

/// What observation costs: the same queries alternately on a plain
/// pool and on one carrying the metrics registry and the flight
/// recorder. Returns (share, instrumented pool's snapshot, Σ recycled
/// jobs, queries) — the instrumented side also yields the job counts.
fn observation_cost(b: &Bench<'_>, budget: Duration) -> (f64, ExecSnapshot, u64, u64) {
    let t = b.opts.threads;
    let plain = WorkerPool::new(t);
    let metrics = ExecMetrics::new(t);
    let recorder = FlightRecorder::new(t, RECORDER_RING, ClockMode::Wall);
    let observed = WorkerPool::with_recorder(t, Some(Arc::clone(&metrics)), recorder);
    let mut on_plain = b.in_process(&plain);
    let mut on_observed = b.in_process(&observed);
    let (mut plain_ms, mut observed_ms, mut recycled) = (Vec::new(), Vec::new(), 0);
    alternate(budget, |observe, i| {
        let q = &b.load.queries[i % b.load.queries.len()];
        let runner = if observe {
            &mut on_observed
        } else {
            &mut on_plain
        };
        let t0 = Instant::now();
        let answer = runner.run(q).expect("in-process search returns");
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        if observe {
            observed_ms.push(ms);
            recycled += answer.work.jobs_recycled;
        } else {
            plain_ms.push(ms);
        }
    });
    let share = stats::median(&observed_ms) / stats::median(&plain_ms) - 1.0;
    (
        share,
        metrics.snapshot(),
        recycled,
        observed_ms.len() as u64,
    )
}

fn stage_mean_us(after: u64, before: u64, count: u64) -> f64 {
    (after - before) as f64 / count.max(1) as f64 / 1e3
}

/// `--trace 1`: slices of both phases, traced, the single-thread and
/// baseline rows, the count replay and the probes.
fn traced_run(b: &Bench<'_>) -> RunResult {
    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch, 0);
    let index = &b.setup.index;
    let t = b.opts.threads;
    let stages = || -> Option<StageSnapshot> {
        let server = b.setup.server.as_ref()?;
        Some(server.metrics().stages.snapshot())
    };

    // Every query of the slice runs untraced and traced, in alternating
    // order: the difference is what the harness's own spans cost.
    let stages_before = stages();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    {
        let exec = DedicatedExecutor::new(t);
        let mut runner: Box<dyn Runner + '_> = if b.def.served {
            Box::new(b.over_wire())
        } else {
            Box::new(b.in_process(&exec))
        };
        alternate(share(b.opts, 0.3), |trace, i| {
            if trace {
                traced.push(b.load.one(runner.as_mut(), i, Some(&mut tracer)));
            } else {
                untraced.push(b.load.one(runner.as_mut(), i, None));
            }
        });
    }
    let stages_after = stages();
    let untraced_ms = latencies(&untraced);
    let p50 = stats::percentile(&untraced_ms, 0.5);
    let trace_overhead = stats::percentile(&latencies(&traced), 0.5) / p50 - 1.0;

    // The workload's algorithm alone on one thread, in process.
    let one_thread = DedicatedExecutor::new(1);
    let mut on_one = b.in_process(&one_thread);
    let single = b.load.latency_phase(&mut on_one, share(b.opts, 0.15));
    let search_1t_ms = stats::median(&single.iter().map(|s| s.ms).collect::<Vec<_>>());
    let single_postings: u64 = single.iter().map(|s| s.work.postings_scanned).sum();
    let single_ns: f64 = single.iter().map(|s| s.ms * 1e6).sum();
    // Speed-up over the queries both slices covered, both sides in
    // process: the served workload's `T`-thread side is a slice of its
    // own, so the wire stays out of the ratio.
    let in_process_t = b.def.served.then(|| {
        let exec = DedicatedExecutor::new(t);
        b.load
            .latency_phase(&mut b.in_process(&exec), share(b.opts, 0.05))
    });
    let t_thread = in_process_t.as_deref().unwrap_or(&untraced);
    let both = single.len().min(t_thread.len());
    let speedup = stats::median(&single[..both].iter().map(|s| s.ms).collect::<Vec<_>>())
        / stats::median(&t_thread[..both].iter().map(|s| s.ms).collect::<Vec<_>>());

    // Throughput slice, traced, with the executor's metrics on.
    let (thr, exec) = b.throughput(share(b.opts, 0.15), Some(epoch));

    let (plane_overhead, observed, recycled, observed_queries) =
        observation_cost(b, share(b.opts, 0.1));
    let jobs_per_query = observed.jobs_run as f64 / observed_queries.max(1) as f64;

    let pool = WorkerPool::new(t);
    let row_budget = share(b.opts, 0.15 / CASE_STUDY.len() as f64);
    let rows: Vec<(&str, f64)> = CASE_STUDY
        .iter()
        .map(|&a| (a, algorithm_row(b, a, &pool, row_budget)))
        .collect();
    drop(pool);

    let replay = replay_counts(b);
    let per_query = |n: u64| n as f64 / replay.queries.max(1) as f64;
    // Per-query counts are means over the first queries of the list,
    // so the time they are set against is the single-thread mean over
    // the same queries (the list's latencies are skewed: mean ≠ median).
    let mean_1t_ns = |queries: usize| {
        let covered = &single[..queries.clamp(1, single.len())];
        covered.iter().map(|s| s.ms * 1e6).sum::<f64>() / covered.len() as f64
    };
    let touched = replay.work.postings_scanned + replay.work.random_accesses;

    let terms = probes::probe_terms(index.as_ref(), b.load.queries);
    let mut all_probes = probes::index_probes(index, &terms, b.load.queries);
    all_probes.extend(probes::collections_probes());
    all_probes.extend(probes::exec_probes(t));
    all_probes.extend(probes::server_probes(&b.load.queries[0], t));
    if b.def.served {
        all_probes.push(probes::error_roundtrip_probe(b.over_wire()));
    }
    let probed = probes::run_interleaved(&mut all_probes, PROBE_REPS, &mut tracer);
    drop(all_probes);
    let probe = |name: &str| probed.get(name).map_or(0.0, |p| p.median);

    let mut m: BTreeMap<String, f64> = probed
        .iter()
        .map(|(k, v)| (k.to_string(), v.median))
        .collect();
    let mut put = |name: &str, value: f64| {
        m.insert(name.to_string(), value);
    };
    put(
        "index.bytes_per_posting",
        index.footprint().map_or(0, |f| f.total()) as f64 / b.setup.total_postings.max(1) as f64,
    );
    put(
        "index.blocks_decoded_per_query",
        per_query(replay.work.blocks_decoded),
    );
    put(
        "index.compressed_bytes_per_query",
        per_query(replay.work.compressed_bytes),
    );
    put(
        "index.decode_waste",
        (replay.work.blocks_decoded * DEFAULT_BLOCK_SIZE as u64) as f64 / touched.max(1) as f64,
    );
    put("core.search_1t_ms", search_1t_ms);
    put(
        "core.ns_per_posting",
        single_ns / single_postings.max(1) as f64,
    );
    put("core.speedup_Tt", speedup);
    put(
        "core.postings_scanned_per_query",
        per_query(replay.work.postings_scanned),
    );
    put(
        "core.heap_updates_per_query",
        per_query(replay.work.heap_updates),
    );
    put(
        "core.random_accesses_per_query",
        per_query(replay.work.random_accesses),
    );
    put("core.docmap_peak", replay.work.docmap_peak as f64);
    put(
        "core.cleaner_passes_per_query",
        per_query(replay.work.cleaner_passes),
    );
    put(
        "core.blocks_skipped_per_query",
        per_query(replay.work.blocks_skipped),
    );
    put(
        "core.scan_share",
        replay.work.postings_scanned as f64 / replay.list_postings.max(1) as f64,
    );
    for (algorithm, ms) in &rows {
        put(&format!("core.{algorithm}.query_ms"), *ms);
    }
    put("exec.jobs_per_query", jobs_per_query);
    put(
        "exec.jobs_recycled_share",
        recycled as f64 / observed.jobs_run.max(1) as f64,
    );
    put(
        "exec.busy_share",
        exec.busy_ns as f64 / (exec.busy_ns + exec.idle_ns).max(1) as f64,
    );
    put(
        "exec.queue_depth_highwater",
        exec.queue_depth_highwater as f64,
    );
    let job_roundtrip_ns = probe("exec.job_roundtrip_ns");
    put(
        "exec.overhead_share",
        jobs_per_query * job_roundtrip_ns / mean_1t_ns(observed_queries as usize),
    );
    put("obs.plane_overhead_share", plane_overhead);
    put("trace.overhead_share", trace_overhead);
    put(
        "layers.explained_share",
        (per_query(replay.work.postings_scanned) * probe("index.score_scan_ns_per_posting")
            + per_query(replay.work.random_accesses) * probe("index.probe_sorted_ns")
            + jobs_per_query * job_roundtrip_ns)
            / mean_1t_ns(replay.queries),
    );

    // The server layer is on `served-short`'s path only; elsewhere its
    // time and counts are zero because no query crosses it.
    let server_metrics = [
        "server.error_rtt_us",
        "server.rtt_p99_ms",
        "server.stage_admission_wait_us",
        "server.stage_queue_wait_us",
        "server.stage_execute_us",
        "server.stage_response_write_us",
        "server.wire_overhead_us",
        "server.shed_share",
        "server.in_flight_highwater",
    ];
    if let (Some(server), Some(s0), Some(s1)) = (&b.setup.server, stages_before, stages_after) {
        let n = s1.execute.count - s0.execute.count;
        let execute_us = stage_mean_us(s1.execute.sum, s0.execute.sum, n);
        let slice_ms: Vec<f64> = untraced.iter().chain(&traced).map(|s| s.ms).collect();
        let mean_ms = slice_ms.iter().sum::<f64>() / slice_ms.len().max(1) as f64;
        let counters = server.metrics().snapshot();
        put("server.rtt_p99_ms", stats::percentile(&untraced_ms, 0.99));
        put(
            "server.stage_admission_wait_us",
            stage_mean_us(s1.admission_wait.sum, s0.admission_wait.sum, n),
        );
        put(
            "server.stage_queue_wait_us",
            stage_mean_us(s1.queue_wait.sum, s0.queue_wait.sum, n),
        );
        put("server.stage_execute_us", execute_us);
        put(
            "server.stage_response_write_us",
            stage_mean_us(s1.response_write.sum, s0.response_write.sum, n),
        );
        put("server.wire_overhead_us", mean_ms * 1e3 - execute_us);
        put(
            "server.shed_share",
            counters.shed as f64 / counters.attempts().max(1) as f64,
        );
        put(
            "server.in_flight_highwater",
            counters.in_flight_highwater as f64,
        );
    } else {
        for name in server_metrics {
            put(name, 0.0);
        }
    }

    let mut spans = tracer.into_spans();
    spans.extend(thr.spans);
    let self_ns = trace::self_time_by_layer(&spans);
    let query_spans: Vec<Span> = spans
        .iter()
        .filter(|s| s.query.is_some())
        .cloned()
        .collect();
    let trace_json = Json::obj()
        .with("workload", b.def.name)
        .with("seed", b.opts.seed)
        .with("query_root_ns", trace::root_time(&query_spans))
        .with(
            "query_self_ns_by_layer",
            trace::self_time_by_layer(&query_spans)
                .iter()
                .fold(Json::obj(), |j, (k, &v)| j.with(k, v)),
        )
        .with(
            "self_ns_by_layer",
            self_ns.iter().fold(Json::obj(), |j, (k, &v)| j.with(k, v)),
        )
        .with(
            "spans",
            spans.iter().map(trace::span_json).collect::<Vec<_>>(),
        );

    let probes_json = probed.iter().fold(Json::obj(), |j, (name, p)| {
        j.with(
            name,
            Json::obj()
                .with("median", p.median)
                .with("mad", p.mad)
                .with("reps", p.reps),
        )
    });
    let detail = Json::obj()
        .with("latency_slice_samples", untraced.len())
        .with("latency_slice_p50_ms", p50)
        .with("rtt_p99_supported", stats::supports(untraced.len(), 0.99))
        .with("single_thread_samples", single.len())
        .with("replay_queries", replay.queries)
        .with("probes", probes_json);
    let slices = [
        &untraced[..],
        &traced,
        &single,
        &thr.samples,
        in_process_t.as_deref().unwrap_or_default(),
    ];
    RunResult {
        attempted: slices.iter().map(|s| s.len() as u64).sum(),
        failed: slices.iter().map(|s| failures(s)).sum(),
        metrics: m,
        detail,
        trace: Some(trace_json),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;
    use sparta_obs::json;

    fn opts(trace: bool) -> RunOpts {
        RunOpts {
            seed: 20200222,
            seconds: 0.4,
            trace,
            threads: 2,
        }
    }

    /// Every workload, both kinds of run, at toy scale: answers check
    /// out, the metric names are exactly `BENCHMARK.json`'s (a missing
    /// one panics in `summary_json`, an extra one is caught here), and
    /// the result line survives a round trip through the JSON parser.
    #[test]
    fn every_workload_reports_exactly_the_declared_metrics() {
        let spec = Spec::load();
        assert_eq!(
            spec.workloads,
            WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>(),
            "workload names match BENCHMARK.json, in order"
        );
        for def in &WORKLOADS {
            for trace in [false, true] {
                let r = run_workload(&def.quick(), &opts(trace));
                assert!(r.correct(), "{} trace={trace}: wrong answers", def.name);
                assert!(r.attempted >= 1);
                let declared: Vec<&str> = spec
                    .metrics(trace)
                    .iter()
                    .map(|m| m.name.as_str())
                    .collect();
                for name in r.metrics.keys() {
                    assert!(
                        declared.contains(&name.as_str()),
                        "{}: metric {name} is not in BENCHMARK.json",
                        def.name
                    );
                }
                let line = r.summary_json(&spec, trace).to_string();
                let back = json::parse(&line).expect("result line parses");
                assert_eq!(back.to_string(), line, "round trip is the identity");
                let keys: Vec<&str> = match &back {
                    Json::Obj(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
                    _ => panic!("result is an object"),
                };
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
                let reported = match back.get("metrics") {
                    Some(Json::Obj(pairs)) => pairs.len(),
                    _ => panic!("metrics is an object"),
                };
                assert_eq!(reported, declared.len());
                if !trace {
                    assert_eq!(r.metrics["recall_mean"], 1.0);
                    assert!(r.metrics.values().all(|&v| v > 0.0), "never zero");
                }
            }
        }
    }

    #[test]
    fn traced_run_writes_nested_spans_with_bounded_self_time() {
        let r = run_workload(&WORKLOADS[0].quick(), &opts(true));
        let t = r.trace.expect("a traced run has a trace");
        let root = t.get("query_root_ns").and_then(Json::as_f64).unwrap();
        let self_sum: f64 = match t.get("query_self_ns_by_layer") {
            Some(Json::Obj(pairs)) => pairs.iter().filter_map(|(_, v)| v.as_f64()).sum(),
            _ => panic!("self times are an object"),
        };
        assert!(root > 0.0);
        assert!(self_sum <= root, "self {self_sum} > root {root}");
        let spans = t.get("spans").and_then(Json::as_arr).unwrap();
        let named = |n: &str| {
            spans
                .iter()
                .filter(|s| s.get("name").and_then(Json::as_str) == Some(n))
                .count()
        };
        assert!(named("query") > 0);
        assert_eq!(named("query"), named("core.search"));
        assert!(named("index.score_scan") >= PROBE_REPS);
        assert!(r.metrics.contains_key("trace.overhead_share"));
    }

    #[test]
    fn counts_repeat_exactly_for_one_seed() {
        let def = WORKLOADS[2].quick();
        let a = run_workload(&def, &opts(true));
        let b = run_workload(&def, &opts(true));
        for name in [
            "core.postings_scanned_per_query",
            "core.random_accesses_per_query",
            "index.blocks_decoded_per_query",
            "index.bytes_per_posting",
        ] {
            assert_eq!(a.metrics[name], b.metrics[name], "{name}");
        }
    }
}
