//! Machine-readable benchmark export: `BENCH_<name>.json`.
//!
//! The text tables `repro` prints are for humans; regression tracking
//! needs the same numbers in a stable, parseable shape. A
//! [`BenchReport`] captures one emission: per algorithm/variant/
//! thread-count cell the latency distribution, mean recall, summed
//! [`WorkStats`], and the executor's [`ExecSnapshot`], plus
//! recall-over-time curves from traced runs. [`validate_bench_json`]
//! re-parses an emitted document and checks the schema, so CI can
//! assert the emitter and the consumer agree.

use crate::dataset::Dataset;
use crate::load::LoadReport;
use crate::measure::{run_latency_with, LatencyStats};
use crate::variants::VariantParams;
use sparta_core::recall::recall_dynamics;
use sparta_core::result::WorkStats;
use sparta_core::{algorithm_by_name, Algorithm};
use sparta_exec::DedicatedExecutor;
use sparta_obs::json::{parse, Json};
use sparta_obs::{ClockMode, ExecSnapshot, FlightRecorder, HistogramSnapshot};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Schema version stamped into every document; bump on breaking shape
/// changes so consumers can dispatch.
pub const SCHEMA_VERSION: u64 = 1;

/// One measured cell: an algorithm × variant × thread-count point.
#[derive(Debug, Clone)]
pub struct BenchCell {
    /// Algorithm name (as registered with `algorithm_by_name`).
    pub algorithm: String,
    /// Variant label ("exact", "high", "low").
    pub variant: String,
    /// Posting backend the cell ran on ("raw" / "compressed").
    pub backend: String,
    /// Intra-query worker threads.
    pub threads: usize,
    /// Queries measured.
    pub queries: usize,
    /// The measured statistics.
    pub stats: LatencyStats,
}

/// One recall-dynamics curve from a traced run.
#[derive(Debug, Clone)]
pub struct RecallCurve {
    /// Algorithm name.
    pub algorithm: String,
    /// Variant label.
    pub variant: String,
    /// `(elapsed_ms, recall)` samples, monotone in both coordinates.
    pub points: Vec<(f64, f64)>,
}

/// Index-size accounting for the corpus the cells were measured on
/// (emitted as `"index"`). On a compressed dataset this is the
/// measured size-ratio evidence: `footprint_bytes` is the backend the
/// cells ran on, `raw_footprint_bytes` the uncompressed build of the
/// identical corpus.
#[derive(Debug, Clone)]
pub struct IndexReport {
    /// Backend name ("raw" / "compressed").
    pub backend: String,
    /// Total bytes of the measured index (postings + metadata).
    pub footprint_bytes: u64,
    /// Total bytes of the raw build of the same corpus.
    pub raw_footprint_bytes: u64,
}

impl IndexReport {
    /// raw / measured size ratio (1.0 for the raw backend).
    pub fn compression_ratio(&self) -> f64 {
        self.raw_footprint_bytes as f64 / (self.footprint_bytes as f64).max(1.0)
    }
}

/// Flight-recorder accounting for a recorder-enabled emission.
#[derive(Debug, Clone, Copy)]
pub struct RecorderReport {
    /// Events recorded across all rings over the whole run.
    pub events_recorded: u64,
    /// Events overwritten off ring tails (capacity pressure).
    pub events_dropped: u64,
}

/// A full benchmark emission.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Report name; the file is written as `BENCH_<name>.json`.
    pub name: String,
    /// Corpus size the cells were measured on.
    pub docs: u64,
    /// Result-set size k.
    pub k: usize,
    /// Queries measured per cell.
    pub queries_per_cell: usize,
    /// Terms per query in every cell.
    pub terms_per_query: usize,
    /// The measured cells.
    pub cells: Vec<BenchCell>,
    /// Index-size accounting (emitted as `"index"` when present).
    pub index: Option<IndexReport>,
    /// Recall-over-time curves.
    pub recall_curves: Vec<RecallCurve>,
    /// Present when the run had a flight recorder attached
    /// (`SPARTA_RECORDER=1`); emitted as `"flight_recorder"`.
    pub recorder: Option<RecorderReport>,
    /// Present on `repro load` emissions: the latency-under-load sweep
    /// (emitted as `"load"`). A load-only report may have no cells.
    pub load: Option<LoadReport>,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn work_json(w: &WorkStats) -> Json {
    Json::obj()
        .with("postings_scanned", w.postings_scanned)
        .with("random_accesses", w.random_accesses)
        .with("heap_updates", w.heap_updates)
        .with("docmap_peak", w.docmap_peak)
        .with("cleaner_passes", w.cleaner_passes)
        .with("jobs_panicked", w.jobs_panicked)
        .with("jobs_recycled", w.jobs_recycled)
        .with("docmap_final", w.docmap_final)
        .with("timeout_stops", w.timeout_stops)
        .with("blocks_skipped", w.blocks_skipped)
        .with("blocks_decoded", w.blocks_decoded)
        .with("compressed_bytes", w.compressed_bytes)
}

fn histogram_json(h: &HistogramSnapshot) -> Json {
    Json::obj()
        .with("count", h.count)
        .with("sum", h.sum)
        .with("mean", h.mean())
        .with("p50", h.percentile(0.5))
        .with("p99", h.percentile(0.99))
}

fn exec_json(e: &ExecSnapshot) -> Json {
    Json::obj()
        .with("workers", e.workers)
        .with("jobs_run", e.jobs_run)
        .with("jobs_panicked", e.jobs_panicked)
        .with("busy_ns", e.busy_ns)
        .with("idle_ns", e.idle_ns)
        .with("idle_ratio", e.idle_ratio())
        .with("queue_depth_highwater", e.queue_depth_highwater)
        .with("queries_run", e.queries_run)
        .with("job_ns", histogram_json(&e.job_ns))
}

fn cell_json(c: &BenchCell) -> Json {
    Json::obj()
        .with("algorithm", c.algorithm.as_str())
        .with("variant", c.variant.as_str())
        .with("backend", c.backend.as_str())
        .with("threads", c.threads)
        .with("queries", c.queries)
        .with(
            "latency_ms",
            Json::obj()
                .with("mean", ms(c.stats.mean()))
                .with("p50", ms(c.stats.percentile(0.5)))
                .with("p95", ms(c.stats.percentile(0.95)))
                .with("p99", ms(c.stats.percentile(0.99)))
                .with("p999", ms(c.stats.percentile(0.999))),
        )
        .with("mean_recall", c.stats.mean_recall)
        .with("work", work_json(&c.stats.work))
        .with("exec", exec_json(&c.stats.exec))
}

fn curve_json(c: &RecallCurve) -> Json {
    Json::obj()
        .with("algorithm", c.algorithm.as_str())
        .with("variant", c.variant.as_str())
        .with(
            "points",
            Json::Arr(
                c.points
                    .iter()
                    .map(|&(t, r)| Json::obj().with("ms", t).with("recall", r))
                    .collect(),
            ),
        )
}

impl BenchReport {
    /// Serializes the report.
    pub fn to_json(&self) -> Json {
        let mut j = Json::obj()
            .with("schema_version", SCHEMA_VERSION)
            .with("name", self.name.as_str())
            .with("docs", self.docs)
            .with("k", self.k)
            .with("queries_per_cell", self.queries_per_cell)
            .with("terms_per_query", self.terms_per_query)
            .with(
                "cells",
                Json::Arr(self.cells.iter().map(cell_json).collect()),
            )
            .with(
                "recall_curves",
                Json::Arr(self.recall_curves.iter().map(curve_json).collect()),
            );
        if let Some(ix) = &self.index {
            j = j.with(
                "index",
                Json::obj()
                    .with("backend", ix.backend.as_str())
                    .with("footprint_bytes", ix.footprint_bytes)
                    .with("raw_footprint_bytes", ix.raw_footprint_bytes)
                    .with("compression_ratio", ix.compression_ratio()),
            );
        }
        if let Some(r) = &self.recorder {
            j = j.with(
                "flight_recorder",
                Json::obj()
                    .with("events_recorded", r.events_recorded)
                    .with("events_dropped", r.events_dropped),
            );
        }
        if let Some(l) = &self.load {
            j = j.with("load", l.to_json());
        }
        j
    }

    /// Writes `BENCH_<name>.json` under `dir` (created if needed) and
    /// returns the path.
    pub fn write_to(&self, dir: &Path) -> std::io::Result<PathBuf> {
        let path = out_path(dir, &format!("BENCH_{}", self.name), "json")?;
        std::fs::write(&path, self.to_json().to_pretty_string(2))?;
        Ok(path)
    }
}

/// Resolves `dir/<name>.<ext>`, creating `dir` if needed — the single
/// naming convention shared by `--emit-json` (`BENCH_<name>.json`) and
/// `--emit-trace` (`TRACE_<name>.json`).
pub fn out_path(dir: &Path, name: &str, ext: &str) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    Ok(dir.join(format!("{name}.{ext}")))
}

/// Measures every algorithm × variant × thread-count cell on
/// `queries_per_cell` queries of `terms_per_query` terms, recall
/// verified against the oracle, and attaches recall-dynamics curves
/// from traced single-query runs of each algorithm.
pub fn build_report(
    ds: &Dataset,
    name: &str,
    algorithms: &[&str],
    variants: &[VariantParams],
    thread_counts: &[usize],
    queries_per_cell: usize,
    terms_per_query: usize,
) -> BenchReport {
    // SPARTA_RECORDER=1 attaches a flight recorder to every measured
    // run; the report then carries its event accounting, so CI can
    // assert recorder-on runs do identical work.
    let max_threads = thread_counts.iter().copied().max().unwrap_or(1).max(1);
    let recorder = std::env::var("SPARTA_RECORDER")
        .map(|v| v == "1")
        .unwrap_or(false)
        .then(|| FlightRecorder::new(max_threads, 1 << 12, ClockMode::Wall));
    let queries = ds.queries_of_length(terms_per_query, queries_per_cell);
    let mut cells = Vec::new();
    for &name in algorithms {
        let algo: Arc<dyn Algorithm> =
            algorithm_by_name(name).unwrap_or_else(|| panic!("unknown algorithm {name}"));
        for params in variants {
            for &t in thread_counts {
                let stats = run_latency_with(
                    ds,
                    algo.as_ref(),
                    queries,
                    params,
                    t,
                    true,
                    recorder.as_ref(),
                );
                cells.push(BenchCell {
                    algorithm: name.to_string(),
                    variant: params.label.to_string(),
                    backend: ds.backend.name().to_string(),
                    threads: t,
                    queries: queries.len(),
                    stats,
                });
            }
        }
    }
    let threads = thread_counts.iter().copied().max().unwrap_or(1);
    let recall_curves = build_recall_curves(ds, algorithms, threads, terms_per_query);
    let index = ds.index.footprint().map(|fp| IndexReport {
        backend: ds.backend.name().to_string(),
        footprint_bytes: fp.total(),
        raw_footprint_bytes: ds.raw_footprint.total(),
    });
    BenchReport {
        name: name.to_string(),
        docs: ds.index.num_docs(),
        k: ds.k,
        queries_per_cell: queries.len(),
        terms_per_query,
        cells,
        index,
        recall_curves,
        recorder: recorder.map(|r| RecorderReport {
            events_recorded: r.total_events(),
            events_dropped: r.dropped_events(),
        }),
        load: None,
    }
}

/// One traced exact run per algorithm, sampled into a recall curve
/// (§5.3's recall dynamics, machine-readable).
fn build_recall_curves(
    ds: &Dataset,
    algorithms: &[&str],
    threads: usize,
    terms_per_query: usize,
) -> Vec<RecallCurve> {
    let pool = ds.queries_of_length(terms_per_query, 1);
    let Some(q) = pool.first() else {
        return Vec::new();
    };
    let oracle = ds.oracle(q);
    let exec = DedicatedExecutor::new(threads.max(1));
    let params = VariantParams::exact().with_trace();
    let samples = 12;
    algorithms
        .iter()
        .map(|&name| {
            let algo =
                algorithm_by_name(name).unwrap_or_else(|| panic!("unknown algorithm {name}"));
            let start = Instant::now();
            let r = algo.search(&ds.index, q, &params.config(ds.k), &exec);
            let horizon = start.elapsed().max(Duration::from_micros(200));
            let trace = r.trace.clone().unwrap_or_default();
            let points = recall_dynamics(&trace, &oracle, horizon, samples)
                .into_iter()
                .map(|(t, rec)| (ms(t), rec))
                .collect();
            RecallCurve {
                algorithm: name.to_string(),
                variant: params.label.to_string(),
                points,
            }
        })
        .collect()
}

fn require<'a>(j: &'a Json, key: &str, ctx: &str) -> Result<&'a Json, String> {
    j.get(key)
        .ok_or_else(|| format!("{ctx}: missing key {key:?}"))
}

fn require_num(j: &Json, key: &str, ctx: &str) -> Result<f64, String> {
    require(j, key, ctx)?
        .as_f64()
        .ok_or_else(|| format!("{ctx}: key {key:?} is not a number"))
}

/// Validates an emitted `BENCH_*.json` document: parses it and checks
/// every key the schema promises, so a CI smoke run fails loudly when
/// the emitter and this contract drift apart.
pub fn validate_bench_json(text: &str) -> Result<(), String> {
    let doc = parse(text)?;
    for key in ["name", "docs", "k", "queries_per_cell", "terms_per_query"] {
        require(&doc, key, "report")?;
    }
    let version = require_num(&doc, "schema_version", "report")?;
    if version != SCHEMA_VERSION as f64 {
        return Err(format!("unsupported schema_version {version}"));
    }
    let cells = require(&doc, "cells", "report")?
        .as_arr()
        .ok_or("report: cells is not an array")?;
    // A load-only emission (`repro load`) carries its measurements in
    // the "load" block and legitimately has no cells; anything else
    // with no cells measured nothing and is a bug.
    if cells.is_empty() && doc.get("load").is_none() {
        return Err("report: cells is empty".into());
    }
    for (i, cell) in cells.iter().enumerate() {
        let ctx = format!("cell {i}");
        for key in ["algorithm", "variant"] {
            require(cell, key, &ctx)?
                .as_str()
                .ok_or_else(|| format!("{ctx}: key {key:?} is not a string"))?;
        }
        for key in ["threads", "queries", "mean_recall"] {
            require_num(cell, key, &ctx)?;
        }
        let lat = require(cell, "latency_ms", &ctx)?;
        for key in ["mean", "p50", "p95", "p99", "p999"] {
            require_num(lat, key, &format!("{ctx} latency_ms"))?;
        }
        // Optional: older emissions predate per-cell backend labels.
        if let Some(b) = cell.get("backend") {
            b.as_str()
                .ok_or_else(|| format!("{ctx}: key \"backend\" is not a string"))?;
        }
        let work = require(cell, "work", &ctx)?;
        for key in [
            "postings_scanned",
            "random_accesses",
            "heap_updates",
            "docmap_peak",
            "cleaner_passes",
            "jobs_panicked",
            "jobs_recycled",
            "docmap_final",
            "timeout_stops",
        ] {
            require_num(work, key, &format!("{ctx} work"))?;
        }
        // Optional (schema-compatible additions): compressed-backend
        // counters. Absent in pre-compression emissions; when present
        // they must be numbers.
        for key in ["blocks_skipped", "blocks_decoded", "compressed_bytes"] {
            if work.get(key).is_some() {
                require_num(work, key, &format!("{ctx} work"))?;
            }
        }
        let exec = require(cell, "exec", &ctx)?;
        for key in [
            "workers",
            "jobs_run",
            "jobs_panicked",
            "busy_ns",
            "idle_ns",
            "idle_ratio",
            "queue_depth_highwater",
            "queries_run",
        ] {
            require_num(exec, key, &format!("{ctx} exec"))?;
        }
        let job_ns = require(exec, "job_ns", &format!("{ctx} exec"))?;
        for key in ["count", "sum", "mean", "p50", "p99"] {
            require_num(job_ns, key, &format!("{ctx} exec job_ns"))?;
        }
    }
    let curves = require(&doc, "recall_curves", "report")?
        .as_arr()
        .ok_or("report: recall_curves is not an array")?;
    for (i, curve) in curves.iter().enumerate() {
        let ctx = format!("recall_curve {i}");
        require(curve, "algorithm", &ctx)?;
        require(curve, "variant", &ctx)?;
        let points = require(curve, "points", &ctx)?
            .as_arr()
            .ok_or_else(|| format!("{ctx}: points is not an array"))?;
        for p in points {
            require_num(p, "ms", &ctx)?;
            require_num(p, "recall", &ctx)?;
        }
    }
    // Optional: index-size accounting, but when present it must be
    // well-formed (this is where compressed-vs-raw ratios are
    // regression-tracked).
    if let Some(ix) = doc.get("index") {
        require(ix, "backend", "index")?
            .as_str()
            .ok_or("index: backend is not a string")?;
        for key in [
            "footprint_bytes",
            "raw_footprint_bytes",
            "compression_ratio",
        ] {
            require_num(ix, key, "index")?;
        }
    }
    // Optional: present only on recorder-enabled runs, but when present
    // it must be well-formed.
    if let Some(fr) = doc.get("flight_recorder") {
        for key in ["events_recorded", "events_dropped"] {
            require_num(fr, key, "flight_recorder")?;
        }
    }
    // Optional: present only on `repro load` emissions, but when
    // present the latency-under-load sweep must be complete — at
    // least one level, each with admission counters, the latency
    // percentiles, and a queue-depth series.
    if let Some(load) = doc.get("load") {
        for key in ["arrival", "mode"] {
            require(load, key, "load")?
                .as_str()
                .ok_or_else(|| format!("load: key {key:?} is not a string"))?;
        }
        for key in ["seed", "service_ns", "max_in_flight", "queue_capacity"] {
            require_num(load, key, "load")?;
        }
        let levels = require(load, "levels", "load")?
            .as_arr()
            .ok_or("load: levels is not an array")?;
        if levels.is_empty() {
            return Err("load: levels is empty".into());
        }
        for (i, level) in levels.iter().enumerate() {
            let ctx = format!("load level {i}");
            for key in [
                "offered_qps",
                "offered",
                "accepted",
                "queued",
                "shed",
                "abandoned",
                "completed",
                "queue_depth_highwater",
                "in_flight_highwater",
            ] {
                require_num(level, key, &ctx)?;
            }
            let lat = require(level, "latency_ms", &ctx)?;
            for key in ["count", "mean", "p50", "p99", "p999"] {
                require_num(lat, key, &format!("{ctx} latency_ms"))?;
            }
            let depth = require(level, "queue_depth", &ctx)?
                .as_arr()
                .ok_or_else(|| format!("{ctx}: queue_depth is not an array"))?;
            for p in depth {
                require_num(p, "ns", &ctx)?;
                require_num(p, "depth", &ctx)?;
            }
        }
        // Optional: present only when the TCP sweep scraped an admin
        // endpoint; when present, the server-side truth must be
        // complete — scrape accounting, the admission counters, and a
        // per-stage totals array.
        if let Some(server) = load.get("server") {
            require_num(server, "scrapes", "load server")?;
            match require(server, "monotone", "load server")? {
                Json::Bool(_) => {}
                _ => return Err("load server: monotone is not a bool".into()),
            }
            for key in [
                "attempts",
                "accepted",
                "queued",
                "shed",
                "abandoned",
                "completed",
                "queue_depth_highwater",
                "in_flight_highwater",
            ] {
                require_num(server, key, "load server")?;
            }
            let stages = require(server, "stages", "load server")?
                .as_arr()
                .ok_or("load server: stages is not an array")?;
            for (i, stage) in stages.iter().enumerate() {
                let ctx = format!("load server stage {i}");
                require(stage, "stage", &ctx)?
                    .as_str()
                    .ok_or_else(|| format!("{ctx}: stage is not a string"))?;
                require_num(stage, "count", &ctx)?;
                require_num(stage, "sum_ns", &ctx)?;
            }
        }
        // Required: every non-empty sweep carries its saturation
        // analysis — the knee verdict, where it sits, and the dominant
        // wait class there.
        let sat = require(load, "saturation", "load")?;
        for key in [
            "latency_budget_ms",
            "knee_qps",
            "knee_p99_ms",
            "in_flight_utilization",
        ] {
            require_num(sat, key, "load saturation")?;
        }
        match require(sat, "knee_detected", "load saturation")? {
            Json::Bool(_) => {}
            _ => return Err("load saturation: knee_detected is not a bool".into()),
        }
        let wait = require(sat, "dominant_wait", "load saturation")?
            .as_str()
            .ok_or("load saturation: dominant_wait is not a string")?;
        if wait.is_empty() {
            return Err("load saturation: dominant_wait is empty".into());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_report() -> BenchReport {
        BenchReport {
            name: "unit".into(),
            docs: 100,
            k: 5,
            queries_per_cell: 1,
            terms_per_query: 2,
            cells: vec![BenchCell {
                algorithm: "sparta".into(),
                variant: "exact".into(),
                backend: "raw".into(),
                threads: 2,
                queries: 1,
                stats: LatencyStats {
                    sorted: vec![Duration::from_millis(3)],
                    mean_recall: 1.0,
                    work: WorkStats::default(),
                    exec: ExecSnapshot::default(),
                },
            }],
            recall_curves: vec![RecallCurve {
                algorithm: "sparta".into(),
                variant: "exact".into(),
                points: vec![(0.5, 0.4), (1.0, 1.0)],
            }],
            index: None,
            recorder: None,
            load: None,
        }
    }

    #[test]
    fn index_block_roundtrips_and_validates() {
        let mut r = tiny_report();
        r.index = Some(IndexReport {
            backend: "compressed".into(),
            footprint_bytes: 250,
            raw_footprint_bytes: 1000,
        });
        let text = r.to_json().to_pretty_string(2);
        validate_bench_json(&text).unwrap();
        let doc = parse(&text).unwrap();
        let ix = doc.get("index").expect("block emitted");
        assert_eq!(ix.get("backend").and_then(Json::as_str), Some("compressed"));
        assert_eq!(
            ix.get("compression_ratio").and_then(Json::as_f64),
            Some(4.0)
        );
        // Cells carry the backend label and the new work counters.
        let cell = &doc.get("cells").and_then(|c| c.as_arr()).unwrap()[0];
        assert_eq!(cell.get("backend").and_then(Json::as_str), Some("raw"));
        let work = cell.get("work").unwrap();
        for key in ["blocks_skipped", "blocks_decoded", "compressed_bytes"] {
            assert!(work.get(key).is_some(), "missing {key}");
        }
        // A malformed block must fail even though the block is optional.
        let broken = text.replace("raw_footprint_bytes", "raw_footprint_mangled");
        assert!(validate_bench_json(&broken).is_err());
    }

    #[test]
    fn report_json_validates() {
        let r = tiny_report();
        validate_bench_json(&r.to_json().to_pretty_string(2)).unwrap();
        validate_bench_json(&r.to_json().to_string()).unwrap();
    }

    #[test]
    fn validation_catches_missing_keys() {
        let mut j = tiny_report().to_json();
        if let Json::Obj(pairs) = &mut j {
            pairs.retain(|(k, _)| k != "cells");
        }
        let err = validate_bench_json(&j.to_string()).unwrap_err();
        assert!(err.contains("cells"), "unexpected error: {err}");
    }

    #[test]
    fn validation_catches_malformed_cell() {
        let mut j = tiny_report().to_json();
        if let Some(Json::Arr(cells)) = match &mut j {
            Json::Obj(pairs) => pairs.iter_mut().find(|(k, _)| k == "cells").map(|(_, v)| v),
            _ => None,
        } {
            if let Json::Obj(cell) = &mut cells[0] {
                cell.retain(|(k, _)| k != "exec");
            }
        }
        let err = validate_bench_json(&j.to_string()).unwrap_err();
        assert!(err.contains("exec"), "unexpected error: {err}");
    }

    #[test]
    fn recorder_block_roundtrips_and_validates() {
        let mut r = tiny_report();
        r.recorder = Some(RecorderReport {
            events_recorded: 123,
            events_dropped: 4,
        });
        let text = r.to_json().to_pretty_string(2);
        validate_bench_json(&text).unwrap();
        let doc = parse(&text).unwrap();
        let fr = doc.get("flight_recorder").expect("block emitted");
        assert_eq!(
            fr.get("events_recorded").and_then(Json::as_f64),
            Some(123.0)
        );
        // A malformed block must fail even though the block is optional.
        let broken = text.replace("events_dropped", "events_mangled");
        assert!(validate_bench_json(&broken).is_err());
    }

    #[test]
    fn load_server_block_roundtrips_and_validates() {
        use crate::load::{LoadLevel, LoadReport, SaturationReport, ServerScrape, StageStat};
        let mut r = tiny_report();
        r.load = Some(LoadReport {
            arrival: "poisson".into(),
            mode: "tcp".into(),
            seed: 7,
            service_ns: 0,
            max_in_flight: 4,
            queue_capacity: 16,
            levels: vec![LoadLevel {
                offered_qps: 100.0,
                offered: 10,
                snapshot: sparta_obs::ServerSnapshot::default(),
                latencies_ns: vec![1_000, 2_000],
                queue_depth: Vec::new(),
            }],
            server: Some(ServerScrape {
                scrapes: 2,
                monotone: true,
                snapshot: sparta_obs::ServerSnapshot::default(),
                stages: vec![StageStat {
                    stage: "execute".into(),
                    count: 10,
                    sum_ns: 12345,
                }],
            }),
            saturation: Some(SaturationReport {
                latency_budget_ms: 10.0,
                knee_detected: true,
                knee_qps: 100.0,
                knee_p99_ms: 12.5,
                dominant_wait: "queue_wait".into(),
                in_flight_utilization: 1.0,
            }),
        });
        let text = r.to_json().to_pretty_string(2);
        validate_bench_json(&text).unwrap();
        let doc = parse(&text).unwrap();
        let server = doc
            .get("load")
            .and_then(|l| l.get("server"))
            .expect("server block emitted");
        assert_eq!(server.get("scrapes").and_then(Json::as_f64), Some(2.0));
        assert!(matches!(server.get("monotone"), Some(Json::Bool(true))));
        // A malformed block must fail even though the block is optional.
        let broken = text.replace("\"monotone\": true", "\"monotone\": 1");
        assert!(validate_bench_json(&broken).is_err());
        let broken = text.replace("\"sum_ns\"", "\"sum_mangled\"");
        assert!(validate_bench_json(&broken).is_err());
        // The saturation block is required and typed: a missing block,
        // a mistyped knee verdict, and an empty wait class all fail.
        let broken = text.replace("\"saturation\"", "\"saturation_gone\"");
        assert!(validate_bench_json(&broken).is_err());
        let broken = text.replace("\"knee_detected\": true", "\"knee_detected\": 1");
        assert!(validate_bench_json(&broken).is_err());
        let broken = text.replace(
            "\"dominant_wait\": \"queue_wait\"",
            "\"dominant_wait\": \"\"",
        );
        assert!(validate_bench_json(&broken).is_err());
    }

    #[test]
    fn out_path_builds_convention_and_creates_dir() {
        let dir = std::env::temp_dir().join(format!("sparta-out-path-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let p = out_path(&dir, "TRACE_smoke", "json").unwrap();
        assert!(p.ends_with("TRACE_smoke.json"));
        assert!(dir.is_dir(), "out_path creates the directory");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_to_names_file_after_report() {
        let dir = std::env::temp_dir().join(format!("sparta-bench-export-{}", std::process::id()));
        let path = tiny_report().write_to(&dir).unwrap();
        assert!(path.ends_with("BENCH_unit.json"));
        let text = std::fs::read_to_string(&path).unwrap();
        validate_bench_json(&text).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
