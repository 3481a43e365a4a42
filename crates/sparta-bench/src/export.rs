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
use sparta_exec::WorkerPool;
use sparta_obs::json::{parse, Json, Schema};
use sparta_obs::{ExecSnapshot, HistogramSnapshot};
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
    let queries = ds.queries_of_length(terms_per_query, queries_per_cell);
    let mut cells = Vec::new();
    for &name in algorithms {
        let algo: Arc<dyn Algorithm> =
            algorithm_by_name(name).unwrap_or_else(|| panic!("unknown algorithm {name}"));
        for params in variants {
            for &t in thread_counts {
                let stats = run_latency_with(ds, algo.as_ref(), queries, params, t, true);
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
    let exec = WorkerPool::new(threads.max(1));
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

const WORK: Schema = Schema::Obj(&[
    (
        "postings_scanned random_accesses heap_updates docmap_peak cleaner_passes \
         jobs_panicked jobs_recycled docmap_final timeout_stops",
        Schema::Num,
    ),
    // The compressed-backend counters postdate the schema.
    (
        "blocks_skipped? blocks_decoded? compressed_bytes?",
        Schema::Num,
    ),
]);

const EXEC: Schema = Schema::Obj(&[
    (
        "workers jobs_run jobs_panicked busy_ns idle_ns idle_ratio queue_depth_highwater \
         queries_run",
        Schema::Num,
    ),
    (
        "job_ns",
        Schema::Obj(&[("count sum mean p50 p99", Schema::Num)]),
    ),
]);

const CELL: Schema = Schema::Obj(&[
    // Older emissions predate per-cell backend labels.
    ("algorithm variant backend?", Schema::Str),
    ("threads queries mean_recall", Schema::Num),
    (
        "latency_ms",
        Schema::Obj(&[("mean p50 p95 p99 p999", Schema::Num)]),
    ),
    ("work", WORK),
    ("exec", EXEC),
]);

const RECALL_CURVE: Schema = Schema::Obj(&[
    ("algorithm variant", Schema::Str),
    (
        "points",
        Schema::Arr(&Schema::Obj(&[("ms recall", Schema::Num)])),
    ),
]);

const INDEX: Schema = Schema::Obj(&[
    ("backend", Schema::Str),
    (
        "footprint_bytes raw_footprint_bytes compression_ratio",
        Schema::Num,
    ),
]);

const LOAD_LEVEL: Schema = Schema::Obj(&[
    (
        "offered_qps offered accepted queued shed abandoned completed queue_depth_highwater \
         in_flight_highwater",
        Schema::Num,
    ),
    (
        "latency_ms",
        Schema::Obj(&[("count mean p50 p99 p999", Schema::Num)]),
    ),
    (
        "queue_depth",
        Schema::Arr(&Schema::Obj(&[("ns depth", Schema::Num)])),
    ),
]);

/// Server-side truth a TCP sweep scraped from the admin endpoint.
const LOAD_SERVER: Schema = Schema::Obj(&[
    (
        "scrapes attempts accepted queued shed abandoned completed queue_depth_highwater \
         in_flight_highwater",
        Schema::Num,
    ),
    ("monotone", Schema::Bool),
    ("stages", Schema::Arr(&STAGE)),
]);

const STAGE: Schema = Schema::Obj(&[("stage", Schema::Str), ("count sum_ns", Schema::Num)]);

const SATURATION: Schema = Schema::Obj(&[
    (
        "latency_budget_ms knee_qps knee_p99_ms in_flight_utilization",
        Schema::Num,
    ),
    ("knee_detected", Schema::Bool),
    ("dominant_wait", Schema::Str),
]);

/// The latency-under-load sweep of a `repro load` emission: at least
/// one level, and always its saturation analysis. `server` is present
/// only when a TCP sweep scraped an admin endpoint.
const LOAD: Schema = Schema::Obj(&[
    ("arrival mode", Schema::Str),
    ("seed service_ns max_in_flight queue_capacity", Schema::Num),
    ("levels", Schema::NonEmptyArr(&LOAD_LEVEL)),
    ("saturation", SATURATION),
    ("server?", LOAD_SERVER),
]);

/// The `BENCH_*.json` contract.
static BENCH_SCHEMA: Schema = Schema::Obj(&[
    ("schema_version", Schema::Version(SCHEMA_VERSION)),
    ("name", Schema::Str),
    ("docs k queries_per_cell terms_per_query", Schema::Num),
    ("cells", Schema::Arr(&CELL)),
    ("recall_curves", Schema::Arr(&RECALL_CURVE)),
    ("index?", INDEX),
    ("load?", LOAD),
]);

/// Validates an emitted `BENCH_*.json` document: parses it and checks
/// it against the bench schema, so a CI smoke run fails loudly when
/// the emitter and this contract drift apart. Beyond the schema, a
/// report must measure something (cells, or a `load` sweep), and a
/// sweep's saturation analysis must name its dominant wait class.
pub fn validate_bench_json(text: &str) -> Result<(), String> {
    let doc = parse(text)?;
    BENCH_SCHEMA.check(&doc)?;
    let load = doc.get("load");
    if doc
        .get("cells")
        .and_then(Json::as_arr)
        .is_some_and(<[Json]>::is_empty)
        && load.is_none()
    {
        return Err("cells: empty, and no load sweep".into());
    }
    let wait = load
        .and_then(|l| l.get("saturation"))
        .and_then(|s| s.get("dominant_wait"))
        .and_then(Json::as_str);
    if wait == Some("") {
        return Err("load.saturation.dominant_wait: empty".into());
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
            load: None,
        }
    }

    /// [`tiny_report`] with every optional block: index accounting and
    /// a one-level TCP load sweep with its admin scrape.
    fn full_report() -> BenchReport {
        use crate::load::{LoadLevel, LoadReport, SaturationReport, ServerScrape, StageStat};
        let mut r = tiny_report();
        r.index = Some(IndexReport {
            backend: "compressed".into(),
            footprint_bytes: 250,
            raw_footprint_bytes: 1000,
        });
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
                queue_depth: vec![(5, 1)],
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
        r
    }

    #[test]
    fn report_json_validates() {
        let r = tiny_report();
        validate_bench_json(&r.to_json().to_pretty_string(2)).unwrap();
        validate_bench_json(&r.to_json().to_string()).unwrap();
        assert!(validate_bench_json("not json").is_err());
    }

    #[test]
    fn schema_rejects_each_broken_required_field() {
        let doc = full_report().to_json();
        let checked = BENCH_SCHEMA.rejects_each_broken_field(&doc).unwrap();
        assert!(checked > 2 * 100, "every block's fields");
    }

    #[test]
    fn optional_blocks_roundtrip_and_validate() {
        let mut r = full_report();
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
        let server = doc
            .get("load")
            .and_then(|l| l.get("server"))
            .expect("server block emitted");
        assert_eq!(server.get("scrapes").and_then(Json::as_f64), Some(2.0));
        assert!(matches!(server.get("monotone"), Some(Json::Bool(true))));
        // The saturation analysis must name a wait class.
        let broken = text.replace(
            "\"dominant_wait\": \"queue_wait\"",
            "\"dominant_wait\": \"\"",
        );
        assert_eq!(
            validate_bench_json(&broken).unwrap_err(),
            "load.saturation.dominant_wait: empty"
        );
        // A load-only emission has no cells; a report with neither
        // measured nothing.
        r.cells.clear();
        validate_bench_json(&r.to_json().to_string()).unwrap();
        r.load = None;
        assert!(validate_bench_json(&r.to_json().to_string())
            .unwrap_err()
            .starts_with("cells: empty"));
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
