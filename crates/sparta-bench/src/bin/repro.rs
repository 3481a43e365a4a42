//! `repro` — regenerates every table and figure of the paper's
//! evaluation (§5) at this reproduction's scale.
//!
//! ```sh
//! cargo run --release -p sparta-bench --bin repro -- <experiment>
//! ```
//!
//! Experiments are the rows of [`EXPERIMENTS`], in DESIGN.md §5 order:
//! `table2 table3 table4 fig3a fig3b fig3c fig3d fig3e fig3f fig3g
//! fig3h fig3i fig4 ablations ramdisk`, or `all` (the default) for every
//! one in turn. Most are grids — a row axis (corpus, query length or
//! thread count), (algorithm, variant) columns and one statistic — run
//! by [`run_grid`]; an unknown ID exits 2 before any dataset is built.
//!
//! Machine-readable export (see DESIGN.md "Observability"):
//!
//! ```sh
//! repro --emit-json <name>       # writes out/BENCH_<name>.json
//! repro --validate-json <path>   # schema-checks an emitted document
//! repro --perf-guard <baseline>  # deterministic work-counter guard;
//!                                #   --write regenerates the baseline
//! repro --perf-guard-compressed <baseline>
//!                                # same pinned cell replayed on the
//!                                #   compressed posting backend; also
//!                                #   asserts block-max pruning and
//!                                #   block decoding actually fired,
//!                                #   and that pRA's probes decode no
//!                                #   block
//! repro --emit-trace <name>      # flight-recorder timeline of the
//!                                #   pinned guard cell as Chrome
//!                                #   trace JSON: out/TRACE_<name>.json
//! repro --validate-trace <path>  # schema-checks an emitted trace
//! repro profile <name>           # deterministic aggregate profile of
//!                                #   the pinned guard cell (utilization,
//!                                #   per-phase self time):
//!                                #   out/PROFILE_<name>.json; add
//!                                #   --collapsed for the flamegraph
//!                                #   text rendering on stdout
//! ```
//!
//! Environment:
//! * `SPARTA_DOCS`    — base corpus size (default 20 000; CWX10 = 10×)
//! * `SPARTA_QUERIES` — queries per cell   (default 20; paper uses 100)
//! * `SPARTA_THREADS` — worker threads     (default 4; paper uses 12)
//! * `SPARTA_RECORDER` — `1` attaches a flight recorder to
//!   `--emit-json` and `--perf-guard` runs (the guard asserts the
//!   counters stay identical either way)

use sparta_bench::measure::{run_latency_with, run_throughput};
use sparta_bench::{Dataset, Scale, VariantParams};
use sparta_core::recall::{recall_dynamics, time_to_recall};
use sparta_core::{algorithm_by_name, Algorithm};
use sparta_corpus::types::Query;
use sparta_exec::WorkerPool;
use sparta_index::IndexKind;
use sparta_obs::{ClockMode, FlightRecorder};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn threads() -> usize {
    std::env::var("SPARTA_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(4)
}

fn queries_per_cell() -> usize {
    std::env::var("SPARTA_QUERIES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(20)
}

fn algo(name: &str) -> Arc<dyn Algorithm> {
    algorithm_by_name(name).unwrap_or_else(|| panic!("unknown algorithm {name}"))
}

/// The variant operating point a grid column names: `exact`, `high`
/// or `low` (§5.3).
fn variant_by_name(name: &str) -> Option<VariantParams> {
    [
        VariantParams::exact(),
        VariantParams::high(),
        VariantParams::low(),
    ]
    .into_iter()
    .find(|v| v.label == name)
}

fn fmt_ms(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

/// One paper experiment: an entry of [`EXPERIMENTS`].
struct Experiment {
    id: &'static str,
    /// Printed between `==` bars; `{threads}` expands to `SPARTA_THREADS`.
    title: &'static str,
    body: Body,
    /// The paper's numbers (or a note on reading the rows), printed
    /// under the body.
    reference: &'static [&'static str],
}

enum Body {
    /// A grid: its row axis, its columns, and the statistic each cell
    /// reports.
    Grid(Rows, &'static [Col], Stat),
    /// A printer of its own shape.
    Custom(fn()),
}

/// A grid column: (algorithm, variant).
type Col = (&'static str, &'static str);

/// A grid's row axis, with the corpus it runs on.
#[derive(Debug, Clone, Copy)]
enum Rows {
    /// CW then CWX10, over 12-term queries — or over the voice-query
    /// mix when `voice_mix`.
    Corpus { voice_mix: bool },
    /// Query length 1–12 on one corpus, `min(m, SPARTA_THREADS)`
    /// workers per query.
    Terms(Scale),
    /// Workers per query 1–12 on one corpus, 12-term queries.
    Threads(Scale),
}

/// One grid row: label, corpus, query length (`None`: the voice mix)
/// and workers per query.
type Row = (String, Scale, Option<usize>, usize);

/// A grid cell's statistic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stat {
    Mean,
    P95,
    Recall,
    Qps,
}

const ALL_EXACT: &[Col] = &[
    ("sparta", "exact"),
    ("pnra", "exact"),
    ("snra", "exact"),
    ("pra", "exact"),
    ("pbmw", "exact"),
    ("pjass", "exact"),
];
const ALL_HIGH: &[Col] = &[
    ("sparta", "high"),
    ("pra", "high"),
    ("pnra", "high"),
    ("snra", "high"),
    ("pbmw", "high"),
    ("pjass", "high"),
];
/// The four algorithms the paper runs in throughput and thread sweeps.
const FOUR_HIGH: &[Col] = &[
    ("sparta", "high"),
    ("pra", "high"),
    ("pbmw", "high"),
    ("pjass", "high"),
];
const SPARTA_VS_LOW: &[Col] = &[("sparta", "high"), ("pbmw", "low"), ("pjass", "low")];

/// Every experiment `repro` runs, in DESIGN.md §5 order.
const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        id: "table2",
        title: "Table 2: mean exact latency (ms), 12-term queries, {threads} threads",
        body: Body::Grid(Rows::Corpus { voice_mix: false }, ALL_EXACT, Stat::Mean),
        reference: &[
            "(paper, 50M/500M docs: Sparta 860/12010, pNRA 13291/OOM, sNRA 5553/56223, \
             pRA 480/7410, pBMW 750/10210, pJASS 54343/OOM)",
        ],
    },
    Experiment {
        id: "table3",
        title: "Table 3: recall of approximate variants, 12-term queries",
        body: Body::Grid(
            Rows::Corpus { voice_mix: false },
            &[
                ("sparta", "high"),
                ("pra", "high"),
                ("pnra", "high"),
                ("snra", "high"),
                ("pbmw", "high"),
                ("pbmw", "low"),
                ("pjass", "high"),
                ("pjass", "low"),
            ],
            Stat::Recall,
        ),
        reference: &["(paper CW: 97.5 / 98.5 / 98.5 / 99 / 97.5 / 80 / 96 / 93)"],
    },
    Experiment {
        id: "table4",
        title: "Table 4: throughput (qps), voice-query mix, {threads}-thread shared pool",
        body: Body::Grid(Rows::Corpus { voice_mix: true }, FOUR_HIGH, Stat::Qps),
        reference: &["(paper CW: 12.5 / 10.9 / 5.95 / 10.8; CWX10: 9.6 / 1.8 / 0.38 / N/A)"],
    },
    Experiment {
        id: "fig3a",
        title: "Fig 3a: mean latency (ms) vs #terms, CW, high-recall, m threads",
        body: Body::Grid(Rows::Terms(Scale::Cw), ALL_HIGH, Stat::Mean),
        reference: &[],
    },
    Experiment {
        id: "fig3b",
        title: "Fig 3b: p95 latency (ms) vs #terms, CW, high-recall, m threads",
        body: Body::Grid(Rows::Terms(Scale::Cw), ALL_HIGH, Stat::P95),
        reference: &[],
    },
    Experiment {
        id: "fig3c",
        title: "Fig 3c: mean latency (ms) vs #terms, CWX10, high-recall, m threads",
        body: Body::Grid(Rows::Terms(Scale::CwX10), ALL_HIGH, Stat::Mean),
        reference: &[],
    },
    Experiment {
        id: "fig3d",
        title: "Fig 3d: mean latency (ms) vs #terms, CW: sparta-high vs low-recall",
        body: Body::Grid(Rows::Terms(Scale::Cw), SPARTA_VS_LOW, Stat::Mean),
        reference: &[],
    },
    Experiment {
        id: "fig3e",
        title: "Fig 3e: p95 latency (ms) vs #terms, CW: sparta-high vs low-recall",
        body: Body::Grid(Rows::Terms(Scale::Cw), SPARTA_VS_LOW, Stat::P95),
        reference: &[],
    },
    Experiment {
        id: "fig3f",
        title: "Fig 3f: recall vs elapsed time, 12-term query, CW",
        body: Body::Custom(|| fig3_dynamics(Scale::Cw)),
        reference: &[],
    },
    Experiment {
        id: "fig3g",
        title: "Fig 3g: recall vs elapsed time, 12-term query, CWX10",
        body: Body::Custom(|| fig3_dynamics(Scale::CwX10)),
        reference: &[],
    },
    Experiment {
        id: "fig3h",
        title: "Fig 3h: mean latency (ms) vs #threads, 12-term queries, CW",
        body: Body::Grid(Rows::Threads(Scale::Cw), FOUR_HIGH, Stat::Mean),
        reference: &[],
    },
    Experiment {
        id: "fig3i",
        title: "Fig 3i: mean latency (ms) vs #threads, 12-term queries, CWX10",
        body: Body::Grid(Rows::Threads(Scale::CwX10), FOUR_HIGH, Stat::Mean),
        reference: &[],
    },
    Experiment {
        id: "fig4",
        title: "Fig 4: throughput (qps) vs #terms, CW, {threads}-thread pool",
        body: Body::Grid(Rows::Terms(Scale::Cw), FOUR_HIGH, Stat::Qps),
        reference: &[],
    },
    Experiment {
        id: "ablations",
        title: "Ablations: Sparta design choices, 12-term queries, exact",
        body: Body::Custom(ablations),
        reference: &[
            "(pNRA in Table 2 is the no-cleaner + no-local-maps + per-posting-UB ablation;",
            " γ rows are the probabilistic-pruning extension — §6 future work — so their",
            " results are approximate even without Δ)",
        ],
    },
    Experiment {
        id: "ramdisk",
        title: "RAM-resident vs disk-resident (SSD model) index",
        body: Body::Custom(ramdisk),
        reference: &[
            "(paper: all algorithms except pRA are insensitive to disk residency;",
            " pRA pays one random access per document scored)",
        ],
    },
];

/// The experiments `what` names: one ID, or every one for `all`.
fn select(what: &str) -> Option<&'static [Experiment]> {
    if what == "all" {
        return Some(EXPERIMENTS);
    }
    let i = EXPERIMENTS.iter().position(|e| e.id == what)?;
    Some(&EXPERIMENTS[i..=i])
}

/// Runs the experiments `what` names; an unknown name exits 2.
fn run_experiments(what: &str) {
    let Some(selected) = select(what) else {
        let ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
        eprintln!(
            "repro: unknown experiment {what:?}; expected one of: {} all",
            ids.join(" ")
        );
        std::process::exit(2);
    };
    let t0 = std::time::Instant::now();
    println!(
        "sparta repro: docs={} (x10={}), k={}, threads={}, queries/cell={}\n",
        sparta_bench::dataset::base_docs(),
        sparta_bench::dataset::base_docs() * 10,
        Dataset::cached(Scale::Cw).k,
        threads(),
        queries_per_cell()
    );
    for e in selected {
        println!(
            "== {} ==",
            e.title.replace("{threads}", &threads().to_string())
        );
        match e.body {
            Body::Grid(rows, cols, stat) => run_grid(rows, cols, stat),
            Body::Custom(run) => run(),
        }
        for line in e.reference {
            println!("{line}");
        }
        println!();
    }
    eprintln!("[{what} done in {:.1?}]", t0.elapsed());
}

/// Measures and prints one grid, a row at a time. Column labels name
/// the variant only where the grid mixes variants.
fn run_grid(rows: Rows, cols: &[Col], stat: Stat) {
    if stat == Stat::Recall {
        let (high, low) = (VariantParams::high(), VariantParams::low());
        println!(
            "calibrated params: Δ={:?}, f(high/low)={}/{}, p(high/low)={}/{}",
            high.delta.unwrap(),
            high.bmw_f,
            low.bmw_f,
            high.jass_p,
            low.jass_p
        );
    }
    let t = threads();
    let (axis, rows): (&str, Vec<Row>) = match rows {
        Rows::Corpus { voice_mix } => (
            "corpus",
            [Scale::Cw, Scale::CwX10]
                .map(|s| (s.name().to_string(), s, (!voice_mix).then_some(12), t))
                .into(),
        ),
        Rows::Terms(s) => (
            "terms",
            [1, 2, 4, 6, 8, 10, 12]
                .map(|m| (m.to_string(), s, Some(m), m.min(t)))
                .into(),
        ),
        Rows::Threads(s) => {
            println!(
                "  [note: this host has {} hardware core(s) — thread-count scaling measures",
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            );
            println!("   scheduling overhead here, not hardware parallelism; see EXPERIMENTS.md]");
            (
                "threads",
                [1, 2, 4, 8, 12]
                    .map(|n| (n.to_string(), s, Some(12), n))
                    .into(),
            )
        }
    };
    let mixed = cols.iter().any(|&(_, v)| v != cols[0].1);
    let labels: Vec<String> = cols
        .iter()
        .map(|&(a, v)| if mixed { format!("{a}-{v}") } else { a.into() })
        .collect();
    let aw = axis.len().max(6);
    print!("{axis:>aw$}");
    for l in &labels {
        print!(" {l:>w$}", w = l.len().max(9));
    }
    println!();
    for (label, scale, terms, workers) in rows {
        let ds = Dataset::cached(scale);
        let qs = match terms {
            Some(m) => ds.queries_of_length(m, queries_per_cell()).to_vec(),
            None => ds.queries.voice_mix((queries_per_cell() * 5).max(40), 99),
        };
        print!("{label:>aw$}");
        for (&(name, variant), l) in cols.iter().zip(&labels) {
            let v = measure_cell(ds, &qs, name, variant, stat, workers);
            print!(" {v:>w$}", w = l.len().max(9));
        }
        println!();
    }
}

/// One grid cell: `stat` of `name` at `variant` over `qs`.
fn measure_cell(
    ds: &Dataset,
    qs: &[Query],
    name: &str,
    variant: &str,
    stat: Stat,
    workers: usize,
) -> String {
    let a = algo(name);
    let params = variant_by_name(variant).unwrap_or_else(|| panic!("unknown variant {variant}"));
    let latency = || {
        run_latency_with(
            ds,
            a.as_ref(),
            qs,
            &params,
            workers,
            stat == Stat::Recall,
            None,
        )
    };
    match stat {
        Stat::Mean => fmt_ms(latency().mean()),
        Stat::P95 => fmt_ms(latency().percentile(0.95)),
        Stat::Recall => format!("{:.1}%", 100.0 * latency().mean_recall),
        // Throughput always runs on the shared SPARTA_THREADS pool.
        Stat::Qps => format!(
            "{:.2}",
            run_throughput(ds, a.as_ref(), qs, &params, threads())
        ),
    }
}

/// Figures 3f/3g: recall dynamics over elapsed time, 12-term queries.
fn fig3_dynamics(scale: Scale) {
    let ds = Dataset::cached(scale);
    let q = &ds.queries_of_length(12, 1)[0];
    let oracle = ds.oracle(q);
    let exec = WorkerPool::new(threads());
    let samples = 16;
    // Exact versions for Sparta/pRA/pJASS ("identical to the
    // respective exact versions until they stop", §5.3); pBMW in all
    // three variants.
    let runs: Vec<(&str, &str, VariantParams)> = vec![
        ("sparta", "exact", VariantParams::exact().with_trace()),
        ("pra", "exact", VariantParams::exact().with_trace()),
        ("pjass", "exact", VariantParams::exact().with_trace()),
        ("pbmw", "exact", VariantParams::exact().with_trace()),
        ("pbmw", "high", VariantParams::high().with_trace()),
        ("pbmw", "low", VariantParams::low().with_trace()),
    ];
    for (name, label, params) in runs {
        let start = Instant::now();
        let r = algo(name).search(&ds.index, q, &params.config(ds.k), &exec);
        let elapsed = start.elapsed();
        let trace = r.trace.clone().unwrap_or_default();
        let horizon = elapsed.max(Duration::from_micros(200));
        let curve = recall_dynamics(&trace, &oracle, horizon, samples);
        print!("{name:>7}-{label:<5} |");
        for (_, rec) in &curve {
            print!(
                "{}",
                match (rec * 10.0) as u32 {
                    0 => ' ',
                    1..=2 => '.',
                    3..=5 => 'o',
                    6..=8 => 'O',
                    _ => '#',
                }
            );
        }
        let t80 = time_to_recall(&curve, 0.8)
            .map(|t| format!("80% @ {}ms", fmt_ms(t)))
            .unwrap_or_else(|| "80% not reached".into());
        println!(
            "| total {}ms, {t80}, final {:.1}%",
            fmt_ms(elapsed),
            100.0 * oracle.recall(&r.docs())
        );
    }
    println!("( ' '<10% '.'<30% 'o'<60% 'O'<90% '#'>=90%, {samples} samples over each run )");
}

/// Ablations: Sparta's design choices isolated (DESIGN.md §6).
fn ablations() {
    let ds = Dataset::cached(Scale::Cw);
    let m = 12;
    let t = threads();
    let qs: Vec<_> = ds.queries_of_length(m, queries_per_cell()).to_vec();
    let run =
        |label: &str, cfg_fn: &dyn Fn(sparta_core::SearchConfig) -> sparta_core::SearchConfig| {
            let exec = WorkerPool::new(t);
            let base = VariantParams::exact().config(ds.k);
            let cfg = cfg_fn(base);
            let mut times = Vec::new();
            let mut postings = 0u64;
            let mut peak = 0u64;
            for q in &qs {
                let t0 = std::time::Instant::now();
                let r = algo("sparta").search(&ds.index, q, &cfg, &exec);
                times.push(t0.elapsed());
                postings += r.work.postings_scanned;
                peak = peak.max(r.work.docmap_peak);
            }
            times.sort();
            println!(
                "{label:>30}: mean {:>8}ms  postings/q {:>10}  docmap-peak {:>8}",
                fmt_ms(times.iter().sum::<Duration>() / times.len() as u32),
                postings / qs.len() as u64,
                peak
            );
        };
    run("baseline (Φ=10k, seg=1024)", &|c| c);
    run("no term-local maps (Φ=0)", &|c| c.with_phi(0));
    run("per-posting UB (seg=1)", &|c| c.with_seg_size(1));
    run("small segments (seg=64)", &|c| c.with_seg_size(64));
    run("huge segments (seg=16384)", &|c| c.with_seg_size(16384));
    run("probabilistic pruning γ=0.9", &|c| c.with_prune_gamma(0.9));
    run("probabilistic pruning γ=0.7", &|c| c.with_prune_gamma(0.7));
}

/// RAM-resident vs disk-resident indexes (§5: "in all cases, all
/// algorithms except pRA got similar results, which is not surprising
/// given that the algorithms traverse posting lists sequentially").
fn ramdisk() {
    use sparta_corpus::scoring::TfIdfScorer;
    use sparta_corpus::synth::{CorpusModel, SynthCorpus};
    use sparta_index::{DiskIndex, Index, IndexBuilder, IoModel};
    let docs = sparta_bench::dataset::base_docs().min(20_000);
    let corpus = SynthCorpus::build(CorpusModel::clueweb_sim(docs, 42));
    let builder = IndexBuilder::new(TfIdfScorer);
    let ram: Arc<dyn Index> = Arc::new(builder.build_memory(&corpus));
    let dir = std::env::temp_dir().join(format!("sparta-repro-ramdisk-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    builder.write_disk(&corpus, &dir).expect("write disk index");
    let disk: Arc<dyn Index> =
        Arc::new(DiskIndex::open(&dir, IoModel::ssd()).expect("open disk index"));
    let k = (docs / 100).clamp(10, 1000) as usize;
    let log = sparta_corpus::querylog::QueryLog::generate(corpus.stats(), 10, 12, 7);
    let cfg = VariantParams::high().config(k);
    let exec = WorkerPool::new(threads());
    println!(
        "{:>7} {:>11} {:>11} {:>8}",
        "algo", "ram(ms)", "disk(ms)", "ratio"
    );
    for name in ["sparta", "pbmw", "pjass", "pra"] {
        let a = algo(name);
        let mut times = (Duration::ZERO, Duration::ZERO);
        let qs = log.of_length(8);
        for q in qs {
            let t0 = std::time::Instant::now();
            a.search(&ram, q, &cfg, &exec);
            times.0 += t0.elapsed();
            let t0 = std::time::Instant::now();
            a.search(&disk, q, &cfg, &exec);
            times.1 += t0.elapsed();
        }
        let n = qs.len() as u32;
        let (ram_t, disk_t) = (times.0 / n, times.1 / n);
        println!(
            "{name:>7} {:>11} {:>11} {:>7.1}x",
            fmt_ms(ram_t),
            fmt_ms(disk_t),
            disk_t.as_secs_f64() / ram_t.as_secs_f64().max(1e-9)
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `load [flags]`: the open-loop latency-under-load sweep against the
/// admission controller (default: deterministic simulation) or a live
/// TCP server (`--tcp`). With `--emit-json <name>` the sweep is
/// embedded as the `"load"` block of `out/BENCH_<name>.json`.
///
/// Flags: `--qps a,b,c` offered rates, `--queries N` per level,
/// `--seed N`, `--burst N` (burst arrivals of size N instead of
/// Poisson), `--max-in-flight N`, `--queue-capacity N`,
/// `--service-us N` (simulated mean service time), `--tcp`,
/// `--backend raw|compressed` (posting backend the TCP server
/// serves from), `--latency-budget-ms X` (p99 budget the saturation
/// analysis detects the knee against).
fn load_cmd(args: &[String]) {
    use sparta_bench::{run_load_sim, run_load_tcp, BenchReport, LoadConfig};
    use sparta_server::admission::AdmissionConfig;
    use sparta_server::protocol::QueryRequest;
    use sparta_server::scheduler::BatchScheduler;

    let mut cfg = LoadConfig::default();
    let mut emit: Option<String> = None;
    let mut tcp = false;
    let mut backend = IndexKind::Raw;
    let mut it = args.iter();
    let value = |it: &mut std::slice::Iter<'_, String>, flag: &str| -> String {
        it.next()
            .unwrap_or_else(|| panic!("{flag} needs a value"))
            .clone()
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--emit-json" => emit = Some(value(&mut it, arg)),
            "--seed" => cfg.seed = value(&mut it, arg).parse().expect("--seed: u64"),
            "--qps" => {
                cfg.qps_levels = value(&mut it, arg)
                    .split(',')
                    .map(|s| s.trim().parse().expect("--qps: comma-separated floats"))
                    .collect();
                assert!(!cfg.qps_levels.is_empty(), "--qps needs at least one level");
            }
            "--queries" => {
                cfg.queries_per_level = value(&mut it, arg).parse().expect("--queries: usize")
            }
            "--burst" => {
                cfg.burst_size = Some(value(&mut it, arg).parse().expect("--burst: usize"))
            }
            "--max-in-flight" => {
                cfg.admission = AdmissionConfig::new(
                    value(&mut it, arg).parse().expect("--max-in-flight: usize"),
                    cfg.admission.queue_capacity,
                )
            }
            "--queue-capacity" => {
                cfg.admission = AdmissionConfig::new(
                    cfg.admission.max_in_flight,
                    value(&mut it, arg)
                        .parse()
                        .expect("--queue-capacity: usize"),
                )
            }
            "--service-us" => {
                cfg.service_ns = value(&mut it, arg)
                    .parse::<u64>()
                    .expect("--service-us: u64")
                    * 1_000
            }
            "--tcp" => tcp = true,
            "--latency-budget-ms" => {
                cfg.latency_budget_ms = value(&mut it, arg)
                    .parse()
                    .expect("--latency-budget-ms: f64");
                assert!(
                    cfg.latency_budget_ms > 0.0,
                    "--latency-budget-ms must be positive"
                );
            }
            "--backend" => {
                let v = value(&mut it, arg);
                backend = IndexKind::parse(&v)
                    .unwrap_or_else(|| panic!("--backend: {v:?} is not raw|compressed"));
            }
            other => panic!("unknown load flag {other:?}"),
        }
    }

    let (load, docs, k, index) = if tcp {
        let ds = Dataset::cached_kind(Scale::Cw, backend);
        println!(
            "serving from {} index ({} bytes; raw build {} bytes)",
            ds.backend,
            ds.index.footprint().map(|f| f.total()).unwrap_or(0),
            ds.raw_footprint.total()
        );
        let metrics = sparta_obs::ServerMetrics::new();
        // Spans on: the sweep is also what CI scrapes `/debug/profile`
        // against, and phase attribution needs SpanBegin/SpanEnd events
        // in the server's flight-recorder rings.
        let scheduler = BatchScheduler::new(
            Arc::clone(&ds.index),
            sparta_core::SearchConfig::exact(ds.k).with_spans(true),
            threads(),
            cfg.admission,
            metrics,
        );
        let handle = sparta_server::serve_with_admin("127.0.0.1:0", "127.0.0.1:0", scheduler)
            .expect("bind loopback server");
        let requests: Vec<QueryRequest> = ds
            .queries_of_length(4, 64)
            .iter()
            .map(|q| QueryRequest {
                k: ds.k as u32,
                algorithm: "sparta".to_string(),
                terms: q.terms.clone(),
            })
            .collect();
        let report = run_load_tcp(
            handle.addr(),
            handle.metrics(),
            &cfg,
            &requests,
            handle.admin_addr(),
        );
        // Scrape the profiling plane while the server is still live:
        // the collapsed profile and the metrics-history ring both come
        // from the same sweep the report describes.
        if let Some(admin) = handle.admin_addr() {
            match sparta_server::http_get(admin, "/debug/profile?format=collapsed") {
                Ok((200, body)) => println!(
                    "debug profile scrape: {} collapsed lines",
                    body.lines().count()
                ),
                other => println!("debug profile scrape failed: {other:?}"),
            }
            match sparta_server::http_get(admin, "/debug/history") {
                Ok((200, body)) => {
                    let doc = sparta_obs::json::parse(&body).expect("history JSON parses");
                    let samples = doc
                        .get("samples")
                        .and_then(|s| s.as_arr())
                        .map_or(0, <[sparta_obs::json::Json]>::len);
                    let overwritten = doc
                        .get("overwritten")
                        .and_then(sparta_obs::json::Json::as_f64)
                        .unwrap_or(-1.0);
                    println!("debug history scrape: {samples} samples, overwritten={overwritten}");
                }
                other => println!("debug history scrape failed: {other:?}"),
            }
        }
        handle.shutdown();
        if let Some(scrape) = &report.server {
            let e2e = scrape
                .stages
                .iter()
                .find(|s| s.stage == "end_to_end")
                .map(|s| (s.count, s.sum_ns))
                .unwrap_or((0, 0));
            println!(
                "admin scrape: {} scrapes, monotone={}, server accepted={} shed={} e2e_count={} e2e_sum_ns={}",
                scrape.scrapes,
                scrape.monotone,
                scrape.snapshot.accepted,
                scrape.snapshot.shed,
                e2e.0,
                e2e.1
            );
        }
        let index = ds.index.footprint().map(|fp| sparta_bench::IndexReport {
            backend: ds.backend.name().to_string(),
            footprint_bytes: fp.total(),
            raw_footprint_bytes: ds.raw_footprint.total(),
        });
        (report, sparta_bench::dataset::base_docs(), ds.k, index)
    } else {
        (run_load_sim(&cfg), 0, 0, None)
    };

    println!(
        "load sweep: {} arrivals, mode={}, seed={:#x}, budget={} queue={}",
        load.arrival, load.mode, load.seed, load.max_in_flight, load.queue_capacity
    );
    println!(
        "{:>10} {:>8} {:>8} {:>6} {:>10} {:>10} {:>10} {:>9}",
        "offered/s", "accepted", "shed", "queued", "p50 ms", "p99 ms", "p999 ms", "depth_hw"
    );
    for l in &load.levels {
        let lat = |p: f64| {
            let sorted: Vec<Duration> = l
                .latencies_ns
                .iter()
                .map(|&n| Duration::from_nanos(n))
                .collect();
            sparta_bench::percentile(&sorted, p).as_secs_f64() * 1e3
        };
        println!(
            "{:>10.0} {:>8} {:>8} {:>6} {:>10.3} {:>10.3} {:>10.3} {:>9}",
            l.offered_qps,
            l.snapshot.accepted,
            l.snapshot.shed,
            l.snapshot.queued,
            lat(0.50),
            lat(0.99),
            lat(0.999),
            l.snapshot.queue_depth_highwater
        );
    }
    if let Some(sat) = &load.saturation {
        println!(
            "saturation: knee_detected={} knee_qps={:.0} knee_p99_ms={:.3} dominant_wait={} \
             in_flight_utilization={:.2} (budget {} ms)",
            sat.knee_detected,
            sat.knee_qps,
            sat.knee_p99_ms,
            sat.dominant_wait,
            sat.in_flight_utilization,
            sat.latency_budget_ms
        );
    }

    if let Some(name) = emit {
        let report = BenchReport {
            name,
            docs,
            k,
            queries_per_cell: cfg.queries_per_level,
            terms_per_query: 0,
            cells: Vec::new(),
            index,
            recall_curves: Vec::new(),
            recorder: None,
            load: Some(load),
        };
        let path = report
            .write_to(std::path::Path::new("out"))
            .expect("write load JSON");
        println!(
            "wrote {} ({} levels)",
            path.display(),
            report.load.as_ref().unwrap().levels.len()
        );
    }
}

/// `--emit-json <name>`: measures the case-study grid (every parallel
/// algorithm × {exact, high} × {1, 2, SPARTA_THREADS} threads, on both
/// the raw and the compressed posting backends) and writes
/// `out/BENCH_<name>.json`. The report's `"index"` block carries the
/// compressed footprint against the raw build of the same corpus.
fn emit_json(name: &str) {
    let algorithms = ["sparta", "pnra", "snra", "pra", "pbmw", "pjass"];
    let variants = [VariantParams::exact(), VariantParams::high()];
    let mut thread_counts = vec![1, 2, threads()];
    thread_counts.sort_unstable();
    thread_counts.dedup();
    let build = |kind: IndexKind| {
        sparta_bench::export::build_report(
            Dataset::cached_kind(Scale::Cw, kind),
            name,
            &algorithms,
            &variants,
            &thread_counts,
            queries_per_cell(),
            6,
        )
    };
    let mut report = build(IndexKind::Raw);
    let compressed = build(IndexKind::Compressed);
    // One document, both backends: the compressed cells ride along and
    // the size accounting comes from the compressed dataset (which
    // also measured the raw build of the identical corpus).
    report.cells.extend(compressed.cells);
    report.index = compressed.index;
    if let Some(ix) = &report.index {
        println!(
            "index: compressed {} bytes vs raw {} bytes ({:.2}x smaller)",
            ix.footprint_bytes,
            ix.raw_footprint_bytes,
            ix.compression_ratio()
        );
    }
    let path = report
        .write_to(std::path::Path::new("out"))
        .expect("write benchmark JSON");
    println!(
        "wrote {} ({} cells, {} recall curves)",
        path.display(),
        report.cells.len(),
        report.recall_curves.len()
    );
}

/// The perf-guard cell is pinned end to end: corpus size, k, query
/// shape, and the deterministic schedule seed. Work counters from this
/// cell are bit-reproducible (see `same_seed_is_bit_identical`), so
/// the guard compares them for *equality* — any drift in
/// `postings_scanned` or `heap_updates` is an algorithmic change, not
/// noise, and must be acknowledged by regenerating the baseline.
const GUARD_DOCS: &str = "4000";
const GUARD_K: &str = "20";
const GUARD_SEED: u64 = 0x5eed_caf3;
const GUARD_QUERIES: usize = 4;
const GUARD_TERMS: usize = 6;
const GUARD_ALGOS: [&str; 5] = ["sparta", "pnra", "pbmw", "pjass", "pra"];

/// One guard cell's schedule-independent counters. `postings`/`heap`
/// are backend-independent on the bit-exact compressed format;
/// `blocks_skipped`/`blocks_decoded` are the compressed backend's
/// block-max-pruning and decode evidence; `random_accesses` is pRA's
/// probe count.
#[derive(Debug, Default)]
struct GuardCell {
    name: String,
    postings: u64,
    heap: u64,
    random_accesses: u64,
    blocks_skipped: u64,
    blocks_decoded: u64,
}

impl GuardCell {
    fn get(&self, key: &str) -> u64 {
        match key {
            "postings_scanned" => self.postings,
            "heap_updates" => self.heap,
            "random_accesses" => self.random_accesses,
            "blocks_skipped" => self.blocks_skipped,
            "blocks_decoded" => self.blocks_decoded,
            other => panic!("unknown guard counter {other:?}"),
        }
    }

    /// The guard's common `keys` plus the counters only this cell
    /// carries: pRA is the one guard algorithm that probes.
    fn keys<'a>(&self, keys: &'a [&'a str]) -> impl Iterator<Item = &'a str> {
        let extra: &[&str] = if self.name == "pra" {
            &["random_accesses"]
        } else {
            &[]
        };
        keys.iter().chain(extra).copied()
    }
}

/// A logical-clock recorder sized for one replay of the guard cell.
fn guard_recorder() -> Arc<FlightRecorder> {
    FlightRecorder::new(4, 1 << 15, ClockMode::Logical)
}

/// Replays the pinned guard cell on `kind`: every guard algorithm over
/// the guard queries, query `i` under the deterministic schedule
/// `GUARD_SEED + i`. With a `recorder`, the runs also record heap
/// traces and phase spans on the logical clock into it. Returns each
/// algorithm's summed counters.
fn replay_guard_cell(kind: IndexKind, recorder: Option<&Arc<FlightRecorder>>) -> Vec<GuardCell> {
    std::env::set_var("SPARTA_DOCS", GUARD_DOCS);
    std::env::set_var("SPARTA_K", GUARD_K);
    let ds = Dataset::build_kind(Scale::Cw, kind);
    let qs = ds.queries_of_length(GUARD_TERMS, GUARD_QUERIES);
    let mut cfg = VariantParams::exact().config(ds.k);
    if recorder.is_some() {
        cfg = cfg
            .with_trace(true)
            .with_spans(true)
            .with_clock(ClockMode::Logical);
    }
    let io = ds.index.io_stats();
    GUARD_ALGOS
        .iter()
        .map(|&name| {
            let a = algo(name);
            let mut cell = GuardCell {
                name: name.to_string(),
                ..GuardCell::default()
            };
            for (i, q) in qs.iter().enumerate() {
                let mut exec =
                    sparta_exec::DeterministicExecutor::new(GUARD_SEED.wrapping_add(i as u64));
                if let Some(rec) = recorder {
                    exec = exec.with_recorder(Arc::clone(rec));
                }
                let decode0 = io.map(|s| s.decode_snapshot()).unwrap_or_default();
                let r = a.search(&ds.index, q, &cfg, &exec);
                let decode1 = io.map(|s| s.decode_snapshot()).unwrap_or_default();
                cell.postings += r.work.postings_scanned;
                cell.heap += r.work.heap_updates;
                cell.random_accesses += r.work.random_accesses;
                cell.blocks_skipped += r.work.blocks_skipped;
                cell.blocks_decoded += decode1.0.saturating_sub(decode0.0);
            }
            cell
        })
        .collect()
}

fn perf_guard_json(cells: &[GuardCell], keys: &[&str]) -> sparta_obs::json::Json {
    use sparta_obs::json::Json;
    Json::obj()
        .with("schema_version", 1u64)
        .with("docs", GUARD_DOCS.parse::<u64>().unwrap())
        .with("k", GUARD_K.parse::<u64>().unwrap())
        .with("queries", GUARD_QUERIES)
        .with("terms", GUARD_TERMS)
        .with("seed", GUARD_SEED)
        .with(
            "cells",
            Json::Arr(
                cells
                    .iter()
                    .map(|c| {
                        let mut j = Json::obj().with("algorithm", c.name.as_str());
                        for key in c.keys(keys) {
                            j = j.with(key, c.get(key));
                        }
                        j
                    })
                    .collect(),
            ),
        )
}

/// Shared guard body: with `write`, records `keys` of every cell into
/// `<baseline>`; otherwise compares for equality and exits non-zero on
/// any drift.
fn guard_against(path: &str, cells: &[GuardCell], keys: &[&str], write: bool) {
    if write {
        std::fs::write(path, perf_guard_json(cells, keys).to_pretty_string(2))
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("{path}: baseline written ({} cells)", cells.len());
        return;
    }
    if drifted_from(path, cells, keys) {
        eprintln!(
            "perf guard FAILED; if the change is intentional, regenerate with \
             `repro --perf-guard {path} --write` (or --perf-guard-compressed)"
        );
        std::process::exit(1);
    }
    println!("perf guard ok ({} cells)", cells.len());
}

/// Compares `keys` of every cell (plus its own extra counters) with the
/// baseline at `path`, printing each comparison. Returns whether any
/// counter drifted.
fn drifted_from(path: &str, cells: &[GuardCell], keys: &[&str]) -> bool {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
    let doc = sparta_obs::json::parse(&text).expect("baseline parses");
    let base = doc.get("cells").and_then(|c| c.as_arr()).unwrap_or(&[]);
    let mut drifted = false;
    for cell in cells {
        let name = cell.name.as_str();
        let Some(b) = base
            .iter()
            .find(|c| c.get("algorithm").and_then(|a| a.as_str()) == Some(name))
        else {
            eprintln!("{name}: missing from baseline {path}");
            drifted = true;
            continue;
        };
        for key in cell.keys(keys) {
            let got = cell.get(key);
            let want = b.get(key).and_then(|v| v.as_f64()).unwrap_or(-1.0);
            if want != got as f64 {
                eprintln!("{name}: {key} drifted — {path} has {want}, measured {got}");
                drifted = true;
            } else {
                println!("{name}: {key} = {got} (matches {path})");
            }
        }
    }
    drifted
}

/// `--perf-guard <baseline> [--write]`: replays the pinned
/// deterministic cell on the raw backend (`--perf-guard-compressed`:
/// on the compressed one). With `--write`, records the counters into
/// `<baseline>`; otherwise compares against the checked-in baseline
/// and exits non-zero on any drift. `SPARTA_RECORDER=1` replays with a
/// flight recorder attached — the counters must not notice.
fn perf_guard(path: &str, kind: IndexKind, write: bool) {
    let recorder = (std::env::var("SPARTA_RECORDER").as_deref() == Ok("1")).then(guard_recorder);
    let cells = replay_guard_cell(kind, recorder.as_ref());
    let mut keys = vec!["postings_scanned", "heap_updates"];
    if kind == IndexKind::Compressed {
        check_compressed_machinery(&cells);
        keys.extend(["blocks_skipped", "blocks_decoded"]);
    }
    guard_against(path, &cells, &keys, write);
}

/// Beyond the equality check against its own baseline, the compressed
/// guard asserts the backend is bit-exact and actually exercises its
/// machinery: the work counters the raw guard pins (postings, heap
/// updates, pRA's random accesses) equal the raw baseline's, every
/// algorithm decodes blocks, pBMW's block-max pruning still skips
/// block groups, and pRA's probes stay point lookups that decode no
/// block.
fn check_compressed_machinery(cells: &[GuardCell]) {
    let raw = "BENCH_perf_guard.json";
    assert!(
        !drifted_from(raw, cells, &["postings_scanned", "heap_updates"]),
        "the compressed run's work counters differ from the raw baseline {raw}"
    );
    for c in cells {
        assert!(
            c.blocks_decoded > 0,
            "{}: compressed run decoded no blocks — the backend was not exercised",
            c.name
        );
        println!(
            "{}: blocks_decoded={} blocks_skipped={}",
            c.name, c.blocks_decoded, c.blocks_skipped
        );
    }
    let pbmw = cells
        .iter()
        .find(|c| c.name == "pbmw")
        .expect("pbmw is a guard algorithm");
    assert!(
        pbmw.blocks_skipped > 0,
        "pbmw skipped no blocks on the pinned cell — block-max pruning stopped firing"
    );
    // A probe is a point lookup, not a block decode: pRA decodes only
    // the score-ordered blocks it scans (at most one partial block per
    // term cursor).
    let pra = cells
        .iter()
        .find(|c| c.name == "pra")
        .expect("pra is a guard algorithm");
    let scan_blocks = pra
        .postings
        .div_ceil(sparta_index::DEFAULT_BLOCK_SIZE as u64)
        + (GUARD_TERMS * GUARD_QUERIES) as u64;
    assert!(
        pra.blocks_decoded <= scan_blocks,
        "pra decoded {} blocks for {} scanned postings — random access regressed to block decode",
        pra.blocks_decoded,
        pra.postings
    );
}

/// `--emit-trace <name>`: replays the pinned perf-guard cell under the
/// deterministic executor with a logical-clock flight recorder
/// attached, and writes the per-worker timeline as Chrome trace-event
/// JSON (`out/TRACE_<name>.json`, loadable in chrome://tracing or
/// Perfetto). Deterministic end to end: two runs emit byte-identical
/// files.
fn emit_trace(trace_name: &str) {
    let rec = guard_recorder();
    replay_guard_cell(IndexKind::Raw, Some(&rec));
    let text = sparta_obs::chrome_trace_string(&rec);
    let path = sparta_bench::out_path(
        std::path::Path::new("out"),
        &format!("TRACE_{trace_name}"),
        "json",
    )
    .expect("resolve trace path");
    std::fs::write(&path, &text).unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    println!(
        "wrote {} ({} events recorded, {} dropped, {} workers)",
        path.display(),
        rec.total_events(),
        rec.dropped_events(),
        rec.worker_count()
    );
}

/// `profile [name] [--collapsed]`: replays the pinned perf-guard cell
/// under the deterministic executor with a logical-clock flight
/// recorder, folds the rings into an aggregate profile (per-worker
/// utilization breakdown, per-phase self time), and
/// writes it to `out/PROFILE_<name>.json`. Deterministic end to end:
/// two runs emit byte-identical files, so CI pins the bytes. With
/// `--collapsed`, also prints the flamegraph-collapsed rendering
/// (pipe into `flamegraph.pl`).
fn profile_cmd(args: &[String]) {
    let mut profile_name = "run".to_string();
    let mut collapsed = false;
    for arg in args {
        match arg.as_str() {
            "--collapsed" => collapsed = true,
            other if !other.starts_with("--") => profile_name = other.to_string(),
            other => panic!("unknown profile flag {other:?}"),
        }
    }
    let rec = guard_recorder();
    replay_guard_cell(IndexKind::Raw, Some(&rec));
    let profile = sparta_obs::profile_recorder(&rec);
    let text = profile.to_json().to_pretty_string(2);
    sparta_obs::validate_profile_json(&text)
        .unwrap_or_else(|e| panic!("emitted profile violates its own schema: {e}"));
    let path = sparta_bench::out_path(
        std::path::Path::new("out"),
        &format!("PROFILE_{profile_name}"),
        "json",
    )
    .expect("resolve profile path");
    std::fs::write(&path, &text).unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    println!(
        "{:>7} {:>8} {:>7} {:>7} {:>7}",
        "worker", "events", "busy", "parked", "queue"
    );
    for w in &profile.workers {
        println!(
            "{:>7} {:>8} {:>6.1}% {:>6.1}% {:>6.1}%",
            w.worker,
            w.events,
            100.0 * w.busy_fraction(),
            100.0 * w.parked_fraction(),
            100.0 * w.queue_wait_fraction()
        );
    }
    for p in &profile.phases {
        println!(
            "phase {:>12}: count {:>6} inclusive {:>10} self {:>10}",
            p.phase.as_str(),
            p.count,
            p.total_ticks,
            p.self_ticks
        );
    }
    if collapsed {
        print!("{}", profile.to_collapsed());
    }
    println!(
        "wrote {} ({} events folded, {} dropped, {} skipped reads)",
        path.display(),
        profile.events_folded,
        profile.dropped_events,
        profile.skipped_reads
    );
}

/// `--validate-trace <path>`: parses an emitted Chrome trace and checks
/// the schema, exiting non-zero on any drift.
fn validate_trace(path: &str) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    match sparta_obs::validate_trace_json(&text) {
        Ok(()) => println!("{path}: trace schema ok"),
        Err(e) => {
            eprintln!("{path}: trace schema violation: {e}");
            std::process::exit(1);
        }
    }
}

/// `--validate-json <path>`: parses an emitted document and checks the
/// schema, exiting non-zero on any drift.
fn validate_json(path: &str) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    match sparta_bench::validate_bench_json(&text) {
        Ok(()) => println!("{path}: schema ok"),
        Err(e) => {
            eprintln!("{path}: schema violation: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let arg = |i: usize| args.get(i).map(String::as_str);
    match arg(0) {
        Some("--emit-json") => emit_json(arg(1).unwrap_or("run")),
        Some("--validate-json") => validate_json(arg(1).expect("--validate-json needs a path")),
        Some("--emit-trace") => emit_trace(arg(1).unwrap_or("run")),
        Some("--validate-trace") => validate_trace(arg(1).expect("--validate-trace needs a path")),
        Some("load") => load_cmd(&args[1..]),
        Some("profile") => profile_cmd(&args[1..]),
        Some(flag @ ("--perf-guard" | "--perf-guard-compressed")) => {
            let (kind, baseline) = if flag == "--perf-guard" {
                (IndexKind::Raw, "BENCH_perf_guard.json")
            } else {
                (IndexKind::Compressed, "BENCH_perf_guard_compressed.json")
            };
            let path = args
                .iter()
                .skip(1)
                .find(|a| *a != "--write")
                .map_or(baseline, String::as_str);
            perf_guard(path, kind, args.iter().any(|a| a == "--write"));
        }
        what => run_experiments(what.unwrap_or("all")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_ids_are_unique() {
        let mut ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), EXPERIMENTS.len());
    }

    /// `all` runs every experiment in the order DESIGN.md §5 names
    /// their `repro <id>` commands.
    #[test]
    fn all_runs_in_design_order() {
        let design = include_str!("../../../../DESIGN.md");
        let section = &design[design.find("## 5.").unwrap()..design.find("## 6.").unwrap()];
        let mut documented: Vec<&str> = Vec::new();
        for cmd in section.split("`repro ").skip(1) {
            let id = cmd.split('`').next().unwrap();
            if !documented.contains(&id) {
                documented.push(id);
            }
        }
        let all: Vec<&str> = select("all").unwrap().iter().map(|e| e.id).collect();
        assert_eq!(all, documented);
    }

    #[test]
    fn every_grid_column_resolves() {
        for e in EXPERIMENTS {
            let Body::Grid(_, cols, _) = e.body else {
                continue;
            };
            for &(name, variant) in cols {
                assert!(
                    algorithm_by_name(name).is_some(),
                    "{}: unknown algorithm {name}",
                    e.id
                );
                assert!(
                    matches!(variant, "exact" | "high" | "low")
                        && variant_by_name(variant).is_some(),
                    "{}: unknown variant {variant}",
                    e.id
                );
            }
        }
    }

    #[test]
    fn unknown_id_is_rejected() {
        assert!(select("bogus").is_none());
        assert!(select("").is_none());
        assert_eq!(select("fig3a").map(<[Experiment]>::len), Some(1));
    }
}
