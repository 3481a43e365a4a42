//! The repo benchmark: four workloads, end-to-end metrics untraced,
//! per-layer metrics traced. See `README.md` beside `Cargo.toml` and
//! `BENCHMARK.json` at the repo root.
//!
//! ```text
//! sparta-benchmark run --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out-dir DIR]
//! sparta-benchmark all [--seed N] [--seconds S] [--quick] [--out-dir DIR]
//! sparta-benchmark check <runA> <runB>
//! sparta-benchmark check --self [options of `all`]
//! ```

// One FFI call (`malloc_trim`, in `run.rs`) is the only unsafe code.
#![deny(unsafe_code)]

mod check;
mod phases;
mod probes;
mod run;
mod spec;
mod stats;
mod trace;
mod workload;

use check::RunSet;
use run::RunOpts;
use sparta_obs::json::{self, Json};
use spec::Spec;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// The seed every baseline is recorded at. A gain must also hold on a
/// seed not used while the change was written (`--seed` ≠ this).
const DEFAULT_SEED: u64 = 20200222;

/// `--seconds` under `--quick`.
const QUICK_SECONDS: f64 = 1.0;

/// Untraced runs per workload in `all`: the sample the run-to-run
/// spread is taken from. Fixed, so the spreads of any two run sets are
/// taken over the same number of runs.
const RUNS: u64 = 10;

/// The same under `--quick`.
const QUICK_RUNS: u64 = 1;

/// Parsed command line: `--flag value` pairs, bare switches, and
/// positional arguments.
struct Args {
    flags: BTreeMap<String, String>,
    switches: Vec<String>,
    positional: Vec<String>,
}

const SWITCHES: [&str; 2] = ["--quick", "--self"];
const FLAGS: [&str; 5] = ["--workload", "--seed", "--seconds", "--trace", "--out-dir"];

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut args = Args {
            flags: BTreeMap::new(),
            switches: Vec::new(),
            positional: Vec::new(),
        };
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            if SWITCHES.contains(&a.as_str()) {
                args.switches.push(a.clone());
            } else if a.starts_with("--") {
                if !FLAGS.contains(&a.as_str()) {
                    return Err(format!("unknown option {a}"));
                }
                let v = it.next().ok_or_else(|| format!("{a} needs a value"))?;
                args.flags.insert(a.clone(), v.clone());
            } else {
                args.positional.push(a.clone());
            }
        }
        Ok(args)
    }

    fn has(&self, switch: &str) -> bool {
        self.switches.iter().any(|s| s == switch)
    }

    fn get<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.flags
            .get(flag)
            .map(|v| v.parse().map_err(|_| format!("{flag}: cannot parse {v:?}")))
            .transpose()
    }

    /// Where run details, traces and run sets go: `out/` beside the
    /// benchmark's manifest unless told otherwise.
    fn out_dir(&self) -> PathBuf {
        match self.flags.get("--out-dir") {
            Some(d) => PathBuf::from(d),
            None => std::env::var_os("CARGO_MANIFEST_DIR")
                .map_or_else(|| PathBuf::from("benchmark"), PathBuf::from)
                .join("out"),
        }
    }

    fn seconds(&self, spec: &Spec) -> Result<f64, String> {
        let default = if self.has("--quick") {
            QUICK_SECONDS
        } else {
            spec.run_seconds
        };
        let s = self.get("--seconds")?.unwrap_or(default);
        if s > 0.0 {
            Ok(s)
        } else {
            Err("--seconds must be positive".into())
        }
    }
}

fn write_json(path: &Path, doc: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc.to_pretty_string(1))
        .map_err(|e| format!("write {}: {e}", path.display()))
}

/// `run`: one workload, one process. The last line on stdout is the
/// result object.
fn cmd_run(args: &Args, spec: &Spec) -> Result<bool, String> {
    let name: String = args
        .get("--workload")?
        .ok_or("run needs --workload <name>")?;
    let def = workload::workload_by_name(&name).ok_or_else(|| {
        format!(
            "unknown workload {name:?}; known: {}",
            spec.workloads.join(", ")
        )
    })?;
    let def = if args.has("--quick") {
        def.quick()
    } else {
        def
    };
    let trace = match args.get::<u8>("--trace")?.unwrap_or(0) {
        0 => false,
        1 => true,
        other => return Err(format!("--trace takes 0 or 1, got {other}")),
    };
    let opts = RunOpts {
        seed: args.get("--seed")?.unwrap_or(DEFAULT_SEED),
        seconds: args.seconds(spec)?,
        trace,
        threads: run::default_threads(),
    };
    let result = run::run_workload(&def, &opts);
    let summary = result.summary_json(spec, trace);
    let out_dir = args.out_dir();
    let detail = result.detail.clone().with("result", summary.clone());
    write_json(
        &out_dir.join(format!("RUN_{}_trace{}.json", def.name, u8::from(trace))),
        &detail,
    )?;
    if let Some(t) = &result.trace {
        write_json(&out_dir.join(format!("TRACE_{}.json", def.name)), t)?;
    }
    println!("{summary}");
    // A run that measured and printed exits 0 even when answers were
    // wrong: `correct` and `failed` in the result carry that.
    Ok(true)
}

/// Runs `run` in a fresh process (so `peak_rss_mb` is that workload's
/// alone) and returns its result object.
fn child_run(
    workload: &str,
    seed: u64,
    trace: bool,
    args: &Args,
    spec: &Spec,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("run")
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds(spec)?.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(args.out_dir())
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if args.has("--quick") {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| format!("spawn run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().rev().find(|l| !l.trim().is_empty());
    match line.map(json::parse) {
        Some(Ok(doc)) => Ok(doc),
        _ => Err(format!(
            "{workload} seed {seed}: no result line (exit {})",
            out.status
        )),
    }
}

/// `all`: every workload, [`RUNS`] untraced runs on consecutive seeds
/// plus one traced run, one table of every metric. Returns the run set
/// and whether every run was correct.
fn run_all(args: &Args, spec: &Spec) -> Result<(RunSet, bool), String> {
    let seed = args.get("--seed")?.unwrap_or(DEFAULT_SEED);
    let runs = if args.has("--quick") {
        QUICK_RUNS
    } else {
        RUNS
    };
    let mut set = RunSet {
        seed,
        seconds: args.seconds(spec)?,
        threads: run::default_threads() as u64,
        ..RunSet::default()
    };
    let mut all_correct = true;
    for w in &spec.workloads {
        let plan = (0..runs).map(|r| (seed + r, false)).chain([(seed, true)]);
        for (run_seed, trace) in plan {
            eprintln!("[all] {w} seed {run_seed} trace {}", u8::from(trace));
            let doc = child_run(w, run_seed, trace, args, spec)?;
            if doc.get("correct") != Some(&Json::Bool(true)) {
                eprintln!("[all] {w} seed {run_seed}: run reported failures: {doc}");
                all_correct = false;
            }
            let Some(Json::Obj(metrics)) = doc.get("metrics") else {
                return Err(format!("{w}: result has no metrics"));
            };
            let slot = set.workloads.entry(w.clone()).or_default();
            for (name, m) in metrics {
                let value = m
                    .get("value")
                    .and_then(Json::as_f64)
                    .ok_or("metric without value")?;
                slot.entry(name.clone()).or_default().push(value);
            }
        }
    }
    print_table(spec, &set);
    Ok((set, all_correct))
}

/// Every metric by name with its unit: median over the runs, and the
/// run-to-run spread where there is more than one run.
fn print_table(spec: &Spec, set: &RunSet) {
    println!(
        "{:<24} {:<36} {:<8} {:>16} {:>8} {:>4}",
        "workload", "metric", "unit", "median", "iqr", "n"
    );
    for w in &spec.workloads {
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            let Some(values) = set.workloads.get(w).and_then(|x| x.get(&m.name)) else {
                continue;
            };
            let spread =
                stats::iqr_share(values).map_or("-".to_string(), |s| format!("{:.1}%", s * 100.0));
            println!(
                "{w:<24} {:<36} {:<8} {:>16.4} {spread:>8} {:>4}",
                m.name,
                m.unit,
                stats::median(values),
                values.len()
            );
        }
    }
}

fn cmd_all(args: &Args, spec: &Spec) -> Result<bool, String> {
    let (set, correct) = run_all(args, spec)?;
    let path = args.out_dir().join(format!("ALL_{}.json", set.seed));
    write_json(&path, &set.to_json())?;
    eprintln!("[all] run set written to {}", path.display());
    Ok(correct)
}

fn cmd_check(args: &Args, spec: &Spec) -> Result<bool, String> {
    let (a, b) = if args.has("--self") {
        let (a, ok_a) = run_all(args, spec)?;
        let (b, ok_b) = run_all(args, spec)?;
        let dir = args.out_dir();
        write_json(&dir.join("SELF_A.json"), &a.to_json())?;
        write_json(&dir.join("SELF_B.json"), &b.to_json())?;
        if !(ok_a && ok_b) {
            return Ok(false);
        }
        (a, b)
    } else {
        let [pa, pb] = args.positional.as_slice() else {
            return Err("check needs <runA> <runB>, or --self".into());
        };
        let load = |p: &String| {
            let text = std::fs::read_to_string(p).map_err(|e| format!("read {p}: {e}"))?;
            RunSet::parse(&text).map_err(|e| format!("{p}: {e}"))
        };
        (load(pa)?, load(pb)?)
    };
    let (table, regressed) = check::compare(spec, &a, &b)?;
    print!("{table}");
    Ok(!regressed)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = raw.split_first() else {
        eprintln!("usage: sparta-benchmark <run|all|check> [options] (see benchmark/README.md)");
        return ExitCode::from(2);
    };
    let spec = Spec::load();
    let outcome = Args::parse(rest).and_then(|args| match cmd.as_str() {
        "run" => cmd_run(&args, &spec),
        "all" => cmd_all(&args, &spec),
        "check" => cmd_check(&args, &spec),
        other => Err(format!("unknown command {other:?}")),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
