//! The CI `model-check` entry point: exhaustively verify every shipped
//! protocol model, re-prove the Legacy-wedges golden regression, and
//! hold the whole suite to a wall-clock budget.
//!
//! Exit codes: 0 suite green, 1 a model violated its invariant (or a
//! golden expectation failed), 2 budget exceeded or exploration
//! truncated.
//!
//! ```text
//! model-check [--budget-secs N]
//! ```

use std::time::Instant;

use sparta_model::protocols::{job_queue, Mutation};

const DEFAULT_BUDGET_SECS: u64 = 120;

fn main() {
    let mut budget_secs = DEFAULT_BUDGET_SECS;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--budget-secs" => {
                let v = args.next().unwrap_or_default();
                budget_secs = v.parse().unwrap_or_else(|_| {
                    eprintln!("model-check: bad --budget-secs value {v:?}");
                    std::process::exit(2);
                });
            }
            other => {
                eprintln!("model-check: unknown argument {other:?}");
                eprintln!("usage: model-check [--budget-secs N]");
                std::process::exit(2);
            }
        }
    }

    let started = Instant::now();
    let mut failed = false;
    let mut truncated = false;
    let mut total_execs = 0usize;
    let mut total_steps = 0u64;

    println!("model-check: exhaustive weak-memory verification");
    println!(
        "{:<24} {:>12} {:>12} {:>10}",
        "model", "executions", "steps", "verdict"
    );
    for m in sparta_model::protocols::all_shipped() {
        let report = m.check();
        total_execs += report.executions;
        total_steps += report.steps;
        truncated |= report.truncated;
        let verdict = if report.violations > 0 {
            failed = true;
            "VIOLATED"
        } else if report.truncated {
            "TRUNCATED"
        } else {
            "ok"
        };
        println!(
            "{:<24} {:>12} {:>12} {:>10}",
            m.name(),
            report.executions,
            report.steps,
            verdict
        );
        if let Some(v) = report.first_violation {
            eprintln!("  schedule: {}", v.schedule);
            eprintln!("  {}", v.message);
        }
    }

    // Golden regression: the Legacy finish protocol (pre-lock-bridge)
    // must still wedge — if it stops wedging, the checker has lost the
    // bug class that motivated it.
    let legacy = job_queue::model(job_queue::Variant::Legacy, Mutation::None).check();
    total_execs += legacy.executions;
    total_steps += legacy.steps;
    let legacy_ok = legacy.violations > 0 && legacy.executions > legacy.violations;
    println!(
        "{:<24} {:>12} {:>12} {:>10}",
        "job_queue (legacy)",
        legacy.executions,
        legacy.steps,
        if legacy_ok { "wedges" } else { "LOST-BUG" }
    );
    if !legacy_ok {
        eprintln!("model-check: golden regression failed: Legacy no longer wedges");
        failed = true;
    }

    let elapsed = started.elapsed();
    println!(
        "total: {total_execs} executions, {total_steps} steps in {:.2}s (budget {budget_secs}s)",
        elapsed.as_secs_f64()
    );

    if failed {
        std::process::exit(1);
    }
    if truncated {
        eprintln!("model-check: a model was truncated; exhaustiveness lost");
        std::process::exit(2);
    }
    if elapsed.as_secs() > budget_secs {
        eprintln!("model-check: suite exceeded its wall-clock budget");
        std::process::exit(2);
    }
    println!("model-check: all protocols verified over every interleaving");
}
