//! CLI for the workspace concurrency lint.
//!
//! ```text
//! cargo run -p sparta-lint -- --check                # full workspace, exit 1 on violations
//! cargo run -p sparta-lint -- --check --verbose      # + per-file coverage and lock graph
//! cargo run -p sparta-lint -- --check --json out.json
//! cargo run -p sparta-lint -- --check --as crates/sparta-core/src/x.rs path/to/fixture.rs
//! ```
//!
//! Without explicit file arguments the tool walks the workspace from
//! the nearest ancestor directory whose `Cargo.toml` declares
//! `[workspace]`. `--as <virtual-path>` lints the given files as if
//! they lived at that workspace-relative path (fixture testing).

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut check = false;
    let mut verbose = false;
    let mut json_out: Option<String> = None;
    let mut virtual_path: Option<String> = None;
    let mut root: Option<PathBuf> = None;
    let mut files: Vec<PathBuf> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => check = true,
            "--verbose" | "-v" => verbose = true,
            "--json" => match args.next() {
                Some(p) => json_out = Some(p),
                None => return usage("--json needs a path (or `-` for stdout)"),
            },
            "--as" => match args.next() {
                Some(p) => virtual_path = Some(p),
                None => return usage("--as needs a workspace-relative virtual path"),
            },
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => return usage("--root needs a directory"),
            },
            "--help" | "-h" => return usage(""),
            other if other.starts_with('-') => {
                return usage(&format!("unknown flag `{other}`"));
            }
            file => files.push(PathBuf::from(file)),
        }
    }

    let root = match root.or_else(find_workspace_root) {
        Some(r) => r,
        None => {
            eprintln!("sparta-lint: no workspace root found (run inside the repo or pass --root)");
            return ExitCode::from(2);
        }
    };

    let result = if files.is_empty() {
        sparta_lint::run_workspace(&root)
    } else {
        sparta_lint::run_files(&root, &files, virtual_path.as_deref())
    };
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("sparta-lint: io error: {e}");
            return ExitCode::from(2);
        }
    };

    // `--json -` claims stdout for the machine-readable report; the
    // human-readable one moves to stderr so the JSON stays parseable.
    if json_out.as_deref() == Some("-") {
        eprint!("{}", report.render_text(verbose));
    } else {
        print!("{}", report.render_text(verbose));
    }

    if let Some(path) = json_out {
        let text = report.to_json().to_pretty_string(2);
        if path == "-" {
            println!("{text}");
        } else if let Err(e) = std::fs::write(&path, text + "\n") {
            eprintln!("sparta-lint: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
    }

    if check && !report.is_clean() {
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}

/// Walks up from the current directory to the workspace `Cargo.toml`.
fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(dir);
                }
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn usage(err: &str) -> ExitCode {
    if !err.is_empty() {
        eprintln!("sparta-lint: {err}");
    }
    eprintln!(
        "usage: sparta-lint [--check] [--verbose] [--json <path|->] \
         [--root <dir>] [--as <virtual-path>] [files…]"
    );
    if err.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}
