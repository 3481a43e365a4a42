//! # sparta-lint — self-hosted concurrency static analysis
//!
//! Sparta's correctness hinges on cross-thread protocols the type
//! system cannot see: the Alg. 1 termination check and the cleaner
//! coordinate through ~140 atomic sites and a dozen locks spread over
//! four crates. This crate is the standing, machine-checkable gate for
//! those protocols — the written concurrency policy lives in
//! DESIGN.md §11 and is enforced here on every CI run:
//!
//! 1. **Atomic-ordering audit** ([`atomics`]) — every `Ordering::*`
//!    site must match the policy table (pure-`Relaxed` counters;
//!    coherent Release/Acquire/AcqRel publish groups; no `SeqCst`) or
//!    carry a `// ordering: <reason>` justification.
//! 2. **Lock-order graph** ([`locks`]) — static lock nesting is
//!    extracted per function, merged into a class graph, and checked
//!    for cycles; `.lock().unwrap()` is flagged on hot paths.
//! 3. **Allocation ban** ([`apis`]) — no allocation on the paths that
//!    must run out of storage sized at construction (the flight
//!    recorder, the compressed decoder, the profiling plane, the
//!    per-posting candidate state).
//! 4. **Model cross-reference** ([`models`]) — every `// ordering:`
//!    justification must cite a `sparta-model` protocol via a
//!    `model: <name>` tag, closing the loop between the lexical claim
//!    and an exhaustive weak-memory check (DESIGN.md §15).
//! 5. **Condvar discipline** ([`condvar`]) — `Condvar::wait` outside a
//!    predicate-rechecking `while`/`loop` is flagged.
//!
//! The analyzer is a hand-rolled lexer + token scanner ([`lexer`],
//! [`scan`]): no `syn`, no dependencies beyond `sparta-obs` (whose
//! JSON value model renders the machine-readable diagnostics). It is
//! intraprocedural and textual by design — grep-with-structure, fast
//! enough to run on every commit, and wrong only in the direction of
//! asking for a justification. The justification itself is no longer
//! just trusted prose: pass 4 makes each ordering claim name the
//! exhaustively-explored `sparta-model` protocol that backs it.
//!
//! Only what no compiler can check lives here. The bans rustc and
//! clippy can hold — `unsafe`, wall-clock reads, sleeps, std hash
//! maps — are manifest and `clippy.toml` entries, waived per site with
//! `#[expect(…, reason = "…")]` (DESIGN.md §11).

pub mod apis;
pub mod atomics;
pub mod condvar;
pub mod lexer;
pub mod locks;
pub mod models;
pub mod report;
pub mod scan;

pub use report::{Diagnostic, Report};

use scan::Scan;
use std::path::{Path, PathBuf};

/// Path-based policy: which rules apply where. Paths are
/// workspace-relative with `/` separators.
pub struct Policy;

impl Policy {
    /// Files whose `Ordering::*` sites are audited (everything we
    /// scan; fixtures are excluded at walk time).
    pub fn audits_ordering(path: &str) -> bool {
        path.ends_with(".rs")
    }

    /// Allocation-banned hot paths: the flight recorder's record path
    /// (workers record from inside the scheduler loop; an allocation
    /// there can deadlock a diagnostic of an allocator stall and skews
    /// the recorder's own overhead), the compressed posting
    /// decoder (block decode sits under every cursor advance — it
    /// must run out of fixed scratch arrays; builders escape with
    /// `lint: allow(alloc)`), the ring fold shared by the trace
    /// exporter and the profile, and the profile's accumulation
    /// (construction and rendering escape with `lint: allow(alloc)`),
    /// and the per-posting candidate-state structures — the hashed and
    /// dense `docMap` tables, pRA's claim bitset and
    /// Sparta/pNRA/pJASS's candidates (a lookup, claim or admission
    /// runs per posting and must stay a probe over the words sized at
    /// construction; the constructor's allocation escapes with
    /// `lint: allow(alloc)`).
    pub fn bans_alloc(path: &str) -> bool {
        path == "crates/sparta-collections/src/doc_table.rs"
            || path == "crates/sparta-collections/src/dense_doc_table.rs"
            || path == "crates/sparta-collections/src/doc_bitset.rs"
            || path == "crates/sparta-core/src/sparta/candidates.rs"
            || path == "crates/sparta-obs/src/ring.rs"
            || path == "crates/sparta-obs/src/recorder.rs"
            || path == "crates/sparta-obs/src/profile.rs"
            || path == "crates/sparta-obs/src/fold.rs"
            || path == "crates/sparta-index/src/compressed.rs"
    }

    /// Std-Mutex `.lock().unwrap()` ban (parking_lot is the standard).
    pub fn bans_lock_unwrap(path: &str) -> bool {
        path.starts_with("crates/sparta-core/src/")
            || path.starts_with("crates/sparta-exec/src/")
            || path.starts_with("crates/sparta-collections/src/")
    }

    /// Files whose `// ordering:` annotations must cite a checked
    /// model (`model: <name>`): all crate sources except test paths
    /// and `sparta-model` itself, whose sources *are* the models.
    pub fn requires_model_tag(path: &str) -> bool {
        path.starts_with("crates/")
            && !path.starts_with("crates/sparta-model/")
            && !Policy::is_test_path(path)
    }

    /// Whether a path is test-only code (unit-test regions are handled
    /// separately, per `#[cfg(test)]` item).
    pub fn is_test_path(path: &str) -> bool {
        path.contains("/tests/")
            || path.contains("/benches/")
            || path.starts_with("tests/")
            || path.starts_with("examples/")
    }
}

/// Lints one file's source under its workspace-relative `path`,
/// accumulating into `report` and `edges`. `registry` is the harvested
/// set of checked-model names the ordering annotations must cite.
pub fn lint_source(
    path: &str,
    src: &str,
    registry: &models::ModelRegistry,
    report: &mut Report,
    edges: &mut Vec<locks::LockEdge>,
) {
    let lex = lexer::lex(src);
    let scan = Scan::new(&lex);
    report.files_scanned += 1;

    if Policy::audits_ordering(path) {
        let cov = atomics::audit(path, &scan, &mut report.diagnostics);
        if cov.sites > 0 {
            report.ordering.insert(path.to_string(), cov);
        }
    }

    let in_test_path = Policy::is_test_path(path);
    locks::scan_locks(
        path,
        &scan,
        Policy::bans_lock_unwrap(path) && !in_test_path,
        edges,
        &mut report.diagnostics,
    );

    if Policy::requires_model_tag(path) {
        models::check_model_refs(
            path,
            &scan,
            registry,
            &mut report.model_refs,
            &mut report.diagnostics,
        );
    }

    if !in_test_path {
        condvar::scan_condvars(path, &scan, &mut report.diagnostics);
    }

    if Policy::bans_alloc(path) {
        apis::scan_apis(path, &scan, &mut report.diagnostics);
    }
}

/// Recursively collects `*.rs` files under `dir`, skipping `target`
/// and the lint fixture corpus (whose files fire on purpose).
fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == "fixtures" || name.starts_with('.') {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Runs the full workspace lint from `root` (the directory holding the
/// workspace `Cargo.toml`). Scans `crates/`, `src/`, `tests/` and
/// `examples/`.
pub fn run_workspace(root: &Path) -> std::io::Result<Report> {
    let mut report = Report::default();
    let mut edges = Vec::new();
    let registry = models::harvest_registry(root);
    report.model_registry = registry.names.iter().cloned().collect();

    let mut files = Vec::new();
    for top in ["crates", "src", "tests", "examples"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, &mut files)?;
        }
    }
    files.sort();
    for file in &files {
        let rel = rel_path(root, file);
        let src = std::fs::read_to_string(file)?;
        lint_source(&rel, &src, &registry, &mut report, &mut edges);
    }

    report.diagnostics.extend(locks::check_cycles(&edges));
    report.lock_edges = edges;
    report.finish();
    Ok(report)
}

fn rel_path(root: &Path, file: &Path) -> String {
    file.strip_prefix(root)
        .unwrap_or(file)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Lints explicit files (CLI path arguments / fixtures). `virtual_path`
/// overrides the policy-relevant path for every given file — fixture
/// tests use it to place a file in, say, `crates/sparta-core/src/`.
pub fn run_files(
    root: &Path,
    files: &[PathBuf],
    virtual_path: Option<&str>,
) -> std::io::Result<Report> {
    let mut report = Report::default();
    let mut edges = Vec::new();
    let registry = models::harvest_registry(root);
    report.model_registry = registry.names.iter().cloned().collect();
    for file in files {
        let rel = match virtual_path {
            Some(v) => v.to_string(),
            None => rel_path(root, file),
        };
        let src = std::fs::read_to_string(file)?;
        lint_source(&rel, &src, &registry, &mut report, &mut edges);
    }
    report.diagnostics.extend(locks::check_cycles(&edges));
    report.lock_edges = edges;
    report.finish();
    Ok(report)
}
