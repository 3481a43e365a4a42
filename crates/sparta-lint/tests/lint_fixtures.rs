//! The fixture corpus: one file per rule asserted to fire exactly that
//! rule, and a clean file asserted silent. Fixtures are linted under a
//! *virtual path* so the path-scoped policy applies as if they lived in
//! the real tree (the walker skips `fixtures/` directories, so the
//! corpus never pollutes a workspace run).

use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Lints one fixture under `virtual_path` and returns the fired rules.
fn rules_for(name: &str, virtual_path: &str) -> Vec<String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).to_path_buf();
    let report = sparta_lint::run_files(&root, &[fixture(name)], Some(virtual_path))
        .expect("fixture readable");
    report.diagnostics.iter().map(|d| d.rule.clone()).collect()
}

const CORE_MOD: &str = "crates/sparta-core/src/sparta/fixture.rs";
const CORE_ROOT: &str = "crates/sparta-core/src/lib.rs";

#[test]
fn bad_seqcst_fires_even_annotated() {
    let rules = rules_for("bad_seqcst.rs", CORE_MOD);
    assert_eq!(rules, ["seqcst-forbidden"]);
}

#[test]
fn bad_mixed_relaxed_fires() {
    let rules = rules_for("bad_mixed_relaxed.rs", CORE_MOD);
    assert_eq!(rules, ["mixed-ordering"]);
}

#[test]
fn bad_rmw_ordering_fires() {
    let rules = rules_for("bad_rmw_ordering.rs", CORE_MOD);
    assert_eq!(rules, ["rmw-ordering"]);
}

#[test]
fn bad_lock_cycle_fires() {
    let rules = rules_for("bad_lock_cycle.rs", CORE_MOD);
    assert_eq!(rules, ["lock-cycle"]);
}

#[test]
fn bad_lock_unwrap_fires_on_hot_path_only() {
    let rules = rules_for("bad_lock_unwrap.rs", CORE_MOD);
    assert_eq!(rules, ["lock-unwrap"]);
    // sparta-index is outside the lock-unwrap ban paths.
    let rules = rules_for("bad_lock_unwrap.rs", "crates/sparta-index/src/fixture.rs");
    assert!(rules.is_empty(), "unexpected: {rules:?}");
}

#[test]
fn bad_alloc_fires_on_record_path_only() {
    // One unjustified `Vec::with_capacity` on the record path; the
    // annotated construction site stays silent.
    let rules = rules_for("bad_alloc_recorder.rs", "crates/sparta-obs/src/ring.rs");
    assert_eq!(rules, ["alloc"]);
    // Sparta's docMap table is under the same ban: lookups and claims
    // run per posting, only the constructor may allocate.
    let rules = rules_for(
        "bad_alloc_recorder.rs",
        "crates/sparta-collections/src/doc_table.rs",
    );
    assert_eq!(rules, ["alloc"]);
    // …and so are its dense twin, pRA's claim bitset and the candidate
    // substrate the other score-order algorithms admit through, for the
    // same reason.
    for path in [
        "crates/sparta-collections/src/dense_doc_table.rs",
        "crates/sparta-collections/src/doc_bitset.rs",
        "crates/sparta-core/src/sparta/candidates.rs",
    ] {
        let rules = rules_for("bad_alloc_recorder.rs", path);
        assert_eq!(rules, ["alloc"], "{path}");
    }
    // Outside the banned paths the alloc rule does not apply.
    let rules = rules_for("bad_alloc_recorder.rs", CORE_MOD);
    assert!(rules.is_empty(), "unexpected: {rules:?}");
}

#[test]
fn bad_condvar_wait_fires_on_if_guard_only() {
    // The `while`-guarded wait in the same file must stay silent.
    let rules = rules_for("bad_condvar_wait.rs", CORE_MOD);
    assert_eq!(rules, ["condvar-wait"]);
}

#[test]
fn bad_ordering_no_model_fires() {
    let rules = rules_for("bad_ordering_no_model.rs", CORE_MOD);
    assert_eq!(rules, ["ordering-unmodeled"]);
}

#[test]
fn bad_unknown_model_fires_with_registry() {
    // The model registry is harvested from crates/sparta-model/src,
    // which only exists under the *workspace* root.
    let ws = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root")
        .to_path_buf();
    let report = sparta_lint::run_files(&ws, &[fixture("bad_unknown_model.rs")], Some(CORE_MOD))
        .expect("fixture readable");
    let rules: Vec<String> = report.diagnostics.iter().map(|d| d.rule.clone()).collect();
    assert_eq!(rules, ["unknown-model"]);
    assert!(
        report.model_registry.len() >= 4,
        "registry not harvested: {:?}",
        report.model_registry
    );

    // Under the lint crate root the registry is unavailable: the tag's
    // presence satisfies the rule and the bogus name goes unchecked.
    let rules = rules_for("bad_unknown_model.rs", CORE_MOD);
    assert!(rules.is_empty(), "unexpected: {rules:?}");
}

#[test]
fn clean_fixture_is_silent() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).to_path_buf();
    let report = sparta_lint::run_files(&root, &[fixture("clean.rs")], Some(CORE_ROOT))
        .expect("fixture readable");
    assert!(
        report.is_clean(),
        "clean fixture fired: {:?}",
        report.diagnostics
    );
    let totals = report.ordering_totals();
    assert_eq!(totals.violations, 0);
    assert!(totals.annotated >= 1, "justified Relaxed load not counted");
}

/// Acceptance: the *CLI* exits non-zero under `--check` for a bad
/// fixture and zero for the clean one.
#[test]
fn cli_check_exit_codes() {
    let bin = env!("CARGO_BIN_EXE_sparta-lint");
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));

    let bad = Command::new(bin)
        .args(["--check", "--root"])
        .arg(root)
        .args(["--as", CORE_MOD])
        .arg(fixture("bad_seqcst.rs"))
        .output()
        .expect("spawn sparta-lint");
    assert_eq!(bad.status.code(), Some(1), "bad fixture must exit 1");

    let clean = Command::new(bin)
        .args(["--check", "--root"])
        .arg(root)
        .args(["--as", CORE_ROOT])
        .arg(fixture("clean.rs"))
        .output()
        .expect("spawn sparta-lint");
    assert_eq!(clean.status.code(), Some(0), "clean fixture must exit 0");
}
