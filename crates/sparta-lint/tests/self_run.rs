//! The lint must hold on the workspace that ships it: a full
//! `run_workspace` over this repository is part of the test suite, so
//! `cargo test` alone catches a policy regression even before the
//! dedicated CI job runs.

use std::path::Path;

#[test]
fn workspace_is_clean_with_full_coverage() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root");
    let report = sparta_lint::run_workspace(root).expect("workspace readable");

    assert!(
        report.is_clean(),
        "workspace lint violations:\n{}",
        report.render_text(true)
    );

    // The audit must actually be looking at the real tree.
    assert!(
        report.files_scanned > 100,
        "only {} files",
        report.files_scanned
    );
    let totals = report.ordering_totals();
    assert!(totals.sites > 100, "only {} ordering sites", totals.sites);
    assert_eq!(report.coverage_percent(), 100.0);
    assert!(
        totals.annotated >= 4,
        "expected the documented ordering justifications to be counted"
    );

    // The model cross-reference must be live: the shipped protocols
    // are harvested and the real ordering claims cite them.
    assert!(
        report.model_registry.len() >= 6,
        "shipped models not harvested: {:?}",
        report.model_registry
    );
    let cited: usize = report.model_refs.values().sum();
    assert!(cited >= 20, "only {cited} ordering claims cite a model");
    for name in report.model_refs.keys() {
        assert!(
            report.model_registry.contains(name),
            "claim cites unharvested model {name}"
        );
    }

    // JSON export must round-trip through the sparta-obs parser.
    let json = report.to_json().to_pretty_string(2);
    let back = sparta_obs::json::parse(&json).expect("self-report JSON parses");
    assert_eq!(
        back.get("clean"),
        Some(&sparta_obs::json::Json::Bool(true)),
        "JSON clean flag"
    );
}

/// The body of `[header]` in a TOML manifest: its lines up to the next
/// table header, or `None` when the table is absent.
fn toml_table<'a>(manifest: &'a str, header: &str) -> Option<Vec<&'a str>> {
    let mut lines = manifest.lines().map(str::trim);
    lines.find(|l| *l == header)?;
    Some(
        lines
            .take_while(|l| !l.starts_with('['))
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .collect(),
    )
}

/// rustc holds the `unsafe` ban: the root manifest forbids `unsafe_code`
/// workspace-wide, and every member — the root package, each crate and
/// each shim — inherits the workspace lints, so a new member cannot
/// skip them.
#[test]
fn every_member_inherits_the_unsafe_ban() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root");
    let read = |p: &Path| std::fs::read_to_string(p).expect("manifest readable");

    let root_manifest = read(&root.join("Cargo.toml"));
    let rust_lints = toml_table(&root_manifest, "[workspace.lints.rust]")
        .expect("root Cargo.toml has [workspace.lints.rust]");
    assert!(
        rust_lints.contains(&"unsafe_code = \"forbid\""),
        "[workspace.lints.rust] must forbid unsafe_code: {rust_lints:?}"
    );

    let mut manifests = vec![root.join("Cargo.toml")];
    for dir in ["crates", "shims"] {
        for entry in std::fs::read_dir(root.join(dir)).expect("member dir readable") {
            let manifest = entry.expect("dir entry").path().join("Cargo.toml");
            if manifest.is_file() {
                manifests.push(manifest);
            }
        }
    }
    assert!(manifests.len() >= 17, "only {} manifests", manifests.len());
    for manifest in &manifests {
        let text = read(manifest);
        assert_eq!(
            toml_table(&text, "[lints]"),
            Some(vec!["workspace = true"]),
            "{} must carry `[lints] workspace = true`",
            manifest.display()
        );
    }
}
