//! Diagnostics, the coverage report, and JSON rendering.
//!
//! JSON reuses `sparta_obs::Json` — the same hand-rolled value model
//! the bench exporter emits — so CI tooling that already parses
//! `BENCH_*.json` can consume lint output with zero new code.

use crate::atomics::Coverage;
use crate::locks::LockEdge;
use sparta_obs::json::Json;
use std::collections::BTreeMap;

/// One finding, pointing at a file:line with a named rule.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    pub rule: String,
    pub file: String,
    pub line: u32,
    pub message: String,
}

impl Diagnostic {
    pub fn new(rule: &str, file: &str, line: u32, message: String) -> Self {
        Diagnostic {
            rule: rule.to_string(),
            file: file.to_string(),
            line,
            message,
        }
    }
}

/// Full run output: diagnostics plus the audit/coverage side tables.
#[derive(Debug, Default)]
pub struct Report {
    pub files_scanned: usize,
    pub diagnostics: Vec<Diagnostic>,
    /// Per-file atomic-ordering coverage (files with ≥1 site only).
    pub ordering: BTreeMap<String, Coverage>,
    /// Observed lock-nesting edges (deduplicated per class pair).
    pub lock_edges: Vec<LockEdge>,
    /// Model names harvested from `crates/sparta-model/src` (empty
    /// when the registry directory is outside the lint root).
    pub model_registry: Vec<String>,
    /// Ordering-annotation citations per model name.
    pub model_refs: BTreeMap<String, usize>,
}

impl Report {
    /// Whether the run is clean.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Totals over [`Report::ordering`].
    pub fn ordering_totals(&self) -> Coverage {
        let mut t = Coverage::default();
        for c in self.ordering.values() {
            t.sites += c.sites;
            t.matched += c.matched;
            t.annotated += c.annotated;
            t.violations += c.violations;
        }
        t
    }

    /// Ordering-audit coverage in percent: sites either policy-matched
    /// or annotated. 100.0 when there are no sites.
    pub fn coverage_percent(&self) -> f64 {
        let t = self.ordering_totals();
        if t.sites == 0 {
            return 100.0;
        }
        100.0 * (t.sites - t.violations) as f64 / t.sites as f64
    }

    /// Sorts diagnostics for deterministic output.
    pub fn finish(&mut self) {
        self.diagnostics
            .sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
        self.lock_edges.sort();
        self.lock_edges
            .dedup_by(|a, b| a.outer == b.outer && a.inner == b.inner);
    }

    /// Human-readable rendering.
    pub fn render_text(&self, verbose: bool) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&format!(
                "{}:{}: [{}] {}\n",
                d.file, d.line, d.rule, d.message
            ));
        }
        let t = self.ordering_totals();
        out.push_str(&format!(
            "sparta-lint: {} files, {} atomic-ordering sites \
             ({} policy-matched, {} annotated, {} violations) — coverage {:.1}%\n",
            self.files_scanned,
            t.sites,
            t.matched,
            t.annotated,
            t.violations,
            self.coverage_percent(),
        ));
        if !self.model_registry.is_empty() || !self.model_refs.is_empty() {
            let cited: usize = self.model_refs.values().sum();
            out.push_str(&format!(
                "model cross-reference: {} checked models, {} ordering \
                 claims cited\n",
                self.model_registry.len(),
                cited
            ));
        }
        if verbose {
            for name in &self.model_registry {
                out.push_str(&format!(
                    "  model {name}: {} citing sites\n",
                    self.model_refs.get(name).copied().unwrap_or(0)
                ));
            }
            for (file, c) in &self.ordering {
                out.push_str(&format!(
                    "  {file}: {} sites, {} matched, {} annotated, {} violations\n",
                    c.sites, c.matched, c.annotated, c.violations
                ));
            }
            out.push_str(&format!("lock-order edges ({}):\n", self.lock_edges.len()));
            for e in &self.lock_edges {
                out.push_str(&format!(
                    "  {} -> {}  (first seen {}:{})\n",
                    e.outer, e.inner, e.file, e.line
                ));
            }
        }
        out.push_str(if self.is_clean() {
            "sparta-lint: clean\n"
        } else {
            "sparta-lint: FAIL\n"
        });
        out
    }

    /// Machine-readable rendering (schema documented in DESIGN.md §11).
    pub fn to_json(&self) -> Json {
        let t = self.ordering_totals();
        let diags: Vec<Json> = self
            .diagnostics
            .iter()
            .map(|d| {
                Json::obj()
                    .with("rule", d.rule.as_str())
                    .with("file", d.file.as_str())
                    .with("line", u64::from(d.line))
                    .with("message", d.message.as_str())
            })
            .collect();
        let coverage: Vec<Json> = self
            .ordering
            .iter()
            .map(|(f, c)| {
                Json::obj()
                    .with("file", f.as_str())
                    .with("sites", c.sites as u64)
                    .with("matched", c.matched as u64)
                    .with("annotated", c.annotated as u64)
                    .with("violations", c.violations as u64)
            })
            .collect();
        let edges: Vec<Json> = self
            .lock_edges
            .iter()
            .map(|e| {
                Json::obj()
                    .with("outer", e.outer.as_str())
                    .with("inner", e.inner.as_str())
                    .with("file", e.file.as_str())
                    .with("line", u64::from(e.line))
            })
            .collect();
        Json::obj()
            .with("tool", "sparta-lint")
            .with("files_scanned", self.files_scanned as u64)
            .with("clean", self.is_clean())
            .with(
                "ordering_audit",
                Json::obj()
                    .with("sites", t.sites as u64)
                    .with("matched", t.matched as u64)
                    .with("annotated", t.annotated as u64)
                    .with("violations", t.violations as u64)
                    .with("coverage_percent", self.coverage_percent())
                    .with("per_file", Json::Arr(coverage)),
            )
            .with("lock_order", Json::obj().with("edges", Json::Arr(edges)))
            .with(
                "models",
                Json::obj()
                    .with(
                        "registry",
                        Json::Arr(
                            self.model_registry
                                .iter()
                                .map(|n| Json::from(n.as_str()))
                                .collect(),
                        ),
                    )
                    .with(
                        "referenced",
                        self.model_refs
                            .iter()
                            .fold(Json::obj(), |j, (n, c)| j.with(n.as_str(), *c as u64)),
                    ),
            )
            .with("diagnostics", Json::Arr(diags))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_percent_counts_violations_only() {
        let mut r = Report::default();
        r.ordering.insert(
            "a.rs".into(),
            Coverage {
                sites: 10,
                matched: 8,
                annotated: 1,
                violations: 1,
            },
        );
        assert!((r.coverage_percent() - 90.0).abs() < 1e-9);
        assert!((Report::default().coverage_percent() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn json_roundtrips_through_obs_parser() {
        let mut r = Report {
            files_scanned: 3,
            ..Report::default()
        };
        r.diagnostics
            .push(Diagnostic::new("alloc", "b.rs", 7, "msg \"quoted\"".into()));
        r.finish();
        let text = r.to_json().to_pretty_string(2);
        let back = sparta_obs::json::parse(&text).expect("parses");
        assert_eq!(
            back.get("tool").and_then(|j| j.as_str()),
            Some("sparta-lint")
        );
        assert_eq!(
            back.get("diagnostics")
                .and_then(|j| j.as_arr())
                .map(|a| a.len()),
            Some(1)
        );
    }
}
