//! Pass 2: the lock-order graph.
//!
//! Extracts every `Mutex`/`RwLock` acquisition (`.lock()`, `.read()`,
//! `.write()` with empty argument lists) and the *static nesting*
//! between them: lock B acquired while a guard for lock A is still in
//! scope contributes the edge A → B. Guards are tracked lexically:
//!
//! - `let g = x.lock();` — guard `g` lives to the end of its block or
//!   to an explicit `drop(g)`;
//! - `x.lock().method(…)` — a temporary guard that lives to the end of
//!   the statement.
//!
//! Lock *classes* are receiver tails (`jobs`, `heap`, `inner`, …)
//! merged across files, which matches how the workspace names its
//! locks one struct field per lock. The pass fails on any cycle in the
//! class graph (static deadlock risk, including self-loops: two `jobs`
//! queues), and flags `.lock().unwrap()` — std-`Mutex` poisoning
//! idiom, banned in hot-path crates where `parking_lot` is the
//! standard.
//!
//! This is intraprocedural: a function that merely calls another
//! function which locks contributes no edge. The `// ordering:`-style
//! escape is `// lint: allow(lock-order): <reason>` on the inner
//! acquisition, and `// lint: allow(lock-unwrap): <reason>` for the
//! unwrap idiom.

use crate::report::Diagnostic;
use crate::scan::Scan;
use std::collections::{BTreeMap, BTreeSet};

const LOCK_METHODS: [&str; 3] = ["lock", "read", "write"];

/// One observed nesting: `outer` held while `inner` is acquired.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct LockEdge {
    pub outer: String,
    pub inner: String,
    pub file: String,
    pub line: u32,
}

/// Scans one file, appending nesting edges to `edges` and immediate
/// violations (`lock-unwrap`) to `diags`. Cycle detection runs once
/// over the merged graph via [`check_cycles`].
pub fn scan_locks(
    path: &str,
    scan: &Scan,
    api_bans_active: bool,
    edges: &mut Vec<LockEdge>,
    diags: &mut Vec<Diagnostic>,
) {
    let toks = &scan.lex.toks;

    // Lock acquisitions: `.lock()` / `.read()` / `.write()` with no
    // arguments (filters out io::Read::read(&mut buf) and friends).
    let acquisitions: Vec<&crate::scan::CallSite> = scan
        .calls
        .iter()
        .filter(|c| {
            LOCK_METHODS.contains(&c.method.as_str())
                && c.args_close == c.args_open + 1
                && !c.recv_tail.is_empty()
        })
        .collect();

    #[derive(Debug)]
    enum Expiry {
        Stmt,          // temporary guard; dies at next `;` at its depth
        Named(String), // block-scoped; also dies at `drop(name)`
    }
    struct Guard {
        class: String,
        depth: usize,
        expiry: Expiry,
    }

    let mut active: Vec<Guard> = Vec::new();
    let mut depth = 0usize;
    let mut acq_iter = acquisitions.iter().peekable();

    for (i, t) in toks.iter().enumerate() {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth = depth.saturating_sub(1);
            active.retain(|g| g.depth <= depth);
        } else if t.is_punct(';') {
            active.retain(|g| !(matches!(g.expiry, Expiry::Stmt) && g.depth == depth));
        } else if t.is_ident("drop") && toks.get(i + 1).is_some_and(|t| t.is_punct('(')) {
            if let Some(name) = toks.get(i + 2) {
                active.retain(|g| !matches!(&g.expiry, Expiry::Named(n) if *n == name.text));
            }
        }

        // Is this token the method ident of the next acquisition?
        let Some(next) = acq_iter.peek() else {
            continue;
        };
        if next.method_idx != i {
            continue;
        }
        let site = *acq_iter.next().unwrap();
        let class = site.recv_tail.clone();

        // Edges from every held guard (lexical).
        if !scan.lex.annotated(site.line, "lock-order") {
            for g in &active {
                edges.push(LockEdge {
                    outer: g.class.clone(),
                    inner: class.clone(),
                    file: path.to_string(),
                    line: site.line,
                });
            }
        }

        // `.lock().unwrap()` — std Mutex poisoning idiom.
        let unwrapped = toks
            .get(site.args_close + 1)
            .is_some_and(|t| t.is_punct('.'))
            && toks
                .get(site.args_close + 2)
                .is_some_and(|t| t.is_ident("unwrap"));
        if unwrapped
            && site.method == "lock"
            && api_bans_active
            && !scan.in_test_region(site.line)
            && !scan.lex.annotated(site.line, "lock-unwrap")
        {
            let msg = format!(
                "`.lock().unwrap()` on `{}` — std Mutex poisoning idiom; \
                 hot-path crates use parking_lot locks (no unwrap)",
                site.recv
            );
            diags.push(Diagnostic::new("lock-unwrap", path, site.line, msg));
        }

        // Register the new guard.
        let expiry = guard_expiry(toks, site);
        let gdepth = depth;
        active.push(Guard {
            class,
            depth: gdepth,
            expiry,
        });
    }

    // (guards drop with `active` at end of file)
    fn guard_expiry(toks: &[crate::lexer::Tok], site: &crate::scan::CallSite) -> Expiry {
        // Chained (`x.lock().y…`) → temporary, dies at `;`.
        if toks
            .get(site.args_close + 1)
            .is_some_and(|t| t.is_punct('.'))
        {
            return Expiry::Stmt;
        }
        // Walk back from the receiver for `let [mut] name =` on the
        // same statement.
        let mut j = site.method_idx;
        // method_idx-1 is the `.`; step to receiver start by walking to
        // the statement head: stop at `;`, `{`, `}`.
        let mut name: Option<String> = None;
        while j > 0 {
            j -= 1;
            let t = &toks[j];
            if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
                break;
            }
            if t.is_ident("let") {
                // `let` [`mut`] ident
                let mut k = j + 1;
                if toks.get(k).is_some_and(|t| t.is_ident("mut")) {
                    k += 1;
                }
                if let Some(id) = toks.get(k) {
                    if id.kind == crate::lexer::TokKind::Ident {
                        name = Some(id.text.clone());
                    }
                }
                break;
            }
        }
        match name {
            Some(n) => Expiry::Named(n),
            // Bare `x.lock();` or an expression position we could not
            // attribute — treat as statement-scoped.
            None => Expiry::Stmt,
        }
    }
}

/// Detects cycles in the merged class graph. Returns diagnostics for
/// each distinct cycle found (self-loops included).
pub fn check_cycles(edges: &[LockEdge]) -> Vec<Diagnostic> {
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    let mut where_edge: BTreeMap<(&str, &str), (&str, u32)> = BTreeMap::new();
    for e in edges {
        if e.outer == e.inner {
            // Self-loop: nested acquisition of the same class.
            return vec![Diagnostic::new(
                "lock-cycle",
                &e.file,
                e.line,
                format!(
                    "lock class `{}` acquired while already held (self-cycle): \
                     two instances of this class nest, which deadlocks if two \
                     threads pick opposite orders",
                    e.outer
                ),
            )];
        }
        adj.entry(e.outer.as_str())
            .or_default()
            .insert(e.inner.as_str());
        where_edge
            .entry((e.outer.as_str(), e.inner.as_str()))
            .or_insert((e.file.as_str(), e.line));
    }
    // Iterative DFS with colors for cycle detection.
    let mut color: BTreeMap<&str, u8> = BTreeMap::new(); // 0 white 1 grey 2 black
    let nodes: Vec<&str> = adj.keys().copied().collect();
    for &start in &nodes {
        if color.get(start).copied().unwrap_or(0) != 0 {
            continue;
        }
        let mut stack: Vec<(&str, Vec<&str>)> = vec![(start, Vec::new())];
        while let Some((node, path)) = stack.pop() {
            match color.get(node).copied().unwrap_or(0) {
                0 => {
                    color.insert(node, 1);
                    let mut path2 = path.clone();
                    path2.push(node);
                    // Re-push to blacken after children.
                    stack.push((node, path));
                    for &next in adj.get(node).into_iter().flatten() {
                        if color.get(next).copied().unwrap_or(0) == 1 {
                            // Found a grey back-edge: cycle.
                            let mut cycle: Vec<&str> =
                                path2.iter().skip_while(|&&n| n != next).copied().collect();
                            cycle.push(next);
                            let (file, line) = where_edge
                                .get(&(node, next))
                                .copied()
                                .unwrap_or(("<merged>", 0));
                            return vec![Diagnostic::new(
                                "lock-cycle",
                                file,
                                line,
                                format!(
                                    "lock-order cycle: {} — a consistent acquisition \
                                     hierarchy is required (DESIGN.md §11)",
                                    cycle.join(" → ")
                                ),
                            )];
                        }
                        if color.get(next).copied().unwrap_or(0) == 0 {
                            stack.push((next, path2.clone()));
                        }
                    }
                }
                1 => {
                    color.insert(node, 2);
                }
                _ => {}
            }
        }
    }
    Vec::new()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(src: &str) -> (Vec<LockEdge>, Vec<Diagnostic>) {
        let l = lex(src);
        let s = Scan::new(&l);
        let mut e = Vec::new();
        let mut d = Vec::new();
        scan_locks("test.rs", &s, true, &mut e, &mut d);
        (e, d)
    }

    #[test]
    fn nested_let_guards_make_an_edge() {
        let (e, _) = run("fn f(x: &X) { let g = x.jobs.lock(); x.heap.lock(); }");
        assert_eq!(e.len(), 1);
        assert_eq!((e[0].outer.as_str(), e[0].inner.as_str()), ("jobs", "heap"));
    }

    #[test]
    fn guard_dropped_before_second_lock_makes_no_edge() {
        let (e, _) = run("fn f(x: &X) { let g = x.jobs.lock(); drop(g); x.heap.lock(); }");
        assert!(e.is_empty());
    }

    #[test]
    fn temporary_guard_expires_at_statement_end() {
        let (e, _) = run("fn f(x: &X) { x.jobs.lock().push(1); x.heap.lock().pop(); }");
        assert!(e.is_empty());
    }

    #[test]
    fn block_scope_releases_guard() {
        let (e, _) = run("fn f(x: &X) { { let g = x.jobs.lock(); } x.heap.lock(); }");
        assert!(e.is_empty());
    }

    #[test]
    fn cycle_is_detected() {
        let (e, _) = run("fn a(x: &X) { let g = x.jobs.lock(); x.heap.lock(); }\n\
             fn b(x: &X) { let g = x.heap.lock(); x.jobs.lock(); }");
        let d = check_cycles(&e);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "lock-cycle");
    }

    #[test]
    fn self_loop_is_a_cycle() {
        let (e, _) = run("fn f(x: &X) { let a = x.jobs[i].lock(); x.jobs[j].lock(); }");
        let d = check_cycles(&e);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("self-cycle"));
    }

    #[test]
    fn closure_argument_holds_no_lock() {
        // No callee is modelled as locking around its closure argument:
        // a lock inside one nests under nothing.
        let (e, d) = run("fn f(m: &M, o: &O) { m.update(&k, |v| o.inner.lock().push(*v)); }");
        assert!(e.is_empty(), "{e:?}");
        assert!(d.is_empty());
    }

    #[test]
    fn lock_order_annotation_suppresses_edge() {
        let (e, _) = run("fn f(x: &X) { let g = x.jobs.lock();\n\
             // lint: allow(lock-order): leaf lock, documented in DESIGN §11\n\
             x.heap.lock(); }");
        assert!(e.is_empty());
    }

    #[test]
    fn io_read_with_args_is_not_a_lock() {
        let (e, d) = run("fn f(x: &mut F) { let g = x.m.lock(); x.file.read(&mut buf); }");
        assert!(e.is_empty());
        assert!(d.is_empty());
    }
}
