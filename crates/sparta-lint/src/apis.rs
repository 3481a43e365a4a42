//! Pass 3: forbidden-API and determinism lints, plus crate hygiene.
//!
//! Rules (scopes defined by [`crate::Policy`]):
//!
//! - **`std-hash`** — `std::collections::HashMap`/`HashSet` banned in
//!   hot-path modules; they SipHash every key. Use
//!   `sparta_collections::{FastHashMap, FastHashSet}`. `fast_hash.rs`
//!   itself (which defines the aliases) is exempt.
//! - **`wall-clock`** — `Instant::now`/`SystemTime` banned in the
//!   deterministic-replay surface (`sparta-core`, `sparta-exec`,
//!   `sparta-collections`): wall-clock reads break the
//!   `DeterministicExecutor`'s bit-identical replays. `sparta-obs`'s
//!   clock abstraction (`clock.rs`) is the sanctioned source; genuine
//!   measurement-only sites carry `// lint: allow(wall-clock): …`.
//! - **`sleep`** — `thread::sleep` banned in `sparta-core`: algorithm
//!   code must block on condvars/queues, never on wall time.
//! - **`alloc`** — allocation banned on the flight recorder's record
//!   path (`sparta-obs`'s `ring.rs`/`recorder.rs`): allocating
//!   constructors (`Vec::new`, `Box::from`, …), owning conversions
//!   (`to_vec`, `collect`, …) and `vec!`/`format!` must not appear
//!   outside construction, which carries
//!   `// lint: allow(alloc): <reason>`.
//! - **`unsafe-code`** — no `unsafe` anywhere in the workspace.
//! - **`missing-forbid`** — every crate root must carry
//!   `#![forbid(unsafe_code)]` so the previous rule is also enforced
//!   by rustc on every future PR.
//!
//! Test code (`tests/` dirs, `benches/`, `examples/`, `#[cfg(test)]`
//! items) is exempt from the API bans but not from the unsafe rule.

use crate::report::Diagnostic;
use crate::scan::Scan;

/// Which API rules apply to the file being scanned.
#[derive(Debug, Clone, Copy, Default)]
pub struct ApiScope {
    pub std_hash: bool,
    pub wall_clock: bool,
    pub sleep: bool,
    pub alloc: bool,
}

/// Runs the API pass over one file.
pub fn scan_apis(path: &str, scan: &Scan, scope: ApiScope, diags: &mut Vec<Diagnostic>) {
    let toks = &scan.lex.toks;
    for i in 0..toks.len() {
        let t = &toks[i];
        let line = t.line;
        let in_test = scan.in_test_region(line);

        if t.is_ident("unsafe") {
            diags.push(Diagnostic::new(
                "unsafe-code",
                path,
                line,
                "`unsafe` is forbidden workspace-wide (crate roots carry \
                 `#![forbid(unsafe_code)]`)"
                    .to_string(),
            ));
        }
        if in_test {
            continue;
        }

        if scope.std_hash
            && (t.is_ident("HashMap") || t.is_ident("HashSet"))
            && !scan.lex.annotated(line, "std-hash")
        {
            diags.push(Diagnostic::new(
                "std-hash",
                path,
                line,
                format!(
                    "`{}` in a hot-path module — SipHash per key; use \
                     sparta_collections::Fast{} (or justify with \
                     `// lint: allow(std-hash): <reason>`)",
                    t.text, t.text
                ),
            ));
        }

        if scope.wall_clock {
            let instant_now = t.is_ident("Instant")
                && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
                && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
                && toks.get(i + 3).is_some_and(|t| t.is_ident("now"));
            let system_time = t.is_ident("SystemTime");
            if (instant_now || system_time) && !scan.lex.annotated(line, "wall-clock") {
                diags.push(Diagnostic::new(
                    "wall-clock",
                    path,
                    line,
                    format!(
                        "`{}` in the deterministic-replay surface — wall-clock reads \
                         break DeterministicExecutor bit-identical replay; route \
                         through sparta_obs::ObsClock or justify with \
                         `// lint: allow(wall-clock): <reason>`",
                        if system_time {
                            "SystemTime"
                        } else {
                            "Instant::now"
                        }
                    ),
                ));
            }
        }

        if scope.alloc {
            const TYPES: [&str; 10] = [
                "Box", "Vec", "VecDeque", "String", "Arc", "Rc", "BTreeMap", "BTreeSet", "HashMap",
                "HashSet",
            ];
            const CTORS: [&str; 4] = ["new", "with_capacity", "from", "default"];
            const METHODS: [&str; 5] = [
                "to_string",
                "to_owned",
                "to_vec",
                "into_boxed_slice",
                "collect",
            ];
            let ty_ctor = TYPES.iter().any(|ty| t.is_ident(ty))
                && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
                && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
                && toks
                    .get(i + 3)
                    .is_some_and(|t| CTORS.iter().any(|c| t.is_ident(c)));
            let owning_method =
                i > 0 && toks[i - 1].is_punct('.') && METHODS.iter().any(|m| t.is_ident(m));
            let alloc_macro = (t.is_ident("vec") || t.is_ident("format"))
                && toks.get(i + 1).is_some_and(|t| t.is_punct('!'));
            if (ty_ctor || owning_method || alloc_macro) && !scan.lex.annotated(line, "alloc") {
                diags.push(Diagnostic::new(
                    "alloc",
                    path,
                    line,
                    format!(
                        "`{}` allocates on the flight recorder's record path — rings \
                         must be allocation-free after construction; move the \
                         allocation to construction and justify with \
                         `// lint: allow(alloc): <reason>`",
                        t.text
                    ),
                ));
            }
        }

        if scope.sleep
            && t.is_ident("thread")
            && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 3).is_some_and(|t| t.is_ident("sleep"))
            && !scan.lex.annotated(line, "sleep")
        {
            diags.push(Diagnostic::new(
                "sleep",
                path,
                line,
                "`thread::sleep` in sparta-core — algorithm code must block on \
                 condvars or the job queue, never wall time (breaks determinism \
                 and wastes a worker)"
                    .to_string(),
            ));
        }
    }
}

/// Crate-root hygiene: `#![forbid(unsafe_code)]` must be present.
pub fn check_crate_root(path: &str, scan: &Scan, diags: &mut Vec<Diagnostic>) {
    let toks = &scan.lex.toks;
    let mut found = false;
    for i in 0..toks.len() {
        if toks[i].is_punct('#')
            && toks.get(i + 1).is_some_and(|t| t.is_punct('!'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct('['))
            && toks.get(i + 3).is_some_and(|t| t.is_ident("forbid"))
            && toks.get(i + 5).is_some_and(|t| t.is_ident("unsafe_code"))
        {
            found = true;
            break;
        }
    }
    if !found {
        diags.push(Diagnostic::new(
            "missing-forbid",
            path,
            1,
            "crate root lacks `#![forbid(unsafe_code)]` — every workspace crate \
             locks in its zero-unsafe status"
                .to_string(),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(src: &str, scope: ApiScope) -> Vec<Diagnostic> {
        let l = lex(src);
        let s = Scan::new(&l);
        let mut d = Vec::new();
        scan_apis("test.rs", &s, scope, &mut d);
        d
    }

    const ALL: ApiScope = ApiScope {
        std_hash: true,
        wall_clock: true,
        sleep: true,
        alloc: false,
    };

    const ALLOC_ONLY: ApiScope = ApiScope {
        std_hash: false,
        wall_clock: false,
        sleep: false,
        alloc: true,
    };

    #[test]
    fn std_hash_fires_and_annotation_suppresses() {
        let d = run("use std::collections::HashMap;", ALL);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "std-hash");
        let d = run(
            "// lint: allow(std-hash): keyed with FastBuildHasher below\n\
             use std::collections::HashMap;",
            ALL,
        );
        assert!(d.is_empty());
    }

    #[test]
    fn wall_clock_fires_on_instant_now_not_elapsed() {
        let d = run("let t = Instant::now(); t.elapsed();", ALL);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "wall-clock");
        let d = run("let d = start.elapsed();", ALL);
        assert!(d.is_empty());
    }

    #[test]
    fn sleep_and_unsafe_fire() {
        let d = run("std::thread::sleep(d); unsafe { x() }", ALL);
        assert_eq!(d.len(), 2);
        assert!(d.iter().any(|d| d.rule == "sleep"));
        assert!(d.iter().any(|d| d.rule == "unsafe-code"));
    }

    #[test]
    fn cfg_test_items_are_exempt_from_api_bans_not_unsafe() {
        let src = "#[cfg(test)]\nmod tests {\n  fn t() { std::thread::sleep(d); let m: HashMap<u32,u32>; }\n}\n";
        let d = run(src, ALL);
        assert!(d.is_empty());
        let src = "#[cfg(test)]\nmod tests {\n  fn t() { unsafe { x() } }\n}\n";
        let d = run(src, ALL);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "unsafe-code");
    }

    #[test]
    fn alloc_fires_on_ctors_methods_and_macros() {
        let d = run("let v = Vec::new();", ALLOC_ONLY);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "alloc");
        let d = run("let b = Box::from(x);", ALLOC_ONLY);
        assert_eq!(d.len(), 1);
        let d = run("let s = x.to_string();", ALLOC_ONLY);
        assert_eq!(d.len(), 1);
        let d = run("let v: Vec<u64> = it.collect();", ALLOC_ONLY);
        assert_eq!(d.len(), 1);
        let d = run(
            "let v = vec![0u64; 4]; let s = format!(\"{x}\");",
            ALLOC_ONLY,
        );
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn alloc_silent_on_non_allocating_code() {
        // Arc::clone bumps a refcount, slot loads are plain reads, and
        // `Vec<...>` in type position never hits the `::ctor` pattern.
        let d = run(
            "let r = Arc::clone(&ring); let x = slot.load(Ordering::Acquire);\n\
             fn f(v: &Vec<u64>) -> u64 { v[0] }",
            ALLOC_ONLY,
        );
        assert!(d.is_empty());
    }

    #[test]
    fn alloc_annotation_and_cfg_test_suppress() {
        let d = run(
            "// lint: allow(alloc): one-time ring construction\n\
             let slots = Vec::with_capacity(cap);",
            ALLOC_ONLY,
        );
        assert!(d.is_empty());
        let d = run(
            "#[cfg(test)]\nmod tests {\n  fn t() { let v = vec![1, 2, 3]; }\n}\n",
            ALLOC_ONLY,
        );
        assert!(d.is_empty());
    }

    #[test]
    fn crate_root_forbid_detected() {
        let mut d = Vec::new();
        let l = lex("#![forbid(unsafe_code)]\npub mod x;");
        check_crate_root("lib.rs", &Scan::new(&l), &mut d);
        assert!(d.is_empty());
        let l = lex("pub mod x;");
        check_crate_root("lib.rs", &Scan::new(&l), &mut d);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "missing-forbid");
    }
}
