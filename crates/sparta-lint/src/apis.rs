//! Pass 3: the allocation ban on allocation-free hot paths.
//!
//! **`alloc`** — allocation is banned where a path must run out of
//! storage sized at construction (paths in
//! [`Policy::bans_alloc`](crate::Policy::bans_alloc)): the flight
//! recorder's record path, the compressed posting decoder, the
//! profiling plane's sample/fold paths and the per-posting
//! candidate-state structures. Allocating constructors (`Vec::new`,
//! `Box::from`, …), owning conversions (`to_vec`, `collect`, …) and
//! `vec!`/`format!` must not appear outside construction, which
//! carries `// lint: allow(alloc): <reason>`. Test code (`tests/`
//! dirs, `benches/`, `examples/`, `#[cfg(test)]` items) is exempt.
//!
//! The bans a compiler can hold live in manifests and `clippy.toml`
//! files instead (DESIGN.md §11): `unsafe` (rustc's `unsafe_code`),
//! wall-clock reads, sleeps and std hash maps (clippy's
//! `disallowed_methods` / `disallowed_types`).

use crate::report::Diagnostic;
use crate::scan::Scan;

/// Runs the allocation scan over one file on an allocation-free path.
pub fn scan_apis(path: &str, scan: &Scan, diags: &mut Vec<Diagnostic>) {
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
    let toks = &scan.lex.toks;
    for i in 0..toks.len() {
        let t = &toks[i];
        let line = t.line;
        if scan.in_test_region(line) {
            continue;
        }
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
                    "`{}` allocates on an allocation-free path — it must run out \
                     of storage sized at construction; move the allocation there \
                     and justify with `// lint: allow(alloc): <reason>`",
                    t.text
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(src: &str) -> Vec<Diagnostic> {
        let l = lex(src);
        let s = Scan::new(&l);
        let mut d = Vec::new();
        scan_apis("test.rs", &s, &mut d);
        d
    }

    #[test]
    fn alloc_fires_on_ctors_methods_and_macros() {
        let d = run("let v = Vec::new();");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "alloc");
        let d = run("let b = Box::from(x);");
        assert_eq!(d.len(), 1);
        let d = run("let s = x.to_string();");
        assert_eq!(d.len(), 1);
        let d = run("let v: Vec<u64> = it.collect();");
        assert_eq!(d.len(), 1);
        let d = run("let v = vec![0u64; 4]; let s = format!(\"{x}\");");
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn alloc_silent_on_non_allocating_code() {
        // Arc::clone bumps a refcount, slot loads are plain reads, and
        // `Vec<...>` in type position never hits the `::ctor` pattern.
        let d = run(
            "let r = Arc::clone(&ring); let x = slot.load(Ordering::Acquire);\n\
             fn f(v: &Vec<u64>) -> u64 { v[0] }",
        );
        assert!(d.is_empty());
    }

    #[test]
    fn alloc_annotation_and_cfg_test_suppress() {
        let d = run("// lint: allow(alloc): one-time ring construction\n\
             let slots = Vec::with_capacity(cap);");
        assert!(d.is_empty());
        let d = run("#[cfg(test)]\nmod tests {\n  fn t() { let v = vec![1, 2, 3]; }\n}\n");
        assert!(d.is_empty());
    }
}
