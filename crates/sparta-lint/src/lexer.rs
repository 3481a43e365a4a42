//! A hand-rolled Rust lexer.
//!
//! The analysis passes need token-level facts (call chains, attribute
//! contents, brace nesting) plus the comments the compiler throws
//! away — justification annotations live in comments. A full parser
//! (`syn`) would be overkill and would violate the offline-shims
//! policy; this lexer handles the entire real-world surface the
//! workspace uses: line/blocked (nested) comments, string/char/byte
//! literals, raw strings, lifetimes, numbers, and multi-byte
//! punctuation left as single chars (the passes only ever match
//! single-char punctuation sequences).

/// Token classification. The passes mostly match on identifier text
/// and single punctuation characters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`self`, `let`, `unsafe`, `HashMap`, …).
    Ident,
    /// One punctuation character (`.`, `:`, `(`, `#`, …).
    Punct,
    /// String/char/byte/numeric literal (text preserved verbatim).
    Literal,
    /// A lifetime such as `'a` (distinguished from char literals).
    Lifetime,
}

/// One lexed token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Tok {
    pub kind: TokKind,
    pub text: String,
    pub line: u32,
}

impl Tok {
    /// Whether this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == 1 && self.text.starts_with(c)
    }

    /// Whether this token is the identifier `name`.
    pub fn is_ident(&self, name: &str) -> bool {
        self.kind == TokKind::Ident && self.text == name
    }
}

/// A justification annotation harvested from a comment.
///
/// Two grammars, both line-comment based:
///
/// - `// ordering: <reason>` — justifies an atomic-ordering site that
///   the policy table cannot prove (rule name is `"ordering"`). The
///   reason must also cite a `sparta-model` protocol via a
///   `model: <name>` tag on the same line (checked by [`crate::models`]).
/// - `// lint: allow(<rule>): <reason>` — suppresses a named rule
///   (`alloc`, `lock-unwrap`, `condvar-wait`) at one site.
///
/// An annotation applies to its own line (trailing comment) or, when
/// the comment stands alone, to the next non-comment line below it.
#[derive(Debug, Clone)]
pub struct Annotation {
    pub line: u32,
    pub rule: String,
    pub reason: String,
}

/// Lexer output: the token stream plus the comment-derived side tables
/// the annotation-attachment logic needs.
#[derive(Debug, Default)]
pub struct Lexed {
    pub toks: Vec<Tok>,
    pub annotations: Vec<Annotation>,
    /// Lines consisting only of comments/whitespace. Annotation
    /// attachment walks up through these to find standalone
    /// justification comments above a site.
    pub comment_only_lines: std::collections::HashSet<u32>,
}

impl Lexed {
    /// Whether `line` carries an annotation for `rule`, either trailing
    /// on the line itself or in the contiguous run of comment-only
    /// lines immediately above it.
    pub fn annotated(&self, line: u32, rule: &str) -> bool {
        let has = |l: u32| {
            self.annotations
                .iter()
                .any(|a| a.line == l && a.rule == rule)
        };
        if has(line) {
            return true;
        }
        let mut l = line.saturating_sub(1);
        while l > 0 && self.comment_only_lines.contains(&l) {
            if has(l) {
                return true;
            }
            l -= 1;
        }
        false
    }
}

/// Parses an annotation out of one comment body (text after `//` or
/// inside `/* */`).
fn parse_annotation(body: &str, line: u32) -> Option<Annotation> {
    let body = body.trim();
    if let Some(rest) = body.strip_prefix("ordering:") {
        return Some(Annotation {
            line,
            rule: "ordering".to_string(),
            reason: rest.trim().to_string(),
        });
    }
    if let Some(rest) = body.strip_prefix("lint:") {
        let rest = rest.trim();
        if let Some(rest) = rest.strip_prefix("allow(") {
            let close = rest.find(')')?;
            let rule = rest[..close].trim().to_string();
            let reason = rest[close + 1..].trim_start_matches(':').trim().to_string();
            return Some(Annotation { line, rule, reason });
        }
    }
    None
}

/// Lexes `src`, producing tokens and annotation side tables.
///
/// The lexer is infallible by design: unexpected bytes become `Punct`
/// tokens. An unterminated string/comment consumes to end of file —
/// the workspace self-run lints only code that already compiles, and
/// fixtures are kept well-formed.
pub fn lex(src: &str) -> Lexed {
    let mut out = Lexed::default();
    let b: Vec<char> = src.chars().collect();
    let mut i = 0usize;
    let mut line: u32 = 1;
    // Per-line flags for the comment-only-lines table.
    let mut line_has_code = false;
    let mut line_has_comment = false;
    let finish_line = |line: u32,
                       has_code: &mut bool,
                       has_comment: &mut bool,
                       table: &mut std::collections::HashSet<u32>| {
        if *has_comment && !*has_code {
            table.insert(line);
        }
        *has_code = false;
        *has_comment = false;
    };

    while i < b.len() {
        let c = b[i];
        match c {
            '\n' => {
                finish_line(
                    line,
                    &mut line_has_code,
                    &mut line_has_comment,
                    &mut out.comment_only_lines,
                );
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if i + 1 < b.len() && b[i + 1] == '/' => {
                // Line comment: harvest annotation, consume to newline.
                line_has_comment = true;
                let start = i + 2;
                let mut j = start;
                while j < b.len() && b[j] != '\n' {
                    j += 1;
                }
                let body: String = b[start..j].iter().collect();
                // Doc comments start with an extra `/` or `!`.
                let body = body.trim_start_matches(['/', '!']);
                if let Some(a) = parse_annotation(body, line) {
                    out.annotations.push(a);
                }
                i = j;
            }
            '/' if i + 1 < b.len() && b[i + 1] == '*' => {
                // Block comment, nested per Rust rules.
                line_has_comment = true;
                let start_line = line;
                let body_start = i + 2;
                let mut depth = 1;
                let mut j = body_start;
                while j < b.len() && depth > 0 {
                    if b[j] == '\n' {
                        finish_line(
                            line,
                            &mut line_has_code,
                            &mut line_has_comment,
                            &mut out.comment_only_lines,
                        );
                        line += 1;
                        line_has_comment = true;
                    } else if b[j] == '/' && j + 1 < b.len() && b[j + 1] == '*' {
                        depth += 1;
                        j += 1;
                    } else if b[j] == '*' && j + 1 < b.len() && b[j + 1] == '/' {
                        depth -= 1;
                        j += 1;
                    }
                    j += 1;
                }
                let body: String = b[body_start..j.saturating_sub(2).max(body_start)]
                    .iter()
                    .collect();
                if let Some(a) = parse_annotation(&body, start_line) {
                    out.annotations.push(a);
                }
                i = j;
            }
            '"' => {
                line_has_code = true;
                let (text, nl, j) = scan_string(&b, i);
                out.toks.push(Tok {
                    kind: TokKind::Literal,
                    text,
                    line,
                });
                line += nl;
                i = j;
            }
            'r' | 'b' if starts_raw_or_byte_string(&b, i) => {
                line_has_code = true;
                let (text, nl, j) = scan_raw_or_byte(&b, i);
                out.toks.push(Tok {
                    kind: TokKind::Literal,
                    text,
                    line,
                });
                line += nl;
                i = j;
            }
            '\'' => {
                line_has_code = true;
                let (tok, j) = scan_quote(&b, i, line);
                out.toks.push(tok);
                i = j;
            }
            c if c.is_alphabetic() || c == '_' => {
                line_has_code = true;
                let mut j = i;
                while j < b.len() && (b[j].is_alphanumeric() || b[j] == '_') {
                    j += 1;
                }
                out.toks.push(Tok {
                    kind: TokKind::Ident,
                    text: b[i..j].iter().collect(),
                    line,
                });
                i = j;
            }
            c if c.is_ascii_digit() => {
                line_has_code = true;
                let mut j = i;
                // Numbers incl. underscores, hex, type suffixes, floats.
                // `1.0` is one literal but `x.0` never starts here, and
                // a trailing `.` followed by an ident (`1.max(…)`) must
                // leave the `.` to punctuation.
                while j < b.len()
                    && (b[j].is_alphanumeric()
                        || b[j] == '_'
                        || (b[j] == '.'
                            && j + 1 < b.len()
                            && b[j + 1].is_ascii_digit()
                            && !b[i..j].contains(&'.')))
                {
                    j += 1;
                }
                out.toks.push(Tok {
                    kind: TokKind::Literal,
                    text: b[i..j].iter().collect(),
                    line,
                });
                i = j;
            }
            c => {
                line_has_code = true;
                out.toks.push(Tok {
                    kind: TokKind::Punct,
                    text: c.to_string(),
                    line,
                });
                i += 1;
            }
        }
    }
    finish_line(
        line,
        &mut line_has_code,
        &mut line_has_comment,
        &mut out.comment_only_lines,
    );
    out
}

/// Whether position `i` (at `r` or `b`) starts a raw/byte string.
fn starts_raw_or_byte_string(b: &[char], i: usize) -> bool {
    let rest = &b[i..];
    let after = |k: usize| rest.get(k).copied();
    match rest.first() {
        Some('r') => matches!(after(1), Some('"') | Some('#')) && raw_hashes_then_quote(rest, 1),
        Some('b') => match after(1) {
            Some('"') => true,
            Some('r') => raw_hashes_then_quote(rest, 2),
            _ => false,
        },
        _ => false,
    }
}

/// After the `r`, raw strings are `#* "`.
fn raw_hashes_then_quote(rest: &[char], mut k: usize) -> bool {
    while rest.get(k) == Some(&'#') {
        k += 1;
    }
    rest.get(k) == Some(&'"')
}

/// Scans a plain `"…"` string starting at `i`. Returns (text, newlines
/// consumed, next index).
fn scan_string(b: &[char], i: usize) -> (String, u32, usize) {
    let mut j = i + 1;
    let mut nl = 0;
    while j < b.len() {
        match b[j] {
            '\\' => j += 2,
            '"' => {
                j += 1;
                break;
            }
            '\n' => {
                nl += 1;
                j += 1;
            }
            _ => j += 1,
        }
    }
    (b[i..j.min(b.len())].iter().collect(), nl, j)
}

/// Scans `b"…"`, `r"…"`, `r#"…"#`, `br#"…"#` starting at `i`.
fn scan_raw_or_byte(b: &[char], i: usize) -> (String, u32, usize) {
    let mut j = i;
    while j < b.len() && (b[j] == 'r' || b[j] == 'b') {
        j += 1;
    }
    let mut hashes = 0;
    while j < b.len() && b[j] == '#' {
        hashes += 1;
        j += 1;
    }
    let raw = b[i..j].contains(&'r');
    debug_assert!(j < b.len() && b[j] == '"');
    j += 1; // opening quote
    let mut nl = 0;
    while j < b.len() {
        match b[j] {
            '\\' if !raw => j += 2,
            '\n' => {
                nl += 1;
                j += 1;
            }
            '"' => {
                // Raw strings close only on `"` + the right hash count.
                let close = (0..hashes).all(|k| b.get(j + 1 + k) == Some(&'#'));
                if close {
                    j += 1 + hashes;
                    break;
                }
                j += 1;
            }
            _ => j += 1,
        }
    }
    (b[i..j.min(b.len())].iter().collect(), nl, j)
}

/// Disambiguates `'a` (lifetime) from `'x'` / `'\n'` (char literal).
fn scan_quote(b: &[char], i: usize, line: u32) -> (Tok, usize) {
    // Char literal if the closing quote comes within a short window
    // (`'x'`, `'\t'`, `'\u{1F600}'`); otherwise it is a lifetime.
    if b.get(i + 1) == Some(&'\\') {
        // Escaped char literal: scan to closing quote.
        let mut j = i + 2;
        while j < b.len() && b[j] != '\'' {
            j += 1;
        }
        return (
            Tok {
                kind: TokKind::Literal,
                text: b[i..(j + 1).min(b.len())].iter().collect(),
                line,
            },
            (j + 1).min(b.len()),
        );
    }
    if b.get(i + 2) == Some(&'\'') {
        return (
            Tok {
                kind: TokKind::Literal,
                text: b[i..i + 3].iter().collect(),
                line,
            },
            i + 3,
        );
    }
    // Lifetime: `'` + ident.
    let mut j = i + 1;
    while j < b.len() && (b[j].is_alphanumeric() || b[j] == '_') {
        j += 1;
    }
    (
        Tok {
            kind: TokKind::Lifetime,
            text: b[i..j].iter().collect(),
            line,
        },
        j,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexes_idents_puncts_and_lines() {
        let l = lex("let x = a.load(Ordering::Relaxed);\nlet y = 2;");
        let idents: Vec<&str> = l
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(
            idents,
            vec!["let", "x", "a", "load", "Ordering", "Relaxed", "let", "y"]
        );
        assert_eq!(l.toks.last().unwrap().line, 2);
    }

    #[test]
    fn strings_and_comments_do_not_leak_tokens() {
        let l = lex("let s = \"Ordering::SeqCst { } \"; /* Mutex */ // lock()\nx");
        assert!(!l.toks.iter().any(|t| t.is_ident("Mutex")));
        assert!(!l.toks.iter().any(|t| t.is_ident("lock")));
        assert!(l.toks.iter().any(|t| t.is_ident("x")));
    }

    #[test]
    fn raw_strings_and_chars_and_lifetimes() {
        let l = lex("r#\"a \" b\"# 'x' '\\n' &'a str b\"bytes\"");
        let kinds: Vec<TokKind> = l.toks.iter().map(|t| t.kind).collect();
        assert_eq!(
            kinds,
            vec![
                TokKind::Literal,
                TokKind::Literal,
                TokKind::Literal,
                TokKind::Punct,
                TokKind::Lifetime,
                TokKind::Ident,
                TokKind::Literal,
            ]
        );
    }

    #[test]
    fn nested_block_comments_track_lines() {
        let l = lex("/* a /* b */ c\n still comment */ token");
        assert_eq!(l.toks.len(), 1);
        assert_eq!(l.toks[0].line, 2);
        assert!(l.comment_only_lines.contains(&1));
    }

    #[test]
    fn ordering_annotation_trailing_and_above() {
        let src = "\
a.load(Ordering::Relaxed); // ordering: stats only
// ordering: paired with the Release store in push
b.load(Ordering::Relaxed);
c.load(Ordering::Relaxed);
";
        let l = lex(src);
        assert!(l.annotated(1, "ordering"));
        assert!(l.annotated(3, "ordering"));
        assert!(!l.annotated(4, "ordering"));
    }

    #[test]
    fn lint_allow_annotation_parses_rule_and_reason() {
        let l = lex("// lint: allow(alloc): construction only\nVec::new();");
        assert!(l.annotated(2, "alloc"));
        assert!(!l.annotated(2, "lock-unwrap"));
        assert_eq!(l.annotations[0].reason, "construction only");
    }

    #[test]
    fn numeric_literals_do_not_eat_method_calls() {
        let l = lex("1.max(2) 3.5 0x_ff 1_000u64");
        assert!(l.toks.iter().any(|t| t.is_ident("max")));
        assert!(l.toks.iter().any(|t| t.text == "3.5"));
    }
}
