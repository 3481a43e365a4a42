//! A minimal JSON value model, encoder, parser, schema and diff.
//!
//! The workspace has no serde (offline-shims policy), but the bench
//! harness must emit — and the CI smoke test must *validate* — the
//! `BENCH_*.json` trajectory files. This module implements exactly the
//! JSON subset those need: objects with ordered keys, arrays, strings
//! with escaping, `u64`/`f64` numbers, booleans, and null.
//!
//! Non-finite floats encode as `null` (JSON has no NaN/∞), so emitted
//! documents always parse.
//!
//! Every document kind `repro` writes declares its shape as one
//! [`Schema`] `static` next to its emitter; [`Schema::check`] is the
//! one validator, and [`diff`] the one comparator (the perf guard
//! compares its document with the checked-in baseline through it).

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (kept exact; never rendered in E-notation).
    U64(u64),
    /// A float. Non-finite values render as `null`.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience: an empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Builder-style insert; panics if `self` is not an object.
    #[must_use]
    pub fn with(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(pairs) => pairs.push((key.to_string(), value.into())),
            _ => panic!("Json::with on a non-object"),
        }
        self
    }

    /// Member lookup on objects; `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Numeric view (`U64` or finite `F64`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::U64(n) => Some(*n as f64),
            Json::F64(x) => Some(*x),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Renders with `indent` spaces per nesting level.
    pub fn to_pretty_string(&self, indent: usize) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(indent), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let (nl, pad, pad_in) = match indent {
            Some(w) => ("\n", " ".repeat(w * depth), " ".repeat(w * (depth + 1))),
            None => ("", String::new(), String::new()),
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(n) => {
                let _ = write!(out, "{n}");
            }
            Json::F64(x) => {
                if x.is_finite() {
                    // `{:?}` round-trips f64 and never drops the
                    // fractional marker for integral values ("1.0").
                    let _ = write!(out, "{x:?}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    item.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push('}');
            }
        }
    }
}

/// Renders compact JSON (`format!("{j}")` / `j.to_string()`).
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        f.write_str(&out)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::U64(n)
    }
}
impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::U64(n as u64)
    }
}
impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::F64(x)
    }
}
impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}
impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}
impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}
impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Json {
        Json::Arr(v)
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses a JSON document. Errors carry the byte offset and a reason.
pub fn parse(src: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: src.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            pairs.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            // Surrogates (only producible by hand-written
                            // input) map to the replacement character.
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {start}")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or escape. Both
                    // are ASCII, so a run never splits a UTF-8 scalar.
                    let rest = &self.bytes[self.pos..];
                    let run = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    let text = std::str::from_utf8(&rest[..run]).map_err(|_| "invalid UTF-8")?;
                    s.push_str(text);
                    self.pos += run;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut float = false;
        if self.peek() == Some(b'.') {
            float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if !float {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::U64(n));
            }
        }
        text.parse::<f64>()
            .map(Json::F64)
            .map_err(|_| format!("bad number at byte {start}"))
    }
}

/// A declarative description of a JSON document's shape. Schemas are
/// `const`-built, so each document kind declares its contract as one
/// `static` and [`Schema::check`]s parsed documents against it.
#[derive(Debug)]
pub enum Schema {
    /// Any number (`U64` or `F64`).
    Num,
    /// Any string.
    Str,
    /// `true` or `false`.
    Bool,
    /// The number `n` exactly: a document's schema version.
    Version(u64),
    /// A string drawn from a fixed set.
    OneOf(&'static [&'static str]),
    /// An array whose every element matches the schema.
    Arr(&'static Schema),
    /// A non-empty array whose every element matches the schema.
    NonEmptyArr(&'static Schema),
    /// An object of `(names, schema)` fields; other keys pass. `names`
    /// lists space-separated keys that share the schema, each required
    /// unless it ends in `?` (then checked only when present).
    Obj(&'static [(&'static str, Schema)]),
}

/// Each key an object schema's fields name, with its schema and
/// whether it is required.
fn fields(
    list: &'static [(&'static str, Schema)],
) -> impl Iterator<Item = (&'static str, &'static Schema, bool)> {
    list.iter().flat_map(|(names, schema)| {
        names
            .split(' ')
            .map(move |key| match key.strip_suffix('?') {
                Some(key) => (key, schema, false),
                None => (key, schema, true),
            })
    })
}

/// `path.key`, or `key` at the document root.
fn field_path(path: &str, key: &str) -> String {
    format!("{path}{}{key}", if path.is_empty() { "" } else { "." })
}

impl Schema {
    /// Checks `doc` against the schema. The error names the JSON path
    /// of the first violation, e.g. `cells[3].work.heap_updates:
    /// missing`.
    pub fn check(&self, doc: &Json) -> Result<(), String> {
        self.check_at(doc, "")
    }

    fn check_at(&self, v: &Json, path: &str) -> Result<(), String> {
        let fail = |what: String| {
            let at = if path.is_empty() { "document" } else { path };
            Err(format!("{at}: {what}"))
        };
        match (self, v) {
            (Schema::Num, Json::U64(_) | Json::F64(_))
            | (Schema::Str, Json::Str(_))
            | (Schema::Bool, Json::Bool(_)) => Ok(()),
            (Schema::Version(n), _) if v.as_f64() == Some(*n as f64) => Ok(()),
            (Schema::Version(n), _) => fail(format!("expected version {n}, got {v}")),
            (Schema::OneOf(set), Json::Str(s)) if set.contains(&s.as_str()) => Ok(()),
            (Schema::OneOf(set), _) => fail(format!("expected one of {set:?}, got {v}")),
            (Schema::NonEmptyArr(_), Json::Arr(items)) if items.is_empty() => {
                fail("empty".to_string())
            }
            (Schema::Arr(item) | Schema::NonEmptyArr(item), Json::Arr(items)) => items
                .iter()
                .enumerate()
                .try_for_each(|(i, x)| item.check_at(x, &format!("{path}[{i}]"))),
            (Schema::Obj(list), Json::Obj(_)) => {
                fields(list).try_for_each(|(key, schema, required)| match v.get(key) {
                    Some(x) => schema.check_at(x, &field_path(path, key)),
                    None if required => Err(format!("{}: missing", field_path(path, key))),
                    None => Ok(()),
                })
            }
            _ => fail(format!("expected {}", self.kind())),
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            Schema::Num | Schema::Version(_) => "a number",
            Schema::Str | Schema::OneOf(_) => "a string",
            Schema::Bool => "a bool",
            Schema::Arr(_) | Schema::NonEmptyArr(_) => "an array",
            Schema::Obj(_) => "an object",
        }
    }

    /// Breaks each required field of `doc` the schema declares in turn
    /// — deleting it, then giving it a value of the wrong type — and
    /// checks that [`Schema::check`] rejects every such document with an
    /// error naming that field's path. Returns how many documents were
    /// checked. A schema's contract test runs this on a real document.
    pub fn rejects_each_broken_field(&self, doc: &Json) -> Result<usize, String> {
        let mut broken = Vec::new();
        self.break_at(doc, "", &mut broken);
        for (path, doc) in &broken {
            match self.check(doc) {
                Err(e) if e.starts_with(&format!("{path}: ")) => {}
                other => return Err(format!("breaking {path} gave {other:?}")),
            }
        }
        Ok(broken.len())
    }

    fn break_at(&self, v: &Json, path: &str, out: &mut Vec<(String, Json)>) {
        match (self, v) {
            (Schema::Arr(item) | Schema::NonEmptyArr(item), Json::Arr(items)) => {
                for (i, x) in items.iter().enumerate() {
                    let mut inner = Vec::new();
                    item.break_at(x, &format!("{path}[{i}]"), &mut inner);
                    for (p, broken) in inner {
                        let mut items = items.clone();
                        items[i] = broken;
                        out.push((p, Json::Arr(items)));
                    }
                }
            }
            (Schema::Obj(list), Json::Obj(pairs)) => {
                for (key, schema, required) in fields(list) {
                    let Some(at) = pairs.iter().position(|(k, _)| k == key) else {
                        continue;
                    };
                    let p = field_path(path, key);
                    let with = |value: Option<Json>| {
                        let mut pairs = pairs.clone();
                        match value {
                            Some(value) => pairs[at].1 = value,
                            None => drop(pairs.remove(at)),
                        }
                        Json::Obj(pairs)
                    };
                    if required {
                        out.push((p.clone(), with(None)));
                        out.push((p.clone(), with(Some(schema.wrong_type()))));
                    }
                    let mut inner = Vec::new();
                    schema.break_at(&pairs[at].1, &p, &mut inner);
                    out.extend(inner.into_iter().map(|(q, broken)| (q, with(Some(broken)))));
                }
            }
            _ => {}
        }
    }

    /// A value this schema rejects for its type.
    fn wrong_type(&self) -> Json {
        match self {
            Schema::Num | Schema::Version(_) => Json::from("not a number"),
            _ => Json::U64(0),
        }
    }
}

/// Compares two documents: one line per path where they differ,
/// `path: <a> != <b>` (`missing` for a key or element only one side
/// has). Empty when the documents are equal.
pub fn diff(a: &Json, b: &Json) -> Vec<String> {
    let mut out = Vec::new();
    diff_at(Some(a), Some(b), "", &mut out);
    out
}

fn diff_at<'a>(a: Option<&'a Json>, b: Option<&'a Json>, path: &str, out: &mut Vec<String>) {
    match (a, b) {
        (Some(Json::Obj(x)), Some(Json::Obj(y))) => {
            let only_in_b = y.iter().filter(|(k, _)| x.iter().all(|(j, _)| j != k));
            for (key, _) in x.iter().chain(only_in_b) {
                let field = |side: Option<&'a Json>| side.and_then(|v| v.get(key));
                diff_at(field(a), field(b), &field_path(path, key), out);
            }
        }
        (Some(Json::Arr(x)), Some(Json::Arr(y))) => {
            for i in 0..x.len().max(y.len()) {
                diff_at(x.get(i), y.get(i), &format!("{path}[{i}]"), out);
            }
        }
        _ if a == b => {}
        _ => {
            let show = |v: Option<&Json>| v.map_or_else(|| "missing".to_string(), Json::to_string);
            out.push(format!("{path}: {} != {}", show(a), show(b)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_lookup() {
        let j = Json::obj()
            .with("name", "smoke")
            .with("n", 3u64)
            .with("ratio", 0.5)
            .with("ok", true)
            .with("tags", Json::Arr(vec![Json::U64(1), Json::U64(2)]));
        assert_eq!(j.get("name").unwrap().as_str(), Some("smoke"));
        assert_eq!(j.get("n").unwrap().as_f64(), Some(3.0));
        assert_eq!(j.get("tags").unwrap().as_arr().unwrap().len(), 2);
        assert!(j.get("missing").is_none());
    }

    #[test]
    fn roundtrip_compact_and_pretty() {
        let j = Json::obj()
            .with("s", "a\"b\\c\nd")
            .with("i", u64::MAX)
            .with("f", 1.0)
            .with("none", Json::Null)
            .with("arr", Json::Arr(vec![Json::Bool(false), Json::F64(2.5)]));
        for text in [j.to_string(), j.to_pretty_string(2)] {
            let back = parse(&text).unwrap();
            assert_eq!(back, j, "failed roundtrip for {text}");
        }
    }

    #[test]
    fn multi_byte_text_round_trips_beside_escapes() {
        let j = Json::obj().with("s", "é→𝄞\"é\\→\n𝄞\t").with("é→𝄞", "x");
        for text in [j.to_string(), j.to_pretty_string(2)] {
            assert_eq!(parse(&text).unwrap(), j, "failed roundtrip for {text}");
        }
        let escaped = parse(r#""\u00e9\u2192x\"é""#).unwrap();
        assert_eq!(escaped, Json::Str("é→x\"é".into()));
    }

    #[test]
    fn u64_precision_is_exact() {
        let big = u64::MAX - 3;
        let text = Json::U64(big).to_string();
        assert_eq!(text, format!("{big}"));
        assert_eq!(parse(&text).unwrap(), Json::U64(big));
    }

    #[test]
    fn non_finite_floats_emit_null() {
        assert_eq!(Json::F64(f64::NAN).to_string(), "null");
        assert_eq!(Json::F64(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("42 tail").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    const POINT: Schema = Schema::Obj(&[
        ("x", Schema::Num),
        ("tag", Schema::OneOf(&["a", "b"])),
        ("note?", Schema::Str),
    ]);
    static DOC: Schema = Schema::Obj(&[
        ("version", Schema::Version(1)),
        ("ok", Schema::Bool),
        ("points", Schema::NonEmptyArr(&POINT)),
        ("extra?", Schema::Arr(&Schema::Num)),
    ]);

    #[test]
    fn schema_check_names_the_failing_path() {
        let err = |text: &str| DOC.check(&parse(text).unwrap()).unwrap_err();
        let valid = r#"{"version": 1, "ok": true, "points": [{"x": 1, "tag": "a"}]}"#;
        DOC.check(&parse(valid).unwrap()).unwrap();
        for (from, to, want) in [
            (
                "\"version\": 1",
                "\"version\": 2",
                "version: expected version 1, got 2",
            ),
            (
                "\"a\"",
                "\"c\"",
                r#"points[0].tag: expected one of ["a", "b"], got "c""#,
            ),
            (
                "{\"x\"",
                "{\"note\": 3, \"x\"",
                "points[0].note: expected a string",
            ),
            ("[{\"x\": 1, \"tag\": \"a\"}]", "[]", "points: empty"),
        ] {
            assert_eq!(err(&valid.replace(from, to)), want);
        }
        assert_eq!(err("[]"), "document: expected an object");
        // Five required fields (three, plus the point's two), each
        // deleted once and mistyped once.
        assert_eq!(
            DOC.rejects_each_broken_field(&parse(valid).unwrap()),
            Ok(10)
        );
    }

    #[test]
    fn diff_lists_each_differing_path_with_both_values() {
        let a = parse(r#"{"n": 1, "cells": [{"x": 1}, {"x": 2}], "gone": true}"#).unwrap();
        let b = parse(r#"{"n": 1, "cells": [{"x": 1}, {"x": 3, "y": 0}], "new": "s"}"#).unwrap();
        assert!(diff(&a, &a).is_empty());
        assert_eq!(
            diff(&a, &b),
            [
                "cells[1].x: 2 != 3",
                "cells[1].y: missing != 0",
                "gone: true != missing",
                "new: missing != \"s\"",
            ]
        );
    }

    #[test]
    fn parses_nested_document() {
        let j = parse(r#"{"a": [1, 2.5, {"b": null}], "c": "xA"}"#).unwrap();
        assert_eq!(
            j.get("a").unwrap().as_arr().unwrap()[2].get("b"),
            Some(&Json::Null)
        );
        assert_eq!(j.get("c").unwrap().as_str(), Some("xA"));
    }
}
