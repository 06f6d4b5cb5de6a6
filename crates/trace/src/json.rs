//! Minimal dependency-free JSON value, writer, and parser.
//!
//! The workspace bans external crates, so the metrics sink hand-rolls the
//! small JSON subset it needs: objects, arrays, strings, finite numbers,
//! booleans, and null. The writer renders non-finite numbers as `null`
//! (the schema validator then rejects the document — deliberately: a NaN
//! metric is a bug, not data). The parser exists so the `metrics_check`
//! validator and round-trip tests need no third-party reader.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (non-finite values render as `null`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (impl Into<String>, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Builds a number from anything convertible to `f64`.
    pub fn num(n: impl Into<f64>) -> Json {
        Json::Num(n.into())
    }

    /// Builds a number from a `u64` (lossless up to 2⁵³).
    pub fn uint(n: u64) -> Json {
        Json::Num(n as f64)
    }

    /// Builds a `u64` as a `"0x"`-prefixed 16-digit hex string: exact for
    /// every value, where a JSON number (an `f64`) rounds above 2⁵³.
    pub fn hex(n: u64) -> Json {
        Json::Str(format!("0x{n:016x}"))
    }

    /// Looks up a key of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a finite number, if it is one.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) if n.is_finite() => Some(*n),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a string in the [`Json::hex`] form.
    pub fn as_hex(&self) -> Option<u64> {
        let digits = self.as_str()?.strip_prefix("0x")?;
        if digits.len() != 16 {
            return None;
        }
        u64::from_str_radix(digits, 16).ok()
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The value's object pairs, if it is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Renders the value as pretty-printed JSON (2-space indent).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out.push('\n');
        out
    }

    /// Renders the value as single-line compact JSON (no whitespace), the
    /// form used for JSONL records where one value must occupy one line.
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.render_compact_into(&mut out);
        out
    }

    fn render_compact_into(&self, out: &mut String) {
        match self {
            Json::Null | Json::Bool(_) | Json::Num(_) | Json::Str(_) => {
                self.render_into(out, 0);
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_compact_into(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(out, k);
                    out.push(':');
                    v.render_compact_into(out);
                }
                out.push('}');
            }
        }
    }

    fn render_into(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if !n.is_finite() {
                    out.push_str("null");
                } else if n.fract() == 0.0 && n.abs() < 9.0e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            Json::Str(s) => render_string(out, s),
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
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.render_into(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
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
                    out.push('\n');
                    push_indent(out, indent + 1);
                    render_string(out, k);
                    out.push_str(": ");
                    v.render_into(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn render_string(out: &mut String, s: &str) {
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

/// Deepest nesting of arrays and objects [`parse`] accepts. The parser
/// recurses once per level, so an unbounded depth (a megabyte of `[`)
/// would overflow the stack and abort the process; 128 is far deeper than
/// any document this workspace writes.
pub const MAX_DEPTH: usize = 128;

/// Parses a JSON document.
///
/// # Errors
///
/// Returns a human-readable message with a byte offset on malformed input,
/// trailing garbage, or nesting deeper than [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", b as char, *pos))
    }
}

/// Parses one value nested inside `depth` arrays or objects.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{' | b'[') if depth == MAX_DEPTH => {
            Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", *pos))
        }
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_keyword(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_keyword(bytes, pos, "null", Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
        _ => Err(format!("unexpected input at byte {}", *pos)),
    }
}

fn parse_keyword(bytes: &[u8], pos: &mut usize, word: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or_else(|| format!("invalid number at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| format!("bad \\u escape at byte {}", *pos))?;
                        out.push(char::from_u32(hex).unwrap_or('\u{FFFD}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(&b) => {
                // Consume one UTF-8 scalar. The input came from &str, so
                // boundaries are valid — but decode checked anyway so the
                // parser holds no unsafe.
                let len = match b {
                    b if b < 0x80 => 1,
                    b if b >= 0xF0 => 4,
                    b if b >= 0xE0 => 3,
                    _ => 2,
                };
                let end = (*pos + len).min(bytes.len());
                let c = std::str::from_utf8(&bytes[*pos..end])
                    .ok()
                    .and_then(|s| s.chars().next())
                    .ok_or_else(|| format!("invalid UTF-8 at byte {}", *pos))?;
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut pairs = Vec::new();
    let mut seen: BTreeMap<String, ()> = BTreeMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(pairs));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        if seen.insert(key.clone(), ()).is_some() {
            return Err(format!("duplicate key {key:?}"));
        }
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos, depth)?;
        pairs.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_document() {
        let doc = Json::obj([
            ("name", Json::str("fig9 \"fast\"\n")),
            ("count", Json::uint(42)),
            ("ratio", Json::num(0.785)),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
            (
                "items",
                Json::Arr(vec![Json::uint(1), Json::str("two"), Json::Arr(vec![])]),
            ),
        ]);
        let text = doc.render();
        let back = parse(&text).expect("parses");
        assert_eq!(back, doc);
    }

    #[test]
    fn compact_rendering_round_trips_on_one_line() {
        let doc = Json::obj([
            ("label", Json::str("reduction 9%")),
            ("results", Json::Arr(vec![Json::str("x"), Json::uint(3)])),
            ("error", Json::Null),
            ("nested", Json::obj([("k", Json::num(0.5))])),
        ]);
        let line = doc.render_compact();
        assert!(!line.contains('\n'), "compact output must be one line");
        assert!(!line.contains(": "), "compact output has no pretty spacing");
        assert_eq!(parse(&line).expect("parses"), doc);
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(Json::uint(1043).render().trim(), "1043");
        assert!(Json::num(0.5).render().trim().contains("0.5"));
    }

    #[test]
    fn hex_round_trips_values_a_number_would_round() {
        // The FNV-1a offset basis: as an f64 it renders as …655000.
        for v in [0, (1u64 << 53) + 1, 0xcbf2_9ce4_8422_2325, u64::MAX] {
            let back = parse(&Json::hex(v).render()).unwrap();
            assert_eq!(back.as_hex(), Some(v));
        }
        for bad in [
            "\"12\"",
            "\"0x12\"",
            "\"0xcbf29ce48422232g\"",
            "14695981039346656037",
        ] {
            assert_eq!(parse(bad).unwrap().as_hex(), None, "{bad}");
        }
    }

    #[test]
    fn non_finite_numbers_render_as_null() {
        assert_eq!(Json::Num(f64::NAN).render().trim(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render().trim(), "null");
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{\"a\": }").is_err());
        assert!(parse("[1, 2").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("{\"a\": 1, \"a\": 2}").is_err());
    }

    #[test]
    fn nesting_is_bounded_by_max_depth() {
        // A megabyte of `[` is an error, not a stack overflow.
        let err = parse(&"[".repeat(1_000_000)).unwrap_err();
        assert!(err.contains(&format!("byte {MAX_DEPTH}")), "{err}");
        let arrays = |depth| "[".repeat(depth) + &"]".repeat(depth);
        assert!(parse(&arrays(MAX_DEPTH)).is_ok());
        assert!(parse(&arrays(MAX_DEPTH + 1)).is_err());
        let objects = |depth| "{\"k\":".repeat(depth) + "1" + &"}".repeat(depth);
        assert!(parse(&objects(MAX_DEPTH)).is_ok());
        let err = parse(&objects(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains(&format!("byte {}", 5 * MAX_DEPTH)), "{err}");
    }

    #[test]
    fn get_and_accessors() {
        let doc = parse(r#"{"a": {"b": [1.5, "x"]}}"#).unwrap();
        let arr = doc.get("a").and_then(|a| a.get("b")).unwrap();
        assert_eq!(arr.as_arr().unwrap()[0].as_num(), Some(1.5));
        assert_eq!(arr.as_arr().unwrap()[1].as_str(), Some("x"));
        assert!(doc.get("missing").is_none());
    }
}
