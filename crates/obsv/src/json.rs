//! A tiny hand-rolled JSON writer (and checker).
//!
//! The workspace is std-only — it links no serialization framework — so
//! every crate that needed JSON grew its own `format!` string. This module
//! is the single shared emitter: `RuntimeMetrics` snapshots, the `figures`
//! binary, and the Chrome trace writer all build on it. Output is
//! minified, key order is insertion order (stable), and floats use Rust's
//! shortest round-trippable formatting.

use std::fmt::Write;

/// Escape a string per JSON rules.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// Render an `f64` as a JSON number (JSON has no NaN/Inf; those become
/// `null`, matching what lenient parsers expect).
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Builder for a JSON object. Values passed to `raw` must already be
/// valid JSON fragments (nested builders' `finish()` output qualifies).
#[derive(Debug, Default)]
pub struct JsonObject {
    buf: String,
    first: bool,
}

impl JsonObject {
    /// Start an object.
    pub fn new() -> Self {
        JsonObject { buf: String::from("{"), first: true }
    }

    fn key(&mut self, key: &str) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        let _ = write!(self.buf, "\"{}\":", escape(key));
    }

    /// Add a string field.
    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.key(key);
        let _ = write!(self.buf, "\"{}\"", escape(value));
        self
    }

    /// Add an unsigned integer field.
    pub fn u64(mut self, key: &str, value: u64) -> Self {
        self.key(key);
        let _ = write!(self.buf, "{value}");
        self
    }

    /// Add a signed integer field.
    pub fn i64(mut self, key: &str, value: i64) -> Self {
        self.key(key);
        let _ = write!(self.buf, "{value}");
        self
    }

    /// Add a float field.
    pub fn f64(mut self, key: &str, value: f64) -> Self {
        self.key(key);
        self.buf.push_str(&number(value));
        self
    }

    /// Add a boolean field.
    pub fn bool(mut self, key: &str, value: bool) -> Self {
        self.key(key);
        self.buf.push_str(if value { "true" } else { "false" });
        self
    }

    /// Add a pre-rendered JSON fragment (nested object/array).
    pub fn raw(mut self, key: &str, fragment: &str) -> Self {
        self.key(key);
        self.buf.push_str(fragment);
        self
    }

    /// Close the object and return the JSON text.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// Builder for a JSON array.
#[derive(Debug, Default)]
pub struct JsonArray {
    buf: String,
    first: bool,
}

impl JsonArray {
    /// Start an array.
    pub fn new() -> Self {
        JsonArray { buf: String::from("["), first: true }
    }

    fn sep(&mut self) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
    }

    /// Append an unsigned integer element.
    pub fn u64(mut self, value: u64) -> Self {
        self.sep();
        let _ = write!(self.buf, "{value}");
        self
    }

    /// Append a float element.
    pub fn f64(mut self, value: f64) -> Self {
        self.sep();
        self.buf.push_str(&number(value));
        self
    }

    /// Append a string element.
    pub fn str(mut self, value: &str) -> Self {
        self.sep();
        let _ = write!(self.buf, "\"{}\"", escape(value));
        self
    }

    /// Append a pre-rendered JSON fragment.
    pub fn raw(mut self, fragment: &str) -> Self {
        self.sep();
        self.buf.push_str(fragment);
        self
    }

    /// Close the array and return the JSON text.
    pub fn finish(mut self) -> String {
        self.buf.push(']');
        self.buf
    }
}

/// Check that `text` is structurally valid JSON: balanced braces/brackets
/// outside strings, proper string escapes, non-empty. Not a full parser —
/// a cheap guard for tests and the CI smoke script against emitter bugs.
pub fn check_balanced(text: &str) -> Result<(), String> {
    let mut stack: Vec<char> = Vec::new();
    let mut in_string = false;
    let mut escaped = false;
    let mut saw_value = false;
    for (i, c) in text.char_indices() {
        if in_string {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
            continue;
        }
        match c {
            '"' => {
                in_string = true;
                saw_value = true;
            }
            '{' | '[' => {
                stack.push(c);
                saw_value = true;
            }
            '}' => {
                if stack.pop() != Some('{') {
                    return Err(format!("unbalanced '}}' at byte {i}"));
                }
            }
            ']' => {
                if stack.pop() != Some('[') {
                    return Err(format!("unbalanced ']' at byte {i}"));
                }
            }
            _ => {
                if !c.is_whitespace() {
                    saw_value = true;
                }
            }
        }
    }
    if in_string {
        return Err("unterminated string".to_string());
    }
    if let Some(open) = stack.pop() {
        return Err(format!("unclosed '{open}'"));
    }
    if !saw_value {
        return Err("empty document".to_string());
    }
    Ok(())
}

/// A parsed JSON value.
///
/// The workspace is std-only, so code that *reads* JSON back (the
/// server's wire decoder, `cdb-cli`, `cdb-benchmark`'s spec and reports)
/// uses this small recursive-descent parser instead. Object keys keep
/// insertion order, so a document walks back in the order it was
/// written.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`; the artifacts' integers fit exactly).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in document key order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Look up a key of an object (None for other variants).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(kvs) => kvs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }
}

/// Parse a JSON document. Errors carry a byte offset and a short reason.
pub fn parse(text: &str) -> Result<Json, String> {
    let b = text.as_bytes();
    let mut p = Parser { b, i: 0 };
    p.ws();
    let v = p.value()?;
    p.ws();
    if p.i != b.len() {
        return Err(format!("trailing input at byte {}", p.i));
    }
    Ok(v)
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.b.len() && matches!(self.b[self.i], b' ' | b'\t' | b'\n' | b'\r') {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.i))
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
            _ => Err(format!("unexpected input at byte {}", self.i)),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.i += 1;
        }
        std::str::from_utf8(&self.b[start..self.i])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.i += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            if self.i + 4 > self.b.len() {
                                return Err("truncated \\u escape".into());
                            }
                            let hex = std::str::from_utf8(&self.b[self.i..self.i + 4])
                                .map_err(|_| "bad \\u escape")?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape at byte {}", self.i))?;
                            self.i += 4;
                            // Surrogates aren't produced by our writers;
                            // map unpaired ones to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        c => {
                            return Err(format!("bad escape '\\{}' at byte {}", c as char, self.i))
                        }
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (multi-byte safe).
                    let rest = std::str::from_utf8(&self.b[self.i..])
                        .map_err(|_| "invalid utf-8 in string")?;
                    let ch = rest.chars().next().ok_or("unterminated string")?;
                    out.push(ch);
                    self.i += ch.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        self.ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Arr(out));
        }
        loop {
            self.ws();
            out.push(self.value()?);
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(out));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.i)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut out = Vec::new();
        self.ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Obj(out));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.ws();
            self.expect(b':')?;
            self.ws();
            let val = self.value()?;
            out.push((key, val));
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(out));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.i)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_builder_matches_hand_written_form() {
        let s = JsonObject::new()
            .u64("tasks", 12)
            .f64("rate", 0.5)
            .str("name", "fleet")
            .bool("ok", true)
            .finish();
        assert_eq!(s, r#"{"tasks":12,"rate":0.5,"name":"fleet","ok":true}"#);
        check_balanced(&s).unwrap();
    }

    #[test]
    fn nested_raw_and_arrays() {
        let inner = JsonArray::new().u64(1).u64(2).u64(3).finish();
        let s = JsonObject::new().raw("hist", &inner).i64("delta", -4).finish();
        assert_eq!(s, r#"{"hist":[1,2,3],"delta":-4}"#);
        check_balanced(&s).unwrap();
    }

    #[test]
    fn escaping() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
        let s = JsonObject::new().str("k", "he said \"hi\"").finish();
        check_balanced(&s).unwrap();
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
        assert_eq!(number(2.5), "2.5");
    }

    #[test]
    fn empty_containers() {
        assert_eq!(JsonObject::new().finish(), "{}");
        assert_eq!(JsonArray::new().finish(), "[]");
        check_balanced("{}").unwrap();
        check_balanced("[]").unwrap();
    }

    #[test]
    fn checker_catches_breakage() {
        assert!(check_balanced(r#"{"a":1"#).is_err());
        assert!(check_balanced(r#"{"a":1]}"#).is_err());
        assert!(check_balanced(r#""unterminated"#).is_err());
        assert!(check_balanced("   ").is_err());
        // Braces inside strings don't count.
        check_balanced(r#"{"a":"}{"}"#).unwrap();
    }

    #[test]
    fn parser_round_trips_writer_output() {
        let doc = JsonObject::new()
            .str("bench", "perf")
            .u64("seed", 42)
            .f64("ms", 12.75)
            .i64("delta", -3)
            .bool("quick", false)
            .raw("phases", &JsonArray::new().u64(1).str("a\"b").raw("null").finish())
            .finish();
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("bench").unwrap().as_str(), Some("perf"));
        assert_eq!(v.get("seed").unwrap().as_num(), Some(42.0));
        assert_eq!(v.get("ms").unwrap().as_num(), Some(12.75));
        assert_eq!(v.get("delta").unwrap().as_num(), Some(-3.0));
        assert_eq!(v.get("quick"), Some(&Json::Bool(false)));
        let arr = v.get("phases").unwrap().as_arr().unwrap();
        assert_eq!(arr, &[Json::Num(1.0), Json::Str("a\"b".into()), Json::Null]);
    }

    #[test]
    fn parser_keeps_object_key_order() {
        let v = parse(r#"{"z":1,"a":2,"m":3}"#).unwrap();
        let Json::Obj(kvs) = v else { panic!() };
        assert_eq!(kvs.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(), vec!["z", "a", "m"]);
    }

    #[test]
    fn parser_handles_nesting_whitespace_and_escapes() {
        let v = parse(" { \"a\" : [ { \"b\" : \"x\\ny\\u0041\" } , 1e3 , -2.5 ] } ").unwrap();
        let a = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(a[0].get("b").unwrap().as_str(), Some("x\nyA"));
        assert_eq!(a[1].as_num(), Some(1000.0));
        assert_eq!(a[2].as_num(), Some(-2.5));
    }

    #[test]
    fn parser_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "tru",
            "\"unterminated",
            "{} trailing",
            "{\"a\":1,}",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn parser_accepts_real_bench_artifacts() {
        // A nested report: an object holding an array of objects.
        let doc = r#"{"bench":"store","seed":42,"recovery":[{"queries":100,"ms":16.35}]}"#;
        let v = parse(doc).unwrap();
        assert_eq!(
            v.get("recovery").unwrap().as_arr().unwrap()[0].get("queries").unwrap().as_num(),
            Some(100.0)
        );
    }
}
