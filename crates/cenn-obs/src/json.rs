//! Minimal JSON support: one deterministic field writer for the event
//! serializer and a small strict parser for schema validation.
//!
//! The workspace builds offline with no serde, so this module carries the
//! tiny slice of JSON the observability layer needs. The writer emits
//! fields in the exact order the schema freezes; the parser accepts one
//! JSON value (object/array/string/number/bool/null) and preserves object
//! key order so validation can check the frozen sequence.

use crate::schema::FieldValue;

/// A parsed JSON value. Object keys keep their document order.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Number(f64),
    /// A string with escapes resolved.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, keys in document order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks up a key in an object value.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            Self::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Self::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Self::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            Self::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// Appends `"key":value,` to `out`.
pub(crate) fn field(out: &mut String, key: &str, v: FieldValue<'_>) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":");
    value(out, v);
    out.push(',');
}

/// Appends one value. Numbers use Rust's shortest round-trip display,
/// which is deterministic across platforms; non-finite floats (never
/// produced by the metrics) serialize as 0. Strings are escaped, and
/// array entries nest their own fields.
pub(crate) fn value(out: &mut String, v: FieldValue<'_>) {
    match v {
        FieldValue::U64(v) => out.push_str(&v.to_string()),
        FieldValue::I64(v) => out.push_str(&v.to_string()),
        FieldValue::F64(v) if v.is_finite() => out.push_str(&v.to_string()),
        FieldValue::F64(_) => out.push('0'),
        FieldValue::Str(s) => {
            out.push('"');
            escape_into(out, s);
            out.push('"');
        }
        FieldValue::Sweeps(items) => array(out, items, |out, s| object(out, s.fields())),
        FieldValue::Lut(items) => array(out, items, |out, l| object(out, l.fields())),
        FieldValue::Ints(items) => array(out, items, |out, v| out.push_str(&v.to_string())),
    }
}

/// Appends `{...}` holding `fields` in order.
pub(crate) fn object(out: &mut String, fields: Vec<(&str, FieldValue<'_>)>) {
    out.push('{');
    for (key, value) in fields {
        field(out, key, value);
    }
    close(out, '}');
}

fn array<T>(out: &mut String, items: &[T], item: impl Fn(&mut String, &T)) {
    out.push('[');
    for x in items {
        item(out, x);
        out.push(',');
    }
    close(out, ']');
}

/// Closes an object or array, dropping its last member's comma.
fn close(out: &mut String, bracket: char) {
    if out.ends_with(',') {
        out.pop();
    }
    out.push(bracket);
}

fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// The deepest nesting of arrays and objects [`parse`] accepts. The
/// deepest document the workspace writes (a `BENCH_<n>.json`) nests 5
/// levels; the limit keeps the recursive parser's stack bounded on any
/// input.
const MAX_DEPTH: usize = 64;

/// Parses one JSON document.
///
/// # Errors
///
/// Returns a human-readable description of the first syntax error, or of
/// arrays and objects nested more than 64 deep.
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing content at byte {}", p.pos));
    }
    Ok(v)
}

/// Parses a JSONL line and returns its top-level object keys in document
/// order; errors if the line is not a JSON object.
///
/// # Errors
///
/// Returns a description of the syntax problem or the non-object shape.
pub fn parse_object_keys(line: &str) -> Result<Vec<String>, String> {
    match parse(line)? {
        JsonValue::Object(fields) => Ok(fields.into_iter().map(|(k, _)| k).collect()),
        _ => Err("top level is not an object".into()),
    }
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected byte at {}", self.pos)),
        }
    }

    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<JsonValue, String>,
    ) -> Result<JsonValue, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(JsonValue::Number)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // One character at a time. Every byte the parser steps over
            // outside strings is ASCII, so `pos` is on a character
            // boundary.
            let Some(c) = self.text[self.pos..].chars().next() else {
                return Err("unterminated string".into());
            };
            self.pos += c.len_utf8();
            match c {
                '"' => return Ok(out),
                '\\' => {
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or("bad \\u escape")?;
                            out.push(char::from_u32(hex).unwrap_or('\u{FFFD}'));
                            self.pos += 4;
                        }
                        _ => return Err("bad escape".into()),
                    }
                    self.pos += 1;
                }
                c => out.push(c),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let v = parse(r#"{"a":1,"b":[true,null,"x\n"],"c":{"d":-2.5e1}}"#).unwrap();
        assert_eq!(v.get("a").and_then(JsonValue::as_f64), Some(1.0));
        let b = v.get("b").and_then(JsonValue::as_array).unwrap();
        assert_eq!(b.len(), 3);
        assert_eq!(b[2].as_str(), Some("x\n"));
        assert_eq!(
            v.get("c")
                .and_then(|c| c.get("d"))
                .and_then(JsonValue::as_f64),
            Some(-25.0)
        );
    }

    #[test]
    fn keys_keep_document_order() {
        let keys = parse_object_keys(r#"{"z":1,"a":2,"m":3}"#).unwrap();
        assert_eq!(keys, vec!["z", "a", "m"]);
    }

    #[test]
    fn rejects_trailing_garbage_and_non_objects() {
        assert!(parse("{} junk").is_err());
        assert!(parse("{\"a\":}").is_err());
        assert!(parse_object_keys("[1]").is_err());
    }

    #[test]
    fn writer_escapes_specials() {
        let mut out = String::new();
        field(&mut out, "k", FieldValue::Str("a\"b\\c\nd\u{1}"));
        assert_eq!(out, "\"k\":\"a\\\"b\\\\c\\nd\\u0001\",");
        let round = parse(&format!("{{{}}}", out.trim_end_matches(','))).unwrap();
        assert_eq!(
            round.get("k").and_then(JsonValue::as_str),
            Some("a\"b\\c\nd\u{1}")
        );
    }

    #[test]
    fn f64_writer_is_shortest_round_trip() {
        let mut out = String::new();
        field(&mut out, "t", FieldValue::F64(0.30000000000000004));
        assert_eq!(out, "\"t\":0.30000000000000004,");
        out.clear();
        field(&mut out, "t", FieldValue::F64(1.0));
        assert_eq!(out, "\"t\":1,");
        out.clear();
        field(&mut out, "t", FieldValue::F64(f64::NAN));
        assert_eq!(out, "\"t\":0,");
    }
}
