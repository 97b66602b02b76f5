//! A minimal JSON writer and parser — just enough for the telemetry
//! JSONL schema, so the crate stays dependency-free. The writer emits
//! the subset the parser accepts; numbers round-trip through Rust's
//! shortest-exact `f64` formatting.
//!
//! [`write_string`] is public: every JSON string literal the workspace
//! emits (telemetry JSONL, Chrome traces, serve `trace` payloads, load
//! reports) goes through it. The parser stays crate-private.

use std::fmt::Write as _;

/// A parsed JSON value. Numbers keep their source token so integer
/// fields (`lane`, counter values) parse exactly as `u64` without a
/// lossy trip through `f64`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum JsonValue {
    String(String),
    /// The raw number token, e.g. `42` or `0.0015`.
    Number(String),
    Array(Vec<JsonValue>),
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    pub(crate) fn as_string(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    pub(crate) fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(tok) => tok.parse().ok(),
            _ => None,
        }
    }

    pub(crate) fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(tok) => tok.parse().ok(),
            _ => None,
        }
    }
}

/// Appends `value` as a JSON string literal: quoted, with `"` and `\`
/// escaped, `\n`/`\r`/`\t` in their short forms and every other control
/// character as `\u00XX`.
///
/// ```
/// let mut out = String::new();
/// napel_telemetry::json::write_string(&mut out, "a\"b\tc");
/// assert_eq!(out, r#""a\"b\tc""#);
/// ```
pub fn write_string(out: &mut String, value: &str) {
    out.push('"');
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to String cannot fail");
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends `value` as a JSON number. Finite values use Rust's `Display`
/// (shortest exact round-trip, no exponent for the magnitudes telemetry
/// produces); non-finite values — which JSON cannot represent — are
/// clamped to `0` and never arise from well-formed instrumentation.
pub(crate) fn write_f64(out: &mut String, value: f64) {
    if value.is_finite() {
        let tok = format!("{value}");
        out.push_str(&tok);
        // `Display` omits the decimal point for integral values; keep it
        // so the token always reads as a float.
        if !tok.contains('.') {
            out.push_str(".0");
        }
    } else {
        // JSON cannot represent non-finite values; well-formed
        // instrumentation never produces them.
        out.push_str("0.0");
    }
}

/// Field lookup in a parsed object.
pub(crate) fn get<'a>(fields: &'a [(String, JsonValue)], key: &str) -> Option<&'a JsonValue> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

pub(crate) fn get_string(fields: &[(String, JsonValue)], key: &str) -> Result<String, String> {
    get(fields, key)
        .and_then(|v| v.as_string())
        .map(str::to_string)
        .ok_or_else(|| format!("missing or non-string field `{key}`"))
}

pub(crate) fn get_u64(fields: &[(String, JsonValue)], key: &str) -> Result<u64, String> {
    get(fields, key)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| format!("missing or non-integer field `{key}`"))
}

pub(crate) fn get_f64(fields: &[(String, JsonValue)], key: &str) -> Result<f64, String> {
    get(fields, key)
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| format!("missing or non-number field `{key}`"))
}

/// Parses one JSONL line, which must be a single JSON object.
///
/// # Errors
///
/// A message with the byte offset of the first problem.
pub(crate) fn parse_object(line: &str) -> Result<Vec<(String, JsonValue)>, String> {
    let mut p = Parser {
        bytes: line.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    match value {
        JsonValue::Object(fields) => Ok(fields),
        _ => Err("line is not a JSON object".to_string()),
    }
}

/// Maximum container nesting the parser accepts. The recursive-descent
/// `value()` recurses once per `{`/`[` level, so without a cap a line
/// like `[[[[…` overflows the stack instead of returning a parse error.
/// The telemetry schema nests three levels at most.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\r' | b'\n')) {
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
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(format!("unexpected `{}` at byte {}", c as char, self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn nested(
        &mut self,
        f: fn(&mut Self) -> Result<JsonValue, String>,
    ) -> Result<JsonValue, String> {
        if self.depth >= MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let value = f(self);
        self.depth -= 1;
        value
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
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
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
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| "truncated \\u escape".to_string())?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| "non-ASCII \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape `{hex}`"))?;
                            // Surrogate pairs never arise from our writer;
                            // map unpaired surrogates to the replacement
                            // character rather than erroring.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (the input is a &str, so
                    // boundaries are valid).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| "invalid UTF-8".to_string())?;
                    let c = s.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || c == b'.' || c == b'e' || c == b'E' || c == b'+' || c == b'-')
        {
            self.pos += 1;
        }
        let tok = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("ASCII number token")
            .to_string();
        if tok.parse::<f64>().is_err() {
            return Err(format!("bad number `{tok}` at byte {start}"));
        }
        Ok(JsonValue::Number(tok))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_escape_and_round_trip() {
        let mut s = String::new();
        write_string(&mut s, "a\"b\\c\nd\te\u{1}f");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\te\\u0001f\"");
        let fields = parse_object(&format!("{{\"k\":{s}}}")).unwrap();
        assert_eq!(get_string(&fields, "k").unwrap(), "a\"b\\c\nd\te\u{1}f");
    }

    #[test]
    fn f64_writer_keeps_a_decimal_point() {
        for (v, expect) in [(0.5, "0.5"), (3.0, "3.0"), (0.0, "0.0"), (-2.0, "-2.0")] {
            let mut s = String::new();
            write_f64(&mut s, v);
            assert_eq!(s, expect);
        }
        // Appending into a non-empty buffer must inspect only the new token.
        let mut s = String::from("{\"seconds\":");
        write_f64(&mut s, 7.0);
        assert_eq!(s, "{\"seconds\":7.0");
    }

    #[test]
    fn numbers_parse_exactly_as_u64() {
        let fields = parse_object("{\"n\": 18446744073709551615}").unwrap();
        assert_eq!(get_u64(&fields, "n").unwrap(), u64::MAX);
    }

    #[test]
    fn nested_structures_parse() {
        let fields = parse_object(r#"{"a":[1,2.5,"x"],"b":{"c":"d"},"e":-3}"#).expect("parses");
        match get(&fields, "a").unwrap() {
            JsonValue::Array(items) => {
                assert_eq!(items.len(), 3);
                assert_eq!(items[0].as_u64(), Some(1));
                assert_eq!(items[1].as_f64(), Some(2.5));
                assert_eq!(items[2].as_string(), Some("x"));
            }
            other => panic!("expected array, got {other:?}"),
        }
        match get(&fields, "b").unwrap() {
            JsonValue::Object(inner) => assert_eq!(get_string(inner, "c").unwrap(), "d"),
            other => panic!("expected object, got {other:?}"),
        }
        assert_eq!(get(&fields, "e").unwrap().as_f64(), Some(-3.0));
    }

    #[test]
    fn malformed_lines_error() {
        assert!(parse_object("").is_err());
        assert!(parse_object("[1,2]").is_err());
        assert!(parse_object("{\"a\":}").is_err());
        assert!(parse_object("{\"a\":1} extra").is_err());
        assert!(parse_object("{\"a\":\"unterminated}").is_err());
    }

    #[test]
    fn pathological_nesting_is_an_error_not_a_stack_overflow() {
        // A malformed row of nothing but open brackets used to recurse
        // once per byte and blow the stack.
        let bomb = format!("{{\"a\":{}1{}}}", "[".repeat(100_000), "]".repeat(100_000));
        let err = parse_object(&bomb).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        let bomb = format!("{{\"a\":{}", "{\"b\":".repeat(100_000));
        assert!(parse_object(&bomb).unwrap_err().contains("nesting"));
    }

    #[test]
    fn schema_depth_nesting_still_parses() {
        // Nesting up to the cap parses; one past it errors.
        let ok = format!("{{\"a\":{}1{}}}", "[".repeat(63), "]".repeat(63));
        assert!(parse_object(&ok).is_ok());
        let too_deep = format!("{{\"a\":{}1{}}}", "[".repeat(64), "]".repeat(64));
        assert!(parse_object(&too_deep).is_err());
    }
}
