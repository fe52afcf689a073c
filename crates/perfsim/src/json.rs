//! A small, self-contained JSON reader/writer.
//!
//! The profile on-disk format needs a structured serialization; `serde`
//! alone cannot write files (no format crate is available offline), so
//! this module implements the subset of JSON we need: objects, arrays,
//! strings with escapes, finite numbers, booleans, and null. Object key
//! order is preserved on write and read (profiles diff cleanly).

use std::fmt;
use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any finite number (integers kept exact up to 2⁵³).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with preserved key order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object member lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// Number view.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Integer view (round-trip-exact numbers only).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(n) if *n == n.trunc() && n.abs() < 9.3e18 => Some(*n as i64),
            _ => None,
        }
    }

    /// Bool view.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array view.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Object view.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// Serialize compactly.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Append the compact serialization to `out`.
    pub(crate) fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_num(*n, out),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parse a JSON document (must consume all non-whitespace input).
    ///
    /// The parser is total over arbitrary input: malformed bytes yield a
    /// typed [`JsonError`] (with the failing byte offset and a
    /// [`JsonErrorKind`] separating truncation from syntax errors), and
    /// container nesting is capped at [`MAX_NESTING_DEPTH`] so
    /// adversarial `[[[[…` input cannot overflow the stack.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters"));
        }
        Ok(v)
    }
}

/// Lowercase hex digits, indexed by nibble.
pub(crate) const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Append a JSON number: integral values below 9e15 as integers, the
/// rest in the shortest round-trip form. Writes straight into `out`.
pub(crate) fn write_num(n: f64, out: &mut String) {
    if n == n.trunc() && n.abs() < 9.0e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        // {:?} prints shortest round-trip representation.
        let _ = write!(out, "{n:?}");
    }
}

/// Append `s` as a quoted JSON string. Runs that need no escape are
/// copied whole; every byte that does is ASCII, so each run ends on a
/// character boundary.
pub(crate) fn write_str(s: &str, out: &mut String) {
    out.push('"');
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                out.push_str("\\u00");
                out.push(HEX_DIGITS[usize::from(b >> 4)] as char);
                out.push(HEX_DIGITS[usize::from(b & 0xf)] as char);
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Maximum container (array/object) nesting depth [`Json::parse`]
/// accepts. Real profiles nest a handful of levels; the cap exists so a
/// hostile `[[[[…` document errors instead of overflowing the stack.
pub const MAX_NESTING_DEPTH: usize = 128;

/// Classification of a [`JsonError`], for callers that branch on *why*
/// parsing failed (e.g. ingest diagnostics distinguishing a truncated
/// file from a syntactically mangled one).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JsonErrorKind {
    /// Malformed content within complete input.
    Syntax,
    /// The input ended mid-document (truncated file); the offset is
    /// where the usable bytes ran out.
    Truncated,
    /// Container nesting exceeded [`MAX_NESTING_DEPTH`].
    TooDeep,
}

/// JSON parse error with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
    /// Failure classification.
    pub kind: JsonErrorKind,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        self.err_kind(JsonErrorKind::Syntax, message)
    }

    /// A truncation error: the document ended where more was required.
    fn err_eof(&self, message: &str) -> JsonError {
        self.err_kind(JsonErrorKind::Truncated, message)
    }

    fn err_kind(&self, kind: JsonErrorKind, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_string(),
            kind,
        }
    }

    /// Bump the nesting depth on container entry (paired with
    /// [`Parser::exit_container`] on the success path; error paths
    /// abandon the parser wholesale, so no decrement is needed there).
    fn enter_container(&mut self) -> Result<(), JsonError> {
        self.depth += 1;
        if self.depth > MAX_NESTING_DEPTH {
            return Err(self.err_kind(
                JsonErrorKind::TooDeep,
                &format!("nesting deeper than {MAX_NESTING_DEPTH} levels"),
            ));
        }
        Ok(())
    }

    fn exit_container(&mut self) {
        self.depth -= 1;
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        match self.peek() {
            Some(c) if c == b => {
                self.pos += 1;
                Ok(())
            }
            Some(_) => Err(self.err(&format!("expected {:?}", b as char))),
            None => Err(self.err_eof(&format!("expected {:?}, found end of input", b as char))),
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected {lit:?}")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(&format!("unexpected character {:?}", c as char))),
            None => Err(self.err_eof("unexpected end of input")),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err_eof("unterminated string")),
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
                            if self.pos + 4 >= self.bytes.len() {
                                return Err(self.err_eof("truncated \\u escape"));
                            }
                            let hex =
                                std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                    .map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogate pairs: read the low half if present.
                            let ch = if (0xD800..0xDC00).contains(&code) {
                                self.pos += 5;
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                if self.pos + 4 >= self.bytes.len() {
                                    return Err(self.err_eof("truncated surrogate"));
                                }
                                let hex2 = std::str::from_utf8(
                                    &self.bytes[self.pos + 1..self.pos + 5],
                                )
                                .map_err(|_| self.err("bad surrogate"))?;
                                let low = u32::from_str_radix(hex2, 16)
                                    .map_err(|_| self.err("bad surrogate"))?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let c = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(c).ok_or_else(|| self.err("bad code point"))?
                            } else {
                                char::from_u32(code).ok_or_else(|| self.err("bad code point"))?
                            };
                            out.push(ch);
                            // Past the (last) escape's four hex digits.
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x80 => {
                    // Bulk-consume a run of plain ASCII (no quote, no
                    // backslash): the common case, one validation per
                    // run instead of per character.
                    let start = self.pos;
                    while matches!(self.peek(), Some(c) if c < 0x80 && c != b'"' && c != b'\\') {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .expect("ASCII run is valid UTF-8"),
                    );
                }
                Some(c) => {
                    // Consume one multi-byte UTF-8 character, validating
                    // only its own bytes (validating the whole remaining
                    // input here would make string parsing quadratic).
                    let width = match c {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        0xF0..=0xF7 => 4,
                        _ => return Err(self.err("invalid UTF-8")),
                    };
                    let end = self.pos + width;
                    if end > self.bytes.len() {
                        return Err(self.err_eof("truncated UTF-8 character"));
                    }
                    let ch = std::str::from_utf8(&self.bytes[self.pos..end])
                        .map_err(|_| self.err("invalid UTF-8"))?
                        .chars()
                        .next()
                        .expect("non-empty slice");
                    out.push(ch);
                    self.pos += width;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        self.enter_container()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.exit_container();
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    self.exit_container();
                    return Ok(Json::Arr(items));
                }
                Some(_) => return Err(self.err("expected ',' or ']'")),
                None => return Err(self.err_eof("unterminated array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        self.enter_container()?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.exit_container();
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    self.exit_container();
                    return Ok(Json::Obj(members));
                }
                Some(_) => return Err(self.err("expected ',' or '}'")),
                None => return Err(self.err_eof("unterminated object")),
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_string_compact())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_roundtrip() {
        for (text, v) in [
            ("null", Json::Null),
            ("true", Json::Bool(true)),
            ("false", Json::Bool(false)),
            ("42", Json::Num(42.0)),
            ("-3.5", Json::Num(-3.5)),
            ("\"hi\"", Json::Str("hi".into())),
        ] {
            assert_eq!(Json::parse(text).unwrap(), v);
            assert_eq!(Json::parse(&v.to_string_compact()).unwrap(), v);
        }
    }

    #[test]
    fn nested_structure() {
        let v = Json::Obj(vec![
            ("name".into(), Json::Str("MAIN".into())),
            (
                "metrics".into(),
                Json::Obj(vec![("time".into(), Json::Num(1.5))]),
            ),
            (
                "children".into(),
                Json::Arr(vec![Json::Num(1.0), Json::Null]),
            ),
        ]);
        let text = v.to_string_compact();
        assert_eq!(
            text,
            r#"{"name":"MAIN","metrics":{"time":1.5},"children":[1,null]}"#
        );
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn string_escapes() {
        let s = "tab\t newline\n quote\" backslash\\ unicode\u{1F600}";
        let v = Json::Str(s.into());
        let parsed = Json::parse(&v.to_string_compact()).unwrap();
        assert_eq!(parsed.as_str(), Some(s));
        // Explicit escape forms parse too.
        assert_eq!(
            Json::parse(r#""aA\n""#).unwrap().as_str(),
            Some("aA\n")
        );
        // Surrogate pair.
        assert_eq!(
            Json::parse(r#""😀""#).unwrap().as_str(),
            Some("\u{1F600}")
        );
        // `\u` escapes consume their hex digits, alone or as a pair.
        assert_eq!(
            Json::parse(r#""a\u0001b\u00e9\ud83d\ude00c""#).unwrap().as_str(),
            Some("a\u{1}b\u{e9}\u{1F600}c")
        );
        // Control characters write as `\u00XX` and round-trip.
        let ctl: String = (0u8..0x20).map(char::from).chain("\u{7f}é".chars()).collect();
        let text = Json::Str(ctl.clone()).to_string_compact();
        assert!(text.starts_with(r#""\u0000\u0001"#), "{text}");
        assert_eq!(Json::parse(&text).unwrap().as_str(), Some(ctl.as_str()));
    }

    #[test]
    fn numbers_with_exponents() {
        assert_eq!(Json::parse("1e3").unwrap().as_f64(), Some(1000.0));
        assert_eq!(Json::parse("-2.5E-2").unwrap().as_f64(), Some(-0.025));
        // Big integers keep exact text form through write_num.
        let big = Json::Num(-5810787656424201390.0);
        let t = big.to_string_compact();
        assert!(Json::parse(&t).is_ok());
    }

    #[test]
    fn integer_view() {
        assert_eq!(Json::parse("7").unwrap().as_i64(), Some(7));
        assert_eq!(Json::parse("7.5").unwrap().as_i64(), None);
    }

    #[test]
    fn whitespace_tolerated() {
        let v = Json::parse(" {\n \"a\" : [ 1 , 2 ] ,\t\"b\": {} } ").unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(v.get("b").unwrap().as_obj().unwrap().len(), 0);
    }

    #[test]
    fn parse_errors() {
        for bad in [
            "", "{", "[1,", "\"unterminated", "tru", "{\"a\"}", "1 2", "{'a':1}",
            "[1,]",
        ] {
            assert!(Json::parse(bad).is_err(), "should fail: {bad:?}");
        }
    }

    #[test]
    fn object_key_order_preserved() {
        let v = Json::parse(r#"{"z":1,"a":2,"m":3}"#).unwrap();
        let keys: Vec<&str> = v.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["z", "a", "m"]);
    }

    #[test]
    fn get_on_non_object_is_none() {
        assert_eq!(Json::Num(1.0).get("x"), None);
        assert_eq!(Json::parse("[1]").unwrap().get("x"), None);
    }

    #[test]
    fn truncated_inputs_flagged_with_offset() {
        for text in [
            "{\"a\": 1",        // unterminated object
            "[1, 2",            // unterminated array
            "\"unterminated",   // unterminated string
            "{\"a\":",          // value missing at EOF
            "",                 // empty input
            "{\"a\": \"\\u00",  // truncated escape
        ] {
            let err = Json::parse(text).unwrap_err();
            assert_eq!(err.kind, JsonErrorKind::Truncated, "{text:?}: {err}");
            assert!(err.offset <= text.len(), "{text:?}");
        }
        // Syntax errors within complete input are NOT truncation.
        let err = Json::parse("{'a':1}").unwrap_err();
        assert_eq!(err.kind, JsonErrorKind::Syntax);
    }

    #[test]
    fn nesting_depth_capped_without_stack_overflow() {
        // Way past any plausible stack budget if recursion were unbounded.
        let hostile = "[".repeat(200_000);
        let err = Json::parse(&hostile).unwrap_err();
        assert_eq!(err.kind, JsonErrorKind::TooDeep);
        let hostile_obj = "{\"k\":".repeat(200_000);
        assert_eq!(Json::parse(&hostile_obj).unwrap_err().kind, JsonErrorKind::TooDeep);
        // Depth counts *current* nesting, so a long flat sibling chain at
        // shallow depth stays fine.
        let flat = format!("[{}1]", "[1],".repeat(500));
        assert!(Json::parse(&flat).is_ok());
        // Exactly at the limit parses; one past fails.
        let at_limit = format!("{}1{}", "[".repeat(MAX_NESTING_DEPTH), "]".repeat(MAX_NESTING_DEPTH));
        assert!(Json::parse(&at_limit).is_ok());
        let past = format!("{}1{}", "[".repeat(MAX_NESTING_DEPTH + 1), "]".repeat(MAX_NESTING_DEPTH + 1));
        assert_eq!(Json::parse(&past).unwrap_err().kind, JsonErrorKind::TooDeep);
    }
}
