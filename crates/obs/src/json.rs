//! A minimal JSON value type, writer, and parser (std-only).
//!
//! This is the workspace's only JSON codec: every report, `/stats`
//! body and query-log line goes through it, and so does the LSI
//! database. Two layers share one grammar:
//!
//! - [`Reader`], a pull tokenizer that reads a document value by value
//!   without building anything, and [`write_num`] / [`write_str`], which
//!   append single values to a `String`. `lsi-core`'s `persist` module
//!   streams the database through these.
//! - [`Json`], an insertion-ordered tree (so exported reports are
//!   stable and diffable), which [`parse`] builds on [`Reader`] and
//!   [`Json::to_string_compact`] writes through the same two writers.
//!
//! Numbers are `f64`, written as integers when integral and below 1e15
//! and otherwise as Rust's `{:?}` writes them (shortest round-trip
//! digits, produced by the `ryu` module without going through
//! `core::fmt`), so every finite `f64` survives write → parse
//! bit-exactly and write → parse → write is a fixed point. Nesting
//! deeper than [`MAX_DEPTH`] is a [`ParseError`].

use std::borrow::Cow;
use std::fmt::Write as _;

/// A JSON document node.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (always an `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion-ordered, keys need not be unique on parse
    /// (last wins for [`Json::get`]).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Build an object node from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Member lookup on objects (`None` on other node kinds).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members
                .iter()
                .rev()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value, if this node is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// String value, if this node is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Serialize compactly (no whitespace).
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Serialize with 2-space indentation and a trailing newline,
    /// matching the hand-written `BENCH_*.json` style.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => write_num(out, *v),
            Json::Str(s) => write_str(out, s),
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
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            Json::Obj(members) => {
                if members.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_str(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(w) = indent {
        out.push('\n');
        for _ in 0..w * depth {
            out.push(' ');
        }
    }
}

/// Append the JSON text of a number: `null` for NaN and infinities
/// (JSON has neither), an integral value below 1e15 as a bare integer
/// (`-0.0` as `-0`), anything else as `format!("{v:?}")` writes it.
pub fn write_num(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
    } else if v.abs() < 1e15 && (v as i64) as f64 == v {
        // Write the sign apart: `as i64` would drop it from -0.0, which
        // must read back bit-exactly.
        if v.is_sign_negative() {
            out.push('-');
        }
        crate::ryu::write_u64(out, (v as i64).unsigned_abs());
    } else {
        crate::ryu::write_f64(out, v);
    }
}

/// Append `s` as a JSON string literal, quotes included.
pub fn write_str(out: &mut String, s: &str) {
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

/// Parse error with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Byte offset where parsing stopped.
    pub offset: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parse a complete JSON document (trailing whitespace allowed,
/// trailing garbage rejected).
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut r = Reader::new(input);
    let v = tree(&mut r)?;
    r.finish()?;
    Ok(v)
}

/// Build the tree of the next value. Recursion is bounded by
/// [`MAX_DEPTH`], which the reader enforces.
fn tree(r: &mut Reader<'_>) -> Result<Json, ParseError> {
    Ok(match r.peek()? {
        Kind::Null => {
            r.null()?;
            Json::Null
        }
        Kind::Bool => Json::Bool(r.bool()?),
        Kind::Num => Json::Num(r.number()?),
        Kind::Str => Json::Str(r.string()?.into_owned()),
        Kind::Arr => {
            let mut items = Vec::new();
            let mut more = r.begin_array()?;
            while more {
                items.push(tree(r)?);
                more = r.end_item()?;
            }
            Json::Arr(items)
        }
        Kind::Obj => {
            let mut members = Vec::new();
            let mut more = r.begin_object()?;
            while more {
                let key = r.key()?.into_owned();
                members.push((key, tree(r)?));
                more = r.end_member()?;
            }
            Json::Obj(members)
        }
    })
}

/// How many arrays and objects may enclose one another. Deeper input
/// is a [`ParseError`], so neither the tree builder nor a caller's
/// recursive reader can run out of stack on hostile input.
pub const MAX_DEPTH: usize = 128;

/// What the next value is, judged by its first byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `null`
    Null,
    /// `true` or `false`
    Bool,
    /// A number.
    Num,
    /// A string.
    Str,
    /// An array.
    Arr,
    /// An object.
    Obj,
}

/// A pull reader over one JSON document: the tokenizer [`parse`] builds
/// its tree with, for callers that read a known schema straight into
/// their own types.
///
/// Each value is read by first calling [`Reader::peek`] for its kind,
/// then the method for that kind. An array is
/// `let mut more = r.begin_array()?; while more { /* read item */ more = r.end_item()?; }`;
/// an object the same with [`Reader::begin_object`], [`Reader::key`]
/// before each member's value and [`Reader::end_member`] after it.
/// [`Reader::finish`] then rejects anything but whitespace after the
/// document. Whitespace, errors and their offsets are those of
/// [`parse`].
pub struct Reader<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    pub fn new(text: &'a str) -> Reader<'a> {
        Reader {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    /// Bytes not read yet.
    pub fn remaining(&self) -> usize {
        self.rest().len()
    }

    /// The document ends here: only whitespace may follow.
    pub fn finish(mut self) -> Result<(), ParseError> {
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing characters after document"));
        }
        Ok(())
    }

    fn err(&self, message: &str) -> ParseError {
        ParseError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn byte(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn rest(&self) -> &'a [u8] {
        self.bytes.get(self.pos..).unwrap_or_default()
    }

    fn skip_ws(&mut self) {
        while matches!(self.byte(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), ParseError> {
        if self.byte() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.rest().starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected '{kw}'")))
        }
    }

    /// Skip whitespace and say what the next value is; an error when no
    /// value starts there.
    pub fn peek(&mut self) -> Result<Kind, ParseError> {
        self.skip_ws();
        match self.byte() {
            Some(b'n') => Ok(Kind::Null),
            Some(b't' | b'f') => Ok(Kind::Bool),
            Some(b'"') => Ok(Kind::Str),
            Some(b'[') => Ok(Kind::Arr),
            Some(b'{') => Ok(Kind::Obj),
            Some(b'-' | b'0'..=b'9') => Ok(Kind::Num),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Read `null`.
    pub fn null(&mut self) -> Result<(), ParseError> {
        self.skip_ws();
        self.eat_keyword("null")
    }

    /// Read `true` or `false`.
    pub fn bool(&mut self) -> Result<bool, ParseError> {
        self.skip_ws();
        if self.byte() == Some(b't') {
            self.eat_keyword("true").map(|()| true)
        } else {
            self.eat_keyword("false").map(|()| false)
        }
    }

    /// Read a number: exactly RFC 8259's
    /// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`, so `01`, `1.`,
    /// `-.5` and `1e` are errors.
    pub fn number(&mut self) -> Result<f64, ParseError> {
        self.skip_ws();
        let start = self.pos;
        if self.byte() == Some(b'-') {
            self.pos += 1;
        }
        // The integer part is `0` alone or digits not led by a `0`.
        let int_start = self.pos;
        let int = self.digits();
        let mut ok = int == 1 || (int > 1 && self.bytes.get(int_start) != Some(&b'0'));
        if ok && self.byte() == Some(b'.') {
            self.pos += 1;
            ok = self.digits() > 0;
        }
        if ok && matches!(self.byte(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.byte(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            ok = self.digits() > 0;
        }
        // The token is ASCII, so its ends are char boundaries.
        self.text
            .get(start..self.pos)
            .filter(|_| ok)
            .and_then(|text| text.parse::<f64>().ok())
            .ok_or_else(|| self.err("invalid number"))
    }

    /// Step over a run of ASCII digits; how many there were.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.byte(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// Read a string, borrowed from the input when it has no escapes.
    pub fn string(&mut self) -> Result<Cow<'a, str>, ParseError> {
        self.skip_ws();
        self.eat(b'"')?;
        Ok(self.string_body(true)?.unwrap_or_default())
    }

    /// Read a member name and the `:` after it.
    pub fn key(&mut self) -> Result<Cow<'a, str>, ParseError> {
        let key = self.string()?;
        self.skip_ws();
        self.eat(b':')?;
        Ok(key)
    }

    fn skip_string(&mut self) -> Result<(), ParseError> {
        self.skip_ws();
        self.eat(b'"')?;
        self.string_body(false).map(drop)
    }

    /// Consume a string's text and closing quote. With `keep` the text
    /// is returned, borrowed until an escape forces a copy; without it
    /// the same checks run and nothing is allocated.
    fn string_body(&mut self, keep: bool) -> Result<Option<Cow<'a, str>>, ParseError> {
        let mut out: Option<Cow<'a, str>> = None;
        loop {
            // Take the run of plain bytes up to the next quote or escape
            // in one step. The input is a `&str` and the run ends on an
            // ASCII byte, so it is whole UTF-8.
            let start = self.pos;
            while !matches!(self.byte(), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            let run = self
                .text
                .get(start..self.pos)
                .ok_or_else(|| self.err("invalid utf-8"))?;
            if keep {
                match &mut out {
                    None => out = Some(Cow::Borrowed(run)),
                    Some(text) => text.to_mut().push_str(run),
                }
            }
            match self.byte() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    // The run stopped at a backslash: decode one escape.
                    self.pos += 1;
                    let c = self.escape()?;
                    if let Some(text) = &mut out {
                        text.to_mut().push(c);
                    }
                }
            }
        }
    }

    /// The character an escape stands for; the cursor is past its `\`.
    fn escape(&mut self) -> Result<char, ParseError> {
        let c = match self.byte() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                self.pos += 1;
                let cp = self.hex4()?;
                // Surrogate pairs: join, or degrade to the replacement
                // character for a lone half.
                return Ok(if (0xD800..0xDC00).contains(&cp) {
                    if self.rest().starts_with(b"\\u") {
                        self.pos += 2;
                        let lo = self.hex4()?;
                        let joined =
                            0x10000 + ((cp - 0xD800) << 10) + (lo.wrapping_sub(0xDC00) & 0x3FF);
                        char::from_u32(joined).unwrap_or('\u{FFFD}')
                    } else {
                        '\u{FFFD}'
                    }
                } else {
                    char::from_u32(cp).unwrap_or('\u{FFFD}')
                });
            }
            _ => return Err(self.err("invalid escape sequence")),
        };
        self.pos += 1;
        Ok(c)
    }

    /// The four hex digits of a `\u` escape.
    fn hex4(&mut self) -> Result<u32, ParseError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let v = self
            .text
            .get(self.pos..self.pos + 4)
            .filter(|s| s.bytes().all(|b| b.is_ascii_hexdigit()))
            .and_then(|s| u32::from_str_radix(s, 16).ok())
            .ok_or_else(|| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn open(&mut self, bracket: u8, close: u8) -> Result<bool, ParseError> {
        self.skip_ws();
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.eat(bracket)?;
        self.depth += 1;
        self.skip_ws();
        if self.byte() == Some(close) {
            self.pos += 1;
            self.depth -= 1;
            return Ok(false);
        }
        Ok(true)
    }

    fn next(&mut self, close: u8, message: &str) -> Result<bool, ParseError> {
        self.skip_ws();
        match self.byte() {
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            Some(b) if b == close => {
                self.pos += 1;
                self.depth -= 1;
                Ok(false)
            }
            _ => Err(self.err(message)),
        }
    }

    /// Enter an array; `true` when an item follows.
    pub fn begin_array(&mut self) -> Result<bool, ParseError> {
        self.open(b'[', b']')
    }

    /// After an item: `true` when another follows, `false` at the `]`.
    pub fn end_item(&mut self) -> Result<bool, ParseError> {
        self.next(b']', "expected ',' or ']' in array")
    }

    /// Enter an object; `true` when a member follows.
    pub fn begin_object(&mut self) -> Result<bool, ParseError> {
        self.open(b'{', b'}')
    }

    /// After a member's value: `true` when another member follows,
    /// `false` at the `}`.
    pub fn end_member(&mut self) -> Result<bool, ParseError> {
        self.next(b'}', "expected ',' or '}' in object")
    }

    /// Step over the next value, checking it as [`parse`] would but
    /// keeping nothing.
    pub fn skip_value(&mut self) -> Result<(), ParseError> {
        match self.peek()? {
            Kind::Null => self.null(),
            Kind::Bool => self.bool().map(drop),
            Kind::Num => self.number().map(drop),
            Kind::Str => self.skip_string(),
            Kind::Arr => {
                let mut more = self.begin_array()?;
                while more {
                    self.skip_value()?;
                    more = self.end_item()?;
                }
                Ok(())
            }
            Kind::Obj => {
                let mut more = self.begin_object()?;
                while more {
                    self.skip_string()?;
                    self.skip_ws();
                    self.eat(b':')?;
                    self.skip_value()?;
                    more = self.end_member()?;
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse("false").unwrap(), Json::Bool(false));
        assert_eq!(parse("-12.5e2").unwrap(), Json::Num(-1250.0));
        assert_eq!(parse(r#""a\nbA""#).unwrap(), Json::Str("a\nbA".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a": [1, {"b": "x"}, null], "c": 2}"#).unwrap();
        assert_eq!(v.get("c").and_then(Json::as_f64), Some(2.0));
        match v.get("a") {
            Some(Json::Arr(items)) => {
                assert_eq!(items.len(), 3);
                assert_eq!(items[1].get("b").and_then(Json::as_str), Some("x"));
            }
            other => panic!("expected array, got {other:?}"),
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("true false").is_err());
        assert!(parse(r#""unterminated"#).is_err());
    }

    #[test]
    fn numbers_follow_rfc_8259() {
        for text in ["0", "-0", "0.5", "1e5", "1E-5", "-1.5e+3", "10", "-120.25e-0"] {
            let want: f64 = text.parse().unwrap();
            assert_eq!(parse(text).unwrap(), Json::Num(want), "{text}");
            let got = Reader::new(text).number().unwrap();
            assert_eq!(got.to_bits(), want.to_bits(), "{text} through the pull reader");
        }
        for text in ["01", "-01", "1.", "-.5", "1e", "1e+", "-", "00", "1.e5", ".5", "+1"] {
            assert!(parse(text).is_err(), "{text} is not JSON");
            assert!(parse(&format!("[{text}]")).is_err(), "[{text}] is not JSON");
            assert!(Reader::new(&format!("[{text}]")).skip_value().is_err(), "skip [{text}]");
        }
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        assert_eq!(parse(r#""\u0041\u00e9""#).unwrap(), Json::Str("A\u{e9}".into()));
        for text in [r#""\u+041""#, r#""\u-041""#, r#""\u 041""#, r#""\u04G1""#, r#""\u041""#] {
            assert!(parse(text).is_err(), "{text} is not JSON");
        }
    }

    #[test]
    fn write_parse_write_is_a_fixed_point() {
        let v = Json::obj(vec![
            ("name", Json::Str("perf_kernels \"quick\"\n".into())),
            ("k", Json::Num(50.0)),
            ("secs", Json::Num(0.12345678901234567)),
            ("big", Json::Num(1e19)),
            ("flags", Json::Arr(vec![Json::Bool(true), Json::Null])),
            ("nested", Json::obj(vec![("empty", Json::Obj(vec![]))])),
        ]);
        let text = v.to_string_pretty();
        let reparsed = parse(&text).unwrap();
        assert_eq!(reparsed, v);
        assert_eq!(reparsed.to_string_pretty(), text);
        let compact = v.to_string_compact();
        assert_eq!(parse(&compact).unwrap(), v);
    }

    #[test]
    fn floats_roundtrip_bit_exactly() {
        for x in [
            0.1,
            -1.5e-300,
            std::f64::consts::PI,
            1.0 / 3.0,
            6.02e23,
            f64::MIN_POSITIVE,
            -0.0,
            5e-324,
            -2.5e-310,
            -7.0,
            1e15,
            -123_456_789_012_345.0,
        ] {
            let text = Json::Num(x).to_string_compact();
            let back = parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x:?} via {text}");
        }
        assert_eq!(Json::Num(-0.0).to_string_compact(), "-0");
        assert_eq!(Json::Num(-7.0).to_string_compact(), "-7");
    }

    #[test]
    fn nesting_past_the_limit_is_a_parse_error() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        let err = parse(&deep).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH);
        assert_eq!(
            err.message,
            format!("nesting deeper than {MAX_DEPTH} levels")
        );
        // A megabyte of openers fails at the same place, without
        // recursing a million frames deep.
        for opener in ["[", "{\"a\":"] {
            let text = opener.repeat(1 << 20);
            let err = parse(&text).unwrap_err();
            assert!(err.message.starts_with("nesting deeper"), "{err}");
            assert_eq!(Reader::new(&text).skip_value(), Err(err));
        }
    }

    #[test]
    fn reader_pulls_values_in_document_order() {
        let text =
            r#" {"id": "plain", "esc": "a\"b", "xs": [1.5, -2, 3e2], "t": true, "n": null} "#;
        let mut r = Reader::new(text);
        assert_eq!(r.peek().unwrap(), Kind::Obj);
        assert!(r.begin_object().unwrap());
        assert_eq!(r.key().unwrap(), "id");
        // A string without escapes is borrowed from the input.
        assert!(matches!(r.string().unwrap(), Cow::Borrowed("plain")));
        assert!(r.end_member().unwrap());
        assert_eq!(r.key().unwrap(), "esc");
        assert!(matches!(r.string().unwrap(), Cow::Owned(s) if s == "a\"b"));
        assert!(r.end_member().unwrap());
        assert_eq!(r.key().unwrap(), "xs");
        let mut xs = Vec::new();
        let mut more = r.begin_array().unwrap();
        while more {
            xs.push(r.number().unwrap());
            more = r.end_item().unwrap();
        }
        assert_eq!(xs, [1.5, -2.0, 300.0]);
        assert!(r.end_member().unwrap());
        assert_eq!(r.key().unwrap(), "t");
        assert_eq!(r.peek().unwrap(), Kind::Bool);
        assert!(r.bool().unwrap());
        assert!(r.end_member().unwrap());
        assert_eq!(r.key().unwrap(), "n");
        r.skip_value().unwrap();
        assert!(!r.end_member().unwrap());
        r.finish().unwrap();
    }

    #[test]
    fn skipping_checks_exactly_what_parsing_checks() {
        for text in [
            r#"{"a": [1, {"b": "x\u00e9"}, null], "c": 2}"#,
            r#"[1,]"#,
            r#"{"a" 1}"#,
            r#"["bad \q escape"]"#,
            r#"["\u12"]"#,
            r#"[1 2]"#,
            r#"{"a": tru}"#,
            r#"[-]"#,
        ] {
            let mut r = Reader::new(text);
            let skipped = r.skip_value().and_then(|()| r.finish());
            assert_eq!(skipped.err(), parse(text).err(), "{text}");
        }
    }

    #[test]
    fn strings_escape_and_parse() {
        for s in [
            "he said \"hi\"\\\n\ttab\u{1}snow\u{2603}",
            "naïve café résumé — 😀",
            "",
        ] {
            let text = Json::Str(s.to_string()).to_string_compact();
            assert_eq!(parse(&text).unwrap().as_str(), Some(s), "via {text}");
        }
        // Explicit escape forms parse too, surrogate pairs included.
        assert_eq!(
            parse(r#""\u2603\ud83d\ude00 \/\b\f""#).unwrap(),
            Json::Str("\u{2603}\u{1F600} /\u{8}\u{c}".into())
        );
        assert!(parse(r#""bad \q escape""#).is_err());
    }
}
