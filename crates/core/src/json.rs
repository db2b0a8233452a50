//! The workspace's one JSON codec: an escaper for building JSON text
//! and a strict RFC 8259 reader.
//!
//! Every JSON string that embeds outside data (task and model names,
//! messages, trace vocabulary) is escaped by [`push_escaped`], and
//! every JSON document the workspace reads back (JSONL traces, BENCH
//! files, daemon responses, exporter output in tests) goes through
//! [`parse`]. Traces arrive as untrusted bytes, so the reader accepts
//! exactly RFC 8259 and nothing else: no trailing commas, no leading
//! zeros, no raw control characters or lone surrogates in strings, no
//! trailing characters after the value. Nesting deeper than
//! [`MAX_DEPTH`] is an error; the reader keeps its open containers on
//! the heap, so its native stack does not grow with the input.
//!
//! ```
//! use pas_core::json::{parse, push_escaped, Value};
//!
//! let mut line = String::from("{\"name\":\"");
//! push_escaped(&mut line, "a\tb");
//! line.push_str("\",\"n\":-3}");
//! assert_eq!(line, r#"{"name":"a\tb","n":-3}"#);
//!
//! let value = parse(&line).unwrap();
//! assert_eq!(value.get("name").and_then(Value::as_str), Some("a\tb"));
//! assert_eq!(value.get("n").and_then(Value::as_i128), Some(-3));
//! ```

use std::fmt::{self, Write};

/// Deepest nesting of arrays and objects [`parse`] accepts.
pub const MAX_DEPTH: usize = 128;

/// Appends `s` to `out` as the body of a JSON string literal (the
/// caller writes the surrounding quotes).
///
/// `"` and `\` are backslash-escaped, newline, carriage return and tab
/// become `\n`, `\r` and `\t`, and the other control characters below
/// U+0020 become `\u00XX`. Everything else is copied as is.
pub fn push_escaped(out: &mut String, s: &str) {
    let mut plain = 0;
    for (i, byte) in s.bytes().enumerate() {
        let escaped = match byte {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        // Every byte matched above is ASCII, so `i` is a char boundary.
        out.push_str(&s[plain..i]);
        if escaped.is_empty() {
            let _ = write!(out, "\\u{byte:04x}");
        } else {
            out.push_str(escaped);
        }
        plain = i + 1;
    }
    out.push_str(&s[plain..]);
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number, kept as its literal text so integers stay exact at
    /// any width; read it with [`Value::as_i128`] or [`Value::as_f64`].
    Number(String),
    /// A string, unescaped.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object's members in document order, duplicate keys included.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The value of the first member named `key`, if this is an object
    /// that has one.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The number, if this is an integer literal (no fraction, no
    /// exponent) that fits an `i128`.
    pub fn as_i128(&self) -> Option<i128> {
        match self {
            Value::Number(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// The number as the nearest `f64`, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(members) => Some(members),
            _ => None,
        }
    }
}

/// Why [`parse`] rejected its input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input where reading stopped.
    pub offset: usize,
    /// What was wrong there.
    pub reason: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.reason, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// Reads one JSON document: a value with optional whitespace around
/// it and nothing else.
pub fn parse(text: &str) -> Result<Value, JsonError> {
    let mut reader = Reader { text, pos: 0 };
    let value = reader.value()?;
    reader.skip_whitespace();
    if reader.pos < text.len() {
        return Err(reader.error("trailing characters after the value"));
    }
    Ok(value)
}

/// An array or object whose closing bracket has not been read yet.
enum Open {
    Array(Vec<Value>),
    /// Members so far, and the key of the member being read.
    Object(Vec<(String, Value)>, String),
}

struct Reader<'a> {
    text: &'a str,
    pos: usize,
}

impl Reader<'_> {
    fn error(&self, reason: &'static str) -> JsonError {
        JsonError {
            offset: self.pos,
            reason,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Consumes `byte` if it is next.
    fn eat(&mut self, byte: u8) -> bool {
        let next = self.peek() == Some(byte);
        self.pos += usize::from(next);
        next
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// One value, nested containers included. Open containers live on
    /// an explicit stack, never on the native one.
    fn value(&mut self) -> Result<Value, JsonError> {
        let mut open: Vec<Open> = Vec::new();
        loop {
            self.skip_whitespace();
            let mut value = match self.peek() {
                Some(b'[' | b'{') if open.len() == MAX_DEPTH => {
                    return Err(self.error("nesting deeper than MAX_DEPTH"))
                }
                Some(b'[') => {
                    self.pos += 1;
                    self.skip_whitespace();
                    if !self.eat(b']') {
                        open.push(Open::Array(Vec::new()));
                        continue;
                    }
                    Value::Array(Vec::new())
                }
                Some(b'{') => {
                    self.pos += 1;
                    self.skip_whitespace();
                    if !self.eat(b'}') {
                        let key = self.key()?;
                        open.push(Open::Object(Vec::new(), key));
                        continue;
                    }
                    Value::Object(Vec::new())
                }
                Some(b'"') => Value::String(self.string()?),
                Some(b'-' | b'0'..=b'9') => Value::Number(self.number()?),
                Some(b't') => self.literal("true", Value::Bool(true))?,
                Some(b'f') => self.literal("false", Value::Bool(false))?,
                Some(b'n') => self.literal("null", Value::Null)?,
                Some(_) => return Err(self.error("expected a value")),
                None => return Err(self.error("unexpected end of input")),
            };
            // Store the value in its container, closing every
            // container the input closes after it.
            loop {
                let Some(mut container) = open.pop() else {
                    return Ok(value);
                };
                let close = match &mut container {
                    Open::Array(items) => {
                        items.push(value);
                        b']'
                    }
                    Open::Object(members, key) => {
                        members.push((std::mem::take(key), value));
                        b'}'
                    }
                };
                self.skip_whitespace();
                if self.eat(b',') {
                    if let Open::Object(_, key) = &mut container {
                        self.skip_whitespace();
                        *key = self.key()?;
                    }
                    open.push(container);
                    break;
                }
                if !self.eat(close) {
                    return Err(self.error("expected ',' or a closing bracket"));
                }
                value = match container {
                    Open::Array(items) => Value::Array(items),
                    Open::Object(members, _) => Value::Object(members),
                };
            }
        }
    }

    /// A member's key and the `:` after it.
    fn key(&mut self) -> Result<String, JsonError> {
        if self.peek() != Some(b'"') {
            return Err(self.error("expected a string key"));
        }
        let key = self.string()?;
        self.skip_whitespace();
        if !self.eat(b':') {
            return Err(self.error("expected ':'"));
        }
        Ok(key)
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, JsonError> {
        if !self.text[self.pos..].starts_with(word) {
            return Err(self.error("expected a value"));
        }
        self.pos += word.len();
        Ok(value)
    }

    /// A string starting at its opening quote.
    fn string(&mut self) -> Result<String, JsonError> {
        self.pos += 1;
        let mut out = String::new();
        loop {
            let plain = self.pos;
            while matches!(self.peek(), Some(byte) if byte != b'"' && byte != b'\\' && byte >= 0x20)
            {
                self.pos += 1;
            }
            // The loop stops at an ASCII byte or the end: a char boundary.
            out.push_str(&self.text[plain..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let c = self.unescape()?;
                    out.push(c);
                }
                Some(_) => return Err(self.error("raw control character in a string")),
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    /// The character an escape stands for, after its backslash.
    fn unescape(&mut self) -> Result<char, JsonError> {
        let byte = self.peek();
        self.pos += 1;
        Ok(match byte {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                let mut code = self.hex4()?;
                if (0xd800..0xdc00).contains(&code) && self.text[self.pos..].starts_with("\\u") {
                    self.pos += 2;
                    let low = self.hex4()?;
                    if (0xdc00..0xe000).contains(&low) {
                        code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                    }
                }
                // A surrogate left unpaired is not a char.
                char::from_u32(code).ok_or_else(|| self.error("lone surrogate"))?
            }
            _ => {
                self.pos -= 1;
                return Err(self.error("bad escape"));
            }
        })
    }

    /// The four hex digits of a `\u` escape.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut unit = 0;
        for _ in 0..4 {
            let digit = self
                .peek()
                .and_then(|byte| char::from(byte).to_digit(16))
                .ok_or_else(|| self.error("bad \\u escape"))?;
            unit = unit * 16 + digit;
            self.pos += 1;
        }
        Ok(unit)
    }

    /// Consumes a run of decimal digits; whether there was one.
    fn digits(&mut self) -> bool {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos > start
    }

    /// A number's literal text: `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`.
    fn number(&mut self) -> Result<String, JsonError> {
        let start = self.pos;
        self.eat(b'-');
        if !self.eat(b'0') && !self.digits() {
            return Err(self.error("expected a digit"));
        }
        if self.eat(b'.') && !self.digits() {
            return Err(self.error("expected a digit after '.'"));
        }
        if self.eat(b'e') || self.eat(b'E') {
            let _ = self.eat(b'+') || self.eat(b'-');
            if !self.digits() {
                return Err(self.error("expected an exponent digit"));
            }
        }
        Ok(self.text[start..self.pos].to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn string_body(s: &str) -> String {
        let mut out = String::new();
        push_escaped(&mut out, s);
        out
    }

    #[test]
    fn escaper_handles_quotes_backslashes_and_control_bytes() {
        assert_eq!(string_body("a\"b\\c\nd\u{1}"), "a\\\"b\\\\c\\nd\\u0001");
        assert_eq!(string_body("\r\t\u{1f}\u{7f}"), "\\r\\t\\u001f\u{7f}");
        assert_eq!(string_body("plain µs ✓"), "plain µs ✓");
        assert_eq!(string_body(""), "");
    }

    #[test]
    fn escaped_strings_read_back_unchanged() {
        for s in [
            "",
            "a\"b\\c",
            "tab\there",
            "\u{0}\u{1f}\r\n",
            "µs ✓ 🚀",
            "/",
        ] {
            let doc = format!("\"{}\"", string_body(s));
            assert_eq!(parse(&doc), Ok(Value::String(s.to_string())), "{doc}");
        }
    }

    #[test]
    fn accepts_every_rfc_8259_form() {
        let num = |s: &str| Value::Number(s.to_string());
        let string = |s: &str| Value::String(s.to_string());
        for (text, want) in [
            ("0", num("0")),
            ("-0", num("-0")),
            ("-12.5e+3", num("-12.5e+3")),
            ("1E-2", num("1E-2")),
            ("true", Value::Bool(true)),
            ("false", Value::Bool(false)),
            ("null", Value::Null),
            (" \t\r\n[ ] \n", Value::Array(vec![])),
            ("{ }", Value::Object(vec![])),
            (r#""é€""#, string("é€")),
            (r#""🚀""#, string("🚀")),
            (r#""\"\\\/\b\f\n\r\t""#, string("\"\\/\u{8}\u{c}\n\r\t")),
            ("\"raw ✓ é\"", string("raw ✓ é")),
            (
                "[1,[2,[]],{\"a\":{\"b\":null}}]",
                Value::Array(vec![
                    num("1"),
                    Value::Array(vec![num("2"), Value::Array(vec![])]),
                    Value::Object(vec![(
                        "a".to_string(),
                        Value::Object(vec![("b".to_string(), Value::Null)]),
                    )]),
                ]),
            ),
            (
                "{\"k\":1,\"k\":2}",
                Value::Object(vec![
                    ("k".to_string(), num("1")),
                    ("k".to_string(), num("2")),
                ]),
            ),
        ] {
            assert_eq!(parse(text), Ok(want), "{text:?}");
        }
    }

    #[test]
    fn rejects_everything_outside_rfc_8259() {
        for text in [
            "",
            "   ",
            "\"raw\ttab\"",
            "\"raw\nnewline\"",
            "\"\u{1}\"",
            r#""\x41""#,
            r#""\u12""#,
            r#""\u12g4""#,
            r#""\'""#,
            r#""\ud83d""#,
            r#""\ud83dA""#,
            r#""\ude80""#,
            r#""\ud83dx""#,
            "01",
            "-01",
            "00.5",
            "-",
            "1.",
            ".5",
            "1e",
            "1e+",
            "+1",
            "NaN",
            "[1,]",
            "{\"a\":1,}",
            "[,1]",
            "{,}",
            "{\"a\" 1}",
            "{\"a\":}",
            "{a:1}",
            "{1:1}",
            "[1 2]",
            "{\"a\":1}x",
            "[1]]",
            "1 2",
            "[",
            "{\"a\":[1,2",
            "\"unterminated",
            "tru",
            "nul",
            "True",
            "\u{c}1",
            "\u{a0}1",
        ] {
            assert!(parse(text).is_err(), "accepted {text:?}");
        }
    }

    #[test]
    fn truncated_utf8_never_reaches_the_reader() {
        // Input arrives as bytes; only valid UTF-8 becomes a `&str`.
        let read = |bytes: &[u8]| std::str::from_utf8(bytes).ok().map(parse);
        assert!(read(b"\"\xc3\"").is_none());
        assert!(read(b"\"\xe2\x82\"").is_none());
        assert_eq!(read(b"\"\xc3\xa9\""), Some(Ok(Value::String("é".into()))));
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH);
        let objects = "{\"a\":".repeat(MAX_DEPTH + 1) + "1" + &"}".repeat(MAX_DEPTH + 1);
        assert!(parse(&objects).is_err());
    }

    #[test]
    fn numbers_read_exactly_as_integers_and_as_floats() {
        let max = i128::MAX.to_string();
        assert_eq!(parse(&max).unwrap().as_i128(), Some(i128::MAX));
        assert_eq!(parse("-7").unwrap().as_i128(), Some(-7));
        assert_eq!(parse("2.5").unwrap().as_i128(), None);
        assert_eq!(parse("2.5").unwrap().as_f64(), Some(2.5));
        assert_eq!(parse("1e3").unwrap().as_f64(), Some(1000.0));
        assert_eq!(parse("\"1\"").unwrap().as_i128(), None);
    }

    #[test]
    fn accessors_read_members_in_document_order() {
        let doc = parse(r#"{"a":[1,"x"],"b":{"c":true},"a":2}"#).unwrap();
        assert_eq!(
            doc.get("a").and_then(Value::as_array).map(<[_]>::len),
            Some(2)
        );
        assert_eq!(
            doc.get("b").and_then(|b| b.get("c")),
            Some(&Value::Bool(true))
        );
        assert_eq!(doc.get("z"), None);
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["a", "b", "a"]);
        assert_eq!(Value::Null.get("a"), None);
    }

    #[test]
    fn errors_name_the_byte_where_reading_stopped() {
        let err = parse("[1,]").unwrap_err();
        assert_eq!(err.offset, 3);
        assert_eq!(err.to_string(), "expected a value at byte 3");
    }
}
