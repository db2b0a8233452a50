//! Lexer for the PASDL problem-description language.
//!
//! PASDL is a small declarative text format for power-aware
//! scheduling problems and schedules, so instances survive outside a
//! Rust program (the workspace deliberately has no serde format
//! dependency). Tokens:
//!
//! * identifiers / keywords: `problem`, `task`, `min`, `on`, …
//! * quoted strings: `"fig1-example"`
//! * dimensioned values: `5s`, `14.9W`, `79.5J` (watts and joules
//!   carry up to three decimals — the milli fixed point of
//!   [`pas_graph::units`])
//! * punctuation: `{`, `}`, `->`
//! * comments: `#` to end of line.
//!
//! The lexer hands out tokens on demand, each borrowing its text from
//! the source, so a parse is one pass over the bytes. ASCII takes a
//! byte fast path; any other character goes through the same `char`
//! predicates (`is_whitespace`, `is_alphabetic`, `is_alphanumeric`).

use crate::parser::ParseError;
use core::fmt;

/// A lexical token with its 1-based source line and byte extent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Token<'a> {
    /// Token payload.
    pub kind: TokenKind<'a>,
    /// 1-based line number for diagnostics.
    pub line: usize,
    /// Byte offset of the token's first character.
    pub start: usize,
    /// Byte offset one past the token's last character.
    pub end: usize,
}

/// Token payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TokenKind<'a> {
    /// Bare identifier or keyword.
    Ident(&'a str),
    /// Double-quoted string (no escapes), without its quotes.
    Str(&'a str),
    /// Dimensioned quantity: scaled integer + unit.
    Value {
        /// Magnitude in the unit's fixed-point scale (seconds for
        /// `s`, milliwatts for `W`, millijoules for `J`).
        scaled: i64,
        /// The unit letter as written.
        unit: Unit,
    },
    /// `->`
    Arrow,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
}

/// Units PASDL understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Unit {
    /// Seconds (integral).
    Seconds,
    /// Watts (three decimals → milliwatts).
    Watts,
    /// Joules (three decimals → millijoules).
    Joules,
}

impl fmt::Display for Unit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Unit::Seconds => "s",
            Unit::Watts => "W",
            Unit::Joules => "J",
        })
    }
}

/// The token stream of one source text.
pub(crate) struct Lexer<'a> {
    source: &'a str,
    /// Byte offset of the next unread character.
    pos: usize,
    /// 1-based line of `pos`.
    line: usize,
}

impl<'a> Lexer<'a> {
    pub(crate) fn new(source: &'a str) -> Self {
        Lexer {
            source,
            pos: 0,
            line: 1,
        }
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            message: message.into(),
            line: self.line,
        }
    }

    /// The character at byte offset `at`, which is a character
    /// boundary.
    fn char_at(&self, at: usize) -> Option<char> {
        self.source[at..].chars().next()
    }

    /// The next token, or `None` at the end of the input.
    ///
    /// # Errors
    /// Unterminated strings, malformed numbers, unknown units and
    /// stray characters, with the line they start on.
    pub(crate) fn next_token(&mut self) -> Result<Option<Token<'a>>, ParseError> {
        let bytes = self.source.as_bytes();
        loop {
            let start = self.pos;
            let Some(&byte) = bytes.get(start) else {
                return Ok(None);
            };
            let kind = match byte {
                b'\n' => {
                    self.line += 1;
                    self.pos += 1;
                    continue;
                }
                // The rest of ASCII's `char::is_whitespace`.
                b' ' | b'\t' | b'\r' | b'\x0b' | b'\x0c' => {
                    self.pos += 1;
                    continue;
                }
                b'#' => {
                    match bytes[start..].iter().position(|&b| b == b'\n') {
                        Some(newline) => {
                            self.pos = start + newline + 1;
                            self.line += 1;
                        }
                        None => self.pos = bytes.len(),
                    }
                    continue;
                }
                b'{' => {
                    self.pos += 1;
                    TokenKind::LBrace
                }
                b'}' => {
                    self.pos += 1;
                    TokenKind::RBrace
                }
                b'-' => match bytes.get(start + 1) {
                    Some(b'>') => {
                        self.pos += 2;
                        TokenKind::Arrow
                    }
                    Some(d) if d.is_ascii_digit() => {
                        self.pos += 1;
                        self.value(true)?
                    }
                    _ => return Err(self.err("expected '->' or a negative number after '-'")),
                },
                b'"' => {
                    let body = start + 1;
                    match bytes[body..].iter().position(|&b| b == b'"' || b == b'\n') {
                        Some(len) if bytes[body + len] == b'"' => {
                            self.pos = body + len + 1;
                            TokenKind::Str(&self.source[body..body + len])
                        }
                        _ => return Err(self.err("unterminated string")),
                    }
                }
                b'0'..=b'9' => self.value(false)?,
                b'_' | b'a'..=b'z' | b'A'..=b'Z' => self.ident(),
                _ => {
                    let Some(c) = self.char_at(start) else {
                        return Ok(None);
                    };
                    if c.is_whitespace() {
                        self.pos += c.len_utf8();
                        continue;
                    }
                    if !c.is_alphabetic() {
                        return Err(self.err(format!("unexpected character {c:?}")));
                    }
                    self.ident()
                }
            };
            return Ok(Some(Token {
                kind,
                line: self.line,
                start,
                end: self.pos,
            }));
        }
    }

    /// Lexes an identifier whose first character is at `pos`.
    fn ident(&mut self) -> TokenKind<'a> {
        let start = self.pos;
        let bytes = self.source.as_bytes();
        while let Some(&byte) = bytes.get(self.pos) {
            if byte.is_ascii_alphanumeric() || byte == b'_' {
                self.pos += 1;
            } else if byte.is_ascii() {
                break;
            } else {
                match self.char_at(self.pos) {
                    Some(c) if c.is_alphanumeric() => self.pos += c.len_utf8(),
                    _ => break,
                }
            }
        }
        TokenKind::Ident(&self.source[start..self.pos])
    }

    /// Lexes `123`, `14.9`, … followed by a unit letter; `pos` is at
    /// the first digit.
    fn value(&mut self, negative: bool) -> Result<TokenKind<'a>, ParseError> {
        let bytes = self.source.as_bytes();
        let digit = |at: usize| {
            bytes
                .get(at)
                .filter(|b| b.is_ascii_digit())
                .map(|b| i64::from(b - b'0'))
        };
        let mut whole: i64 = 0;
        while let Some(d) = digit(self.pos) {
            whole = whole
                .checked_mul(10)
                .and_then(|w| w.checked_add(d))
                .ok_or_else(|| self.err("number too large"))?;
            self.pos += 1;
        }
        let mut frac: i64 = 0;
        let mut frac_digits = 0u32;
        if bytes.get(self.pos) == Some(&b'.') {
            self.pos += 1;
            while let Some(d) = digit(self.pos) {
                if frac_digits >= 3 {
                    return Err(self.err("at most three decimal places are representable"));
                }
                frac = frac * 10 + d;
                frac_digits += 1;
                self.pos += 1;
            }
            if frac_digits == 0 {
                return Err(self.err("expected digits after decimal point"));
            }
        }
        let unit = match bytes.get(self.pos) {
            Some(b's') => Unit::Seconds,
            Some(b'W') => Unit::Watts,
            Some(b'J') => Unit::Joules,
            _ => {
                let other = self.char_at(self.pos);
                return Err(self.err(format!("expected unit (s/W/J), found {other:?}")));
            }
        };
        self.pos += 1;
        if unit == Unit::Seconds && frac_digits > 0 {
            return Err(self.err("seconds must be integral"));
        }
        let scale = match unit {
            Unit::Seconds => 1,
            Unit::Watts | Unit::Joules => 1000,
        };
        // Seconds have no fraction, so `frac` is 0 for them.
        let magnitude = whole
            .checked_mul(scale)
            .and_then(|w| w.checked_add(frac * 10_i64.pow(3 - frac_digits)))
            .ok_or_else(|| self.err("number too large"))?;
        let scaled = if negative { -magnitude } else { magnitude };
        Ok(TokenKind::Value { scaled, unit })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tokenize(src: &str) -> Result<Vec<Token<'_>>, ParseError> {
        let mut lexer = Lexer::new(src);
        let mut tokens = Vec::new();
        while let Some(token) = lexer.next_token()? {
            tokens.push(token);
        }
        Ok(tokens)
    }

    fn kinds(src: &str) -> Vec<TokenKind<'_>> {
        tokenize(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn keywords_strings_and_punctuation() {
        let k = kinds("problem \"demo\" { }");
        assert_eq!(
            k,
            vec![
                TokenKind::Ident("problem"),
                TokenKind::Str("demo"),
                TokenKind::LBrace,
                TokenKind::RBrace,
            ]
        );
    }

    #[test]
    fn values_scale_to_fixed_point() {
        assert_eq!(
            kinds("5s 14.9W 79.5J 10W"),
            vec![
                TokenKind::Value {
                    scaled: 5,
                    unit: Unit::Seconds
                },
                TokenKind::Value {
                    scaled: 14_900,
                    unit: Unit::Watts
                },
                TokenKind::Value {
                    scaled: 79_500,
                    unit: Unit::Joules
                },
                TokenKind::Value {
                    scaled: 10_000,
                    unit: Unit::Watts
                },
            ]
        );
    }

    #[test]
    fn arrow_and_negative_numbers() {
        assert_eq!(
            kinds("a -> b -5s"),
            vec![
                TokenKind::Ident("a"),
                TokenKind::Arrow,
                TokenKind::Ident("b"),
                TokenKind::Value {
                    scaled: -5,
                    unit: Unit::Seconds
                },
            ]
        );
    }

    #[test]
    fn comments_and_lines_tracked() {
        let toks = tokenize("task a # ignored\ntask b").unwrap();
        assert_eq!(toks.len(), 4);
        assert_eq!(toks[0].line, 1);
        assert_eq!(toks[3].line, 2);
    }

    #[test]
    fn tokens_carry_byte_spans() {
        let src = "task \"a\"\n  -5s";
        let toks = tokenize(src).unwrap();
        assert_eq!(&src[toks[0].start..toks[0].end], "task");
        assert_eq!(&src[toks[1].start..toks[1].end], "\"a\"");
        assert_eq!(&src[toks[2].start..toks[2].end], "-5s");
    }

    #[test]
    fn errors_carry_lines() {
        let e = tokenize("x\n$").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("line 2"));
        assert!(tokenize("\"open").is_err());
        assert!(tokenize("5.1234W").is_err());
        assert!(tokenize("5.5s").is_err(), "fractional seconds rejected");
        assert!(tokenize("5q").is_err(), "unknown unit");
        assert!(tokenize("5.W").is_err(), "empty fraction");
        assert!(tokenize("- x").is_err(), "stray dash");
    }
}
