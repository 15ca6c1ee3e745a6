//! A small hand-written JSON layer, in the same spirit as the hand-written
//! XML dialect in [`crate::adl::xml`].
//!
//! The build environment carries no external serialization crates, so the
//! ADL's JSON form ([`crate::adl::to_json`] / [`crate::adl::from_json`]) is
//! implemented over this module. It supports the JSON subset the ADL
//! schema needs: objects, arrays, strings, booleans, `null` and (signed)
//! integers — fractional and exponent number forms are rejected.

use std::fmt::Write as _;

use crate::ModelError;

/// A parsed JSON document node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (the ADL schema uses no fractional numbers).
    Number(i128),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object; insertion order is preserved.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// The string payload, for string nodes.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, for number nodes.
    pub fn as_i128(&self) -> Option<i128> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as a `u64`, when it fits.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_i128().and_then(|n| u64::try_from(n).ok())
    }

    /// The number as a `usize`, when it fits.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_i128().and_then(|n| usize::try_from(n).ok())
    }

    /// The number as a `u32`, when it fits.
    pub fn as_u32(&self) -> Option<u32> {
        self.as_i128().and_then(|n| u32::try_from(n).ok())
    }

    /// The number as a `u8`, when it fits.
    pub fn as_u8(&self) -> Option<u8> {
        self.as_i128().and_then(|n| u8::try_from(n).ok())
    }

    /// The element list, for array nodes.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The member list, for object nodes.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(members) => Some(members),
            _ => None,
        }
    }

    /// Looks up a member of an object node.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// True for `null` nodes.
    pub fn is_null(&self) -> bool {
        matches!(self, JsonValue::Null)
    }

    /// Serializes with two-space indentation.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Number(n) => {
                let _ = write!(out, "{n}");
            }
            JsonValue::String(s) => write_escaped(s, out),
            JsonValue::Array(items) => {
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
                    item.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            JsonValue::Object(members) => {
                if members.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_escaped(key, out);
                    out.push_str(": ");
                    value.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }
}

impl From<&str> for JsonValue {
    fn from(s: &str) -> Self {
        JsonValue::String(s.to_string())
    }
}

impl From<String> for JsonValue {
    fn from(s: String) -> Self {
        JsonValue::String(s)
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_escaped(s: &str, out: &mut String) {
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

/// Maximum container nesting the parser accepts — and, for ADL/XML
/// documents, the maximum element nesting; deeper documents are refused
/// with a parse error instead of overflowing the stack.
pub(crate) const MAX_DEPTH: usize = 128;

/// Parses a JSON document (the subset described in the module docs).
///
/// # Errors
///
/// [`ModelError::Parse`] with the 1-based line of the failure (0 for
/// semantic failures with no source position).
pub fn parse(text: &str) -> crate::Result<JsonValue> {
    let mut parser = Parser {
        chars: text.chars().collect(),
        pos: 0,
        line: 1,
        depth: 0,
    };
    parser.skip_ws();
    let value = parser.value()?;
    parser.skip_ws();
    if parser.pos != parser.chars.len() {
        return Err(parser.error("trailing characters after document"));
    }
    Ok(value)
}

struct Parser {
    chars: Vec<char>,
    pos: usize,
    line: usize,
    depth: usize,
}

impl Parser {
    fn error(&self, detail: impl Into<String>) -> ModelError {
        ModelError::Parse {
            line: self.line,
            detail: detail.into(),
        }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
        }
        Some(c)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(' ' | '\t' | '\n' | '\r')) {
            self.bump();
        }
    }

    fn expect(&mut self, c: char) -> crate::Result<()> {
        match self.bump() {
            Some(got) if got == c => Ok(()),
            Some(got) => Err(self.error(format!("expected '{c}', found '{got}'"))),
            None => Err(self.error(format!("expected '{c}', found end of input"))),
        }
    }

    fn keyword(&mut self, word: &str, value: JsonValue) -> crate::Result<JsonValue> {
        for expected in word.chars() {
            match self.bump() {
                Some(got) if got == expected => {}
                _ => return Err(self.error(format!("malformed literal (expected '{word}')"))),
            }
        }
        Ok(value)
    }

    fn value(&mut self) -> crate::Result<JsonValue> {
        match self.peek() {
            Some('{') => self.nested(Self::object),
            Some('[') => self.nested(Self::array),
            Some('"') => Ok(JsonValue::String(self.string()?)),
            Some('t') => self.keyword("true", JsonValue::Bool(true)),
            Some('f') => self.keyword("false", JsonValue::Bool(false)),
            Some('n') => self.keyword("null", JsonValue::Null),
            Some(c) if c == '-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.error(format!("unexpected character '{c}'"))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn nested(
        &mut self,
        f: impl FnOnce(&mut Self) -> crate::Result<JsonValue>,
    ) -> crate::Result<JsonValue> {
        if self.depth >= MAX_DEPTH {
            return Err(self.error(format!("nesting exceeds {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = f(self);
        self.depth -= 1;
        value
    }

    fn object(&mut self) -> crate::Result<JsonValue> {
        self.expect('{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some('}') {
            self.bump();
            return Ok(JsonValue::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.bump() {
                Some(',') => {}
                Some('}') => return Ok(JsonValue::Object(members)),
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> crate::Result<JsonValue> {
        self.expect('[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(']') {
            self.bump();
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(',') => {}
                Some(']') => return Ok(JsonValue::Array(items)),
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> crate::Result<String> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.error("unterminated string")),
                Some('"') => return Ok(out),
                Some('\\') => match self.bump() {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('/') => out.push('/'),
                    Some('b') => out.push('\u{8}'),
                    Some('f') => out.push('\u{c}'),
                    Some('n') => out.push('\n'),
                    Some('r') => out.push('\r'),
                    Some('t') => out.push('\t'),
                    Some('u') => {
                        let unit = self.hex4()?;
                        let scalar = if (0xD800..0xDC00).contains(&unit) {
                            // High surrogate: a \uXXXX low surrogate must follow.
                            if self.bump() != Some('\\') || self.bump() != Some('u') {
                                return Err(self.error("unpaired surrogate escape"));
                            }
                            let low = self.hex4()?;
                            if !(0xDC00..0xE000).contains(&low) {
                                return Err(self.error("invalid low surrogate"));
                            }
                            0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00)
                        } else {
                            unit
                        };
                        match char::from_u32(scalar) {
                            Some(c) => out.push(c),
                            None => return Err(self.error("invalid unicode escape")),
                        }
                    }
                    _ => return Err(self.error("unknown escape sequence")),
                },
                Some(c) => out.push(c),
            }
        }
    }

    fn hex4(&mut self) -> crate::Result<u32> {
        let mut value = 0u32;
        for _ in 0..4 {
            let c = self
                .bump()
                .ok_or_else(|| self.error("truncated unicode escape"))?;
            let digit = c
                .to_digit(16)
                .ok_or_else(|| self.error("invalid hex digit in unicode escape"))?;
            value = value * 16 + digit;
        }
        Ok(value)
    }

    fn number(&mut self) -> crate::Result<JsonValue> {
        let mut text = String::new();
        if self.peek() == Some('-') {
            text.push(self.bump().expect("peeked"));
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            text.push(self.bump().expect("peeked"));
        }
        if matches!(self.peek(), Some('.' | 'e' | 'E')) {
            return Err(self.error("fractional numbers are not part of the ADL JSON subset"));
        }
        text.parse::<i128>()
            .map(JsonValue::Number)
            .map_err(|_| self.error(format!("invalid number '{text}'")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_nested_document() {
        let value = JsonValue::Object(vec![
            ("name".into(), JsonValue::from("quote \" backslash \\")),
            ("count".into(), JsonValue::Number(-42)),
            (
                "items".into(),
                JsonValue::Array(vec![
                    JsonValue::Null,
                    JsonValue::Bool(true),
                    JsonValue::from("tab\there"),
                ]),
            ),
            ("empty_arr".into(), JsonValue::Array(vec![])),
            ("empty_obj".into(), JsonValue::Object(vec![])),
        ]);
        let text = value.to_pretty();
        let back = parse(&text).unwrap();
        assert_eq!(back, value);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = parse("{\n  \"a\": 1,\n  oops\n}").unwrap_err();
        match err {
            ModelError::Parse { line, .. } => assert_eq!(line, 3),
            other => panic!("expected parse error, got {other}"),
        }
    }

    #[test]
    fn accessors() {
        let doc = parse(r#"{"s": "x", "n": 7, "a": [1, 2], "b": false, "z": null}"#).unwrap();
        assert_eq!(doc.get("s").and_then(JsonValue::as_str), Some("x"));
        assert_eq!(doc.get("n").and_then(JsonValue::as_u64), Some(7));
        assert_eq!(
            doc.get("a").and_then(JsonValue::as_array).map(<[_]>::len),
            Some(2)
        );
        assert!(doc.get("z").is_some_and(JsonValue::is_null));
        assert!(doc.get("missing").is_none());
    }

    #[test]
    fn unicode_escapes() {
        // \u0041 = 'A'; \ud83d\ude00 is the surrogate pair for U+1F600.
        let doc = parse(r#""\u0041\ud83d\ude00""#).unwrap();
        assert_eq!(doc.as_str(), Some("A\u{1F600}"));
        assert!(parse(r#""\ud83d oops""#).is_err());
    }

    #[test]
    fn rejects_fractions_and_garbage() {
        assert!(parse("1.5").is_err());
        assert!(parse("{\"a\": }").is_err());
        assert!(parse("[1, 2").is_err());
        assert!(parse("true false").is_err());
    }

    #[test]
    fn deep_nesting_errors_instead_of_overflowing() {
        let deep = "[".repeat(200_000) + &"]".repeat(200_000);
        let err = parse(&deep).unwrap_err();
        assert!(err.to_string().contains("nesting"), "{err}");
        // Reasonable depth still parses.
        let ok = "[".repeat(MAX_DEPTH - 1) + &"]".repeat(MAX_DEPTH - 1);
        assert!(parse(&ok).is_ok());
    }
}
