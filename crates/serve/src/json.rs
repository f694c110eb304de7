//! A minimal JSON layer for the newline-delimited wire protocol.
//!
//! The build environment is offline (no `serde`), and the protocol needs
//! only a small, strict subset of JSON: one value per line, objects /
//! arrays / strings / finite numbers / booleans / null. The parser is a
//! plain recursive-descent over bytes with a depth cap (a service must
//! not stack-overflow on hostile input) and precise error positions; the
//! writer escapes strings per RFC 8259, refuses non-finite numbers
//! (JSON has no `Infinity` — the protocol encodes "no threshold" by
//! omitting the field instead), and frames objects and arrays through
//! [`write_object`] / [`write_array`], which place every comma.

use std::fmt;

/// A parsed JSON value. Object members keep their textual order; lookup
/// is linear, which is right for the protocol's ≤ 4-key objects.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (always finite — the parser rejects the rest).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object as ordered `(key, value)` pairs.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object member lookup (first match; `None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a finite float, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a whole number that
    /// fits (ids and counts travel as JSON numbers).
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as usize)
            }
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object's keys, for strict unknown-key rejection (`None` on
    /// non-objects).
    pub fn keys(&self) -> Option<impl Iterator<Item = &str>> {
        match self {
            Value::Obj(members) => Some(members.iter().map(|(k, _)| k.as_str())),
            _ => None,
        }
    }
}

/// Parses one JSON value, requiring it to span the whole input (trailing
/// whitespace aside). Errors carry the byte offset.
pub fn parse(input: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data after the JSON value"));
    }
    Ok(value)
}

/// Nesting depth cap: hostile `[[[[...` input must exhaust the parser's
/// patience, not the thread's stack.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8, what: &str) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {what}")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, text: &str, value: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, String> {
        self.eat(b'{', "'{'")?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "':'")?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, String> {
        self.eat(b'[', "'['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"', "'\"'")?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => out.push(self.unicode_escape()?),
                        _ => return Err(self.err("invalid escape")),
                    }
                }
                Some(b) if b < 0x20 => return Err(self.err("control character in string")),
                Some(_) => {
                    // Consume one UTF-8 scalar (the input is a &str, so
                    // boundaries are trustworthy).
                    let rest = &self.bytes[self.pos..];
                    let ch_len = match rest[0] {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    out.push_str(std::str::from_utf8(&rest[..ch_len]).expect("valid UTF-8 input"));
                    self.pos += ch_len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("invalid number")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digits required after decimal point"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digits required in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII number text");
        let n: f64 = text.parse().map_err(|_| self.err("unparseable number"))?;
        if !n.is_finite() {
            return Err(self.err("number out of range"));
        }
        Ok(Value::Num(n))
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .ok()
            .and_then(|s| u32::from_str_radix(s, 16).ok())
            .ok_or_else(|| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(hex)
    }

    fn unicode_escape(&mut self) -> Result<char, String> {
        let first = self.hex4()?;
        let code = if (0xd800..0xdc00).contains(&first) {
            // High surrogate: a low surrogate escape must follow.
            if self.peek() != Some(b'\\') || self.bytes.get(self.pos + 1) != Some(&b'u') {
                return Err(self.err("lone high surrogate"));
            }
            self.pos += 2;
            let second = self.hex4()?;
            if !(0xdc00..0xe000).contains(&second) {
                return Err(self.err("invalid low surrogate"));
            }
            0x10000 + ((first - 0xd800) << 10) + (second - 0xdc00)
        } else {
            first
        };
        char::from_u32(code).ok_or_else(|| self.err("invalid unicode escape"))
    }
}

/// Appends `s` to `out` as a quoted, escaped JSON string.
pub fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for ch in s.chars() {
        match ch {
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
    out.push('"');
}

/// Appends a number to `out`.
///
/// # Panics
///
/// Panics on non-finite values — the protocol never emits them (absent
/// thresholds are encoded by omitting the field).
pub fn write_number(n: f64, out: &mut String) {
    assert!(n.is_finite(), "JSON cannot represent {n}");
    use fmt::Write;
    write!(out, "{n}").expect("writing to String cannot fail");
}

/// The members of one JSON object or array being written: places the
/// comma before every member after the first.
pub struct Members<'a> {
    out: &'a mut String,
    empty: bool,
}

/// Appends a JSON object whose members `body` writes.
pub fn write_object(out: &mut String, body: impl FnOnce(&mut Members)) {
    write_members(out, '{', '}', body);
}

/// Appends a JSON array whose elements `body` writes.
pub fn write_array(out: &mut String, body: impl FnOnce(&mut Members)) {
    write_members(out, '[', ']', body);
}

fn write_members(out: &mut String, open: char, close: char, body: impl FnOnce(&mut Members)) {
    out.push(open);
    let mut members = Members { out, empty: true };
    body(&mut members);
    members.out.push(close);
}

impl Members<'_> {
    /// Starts the next array element; its value goes into the returned
    /// buffer.
    pub fn item(&mut self) -> &mut String {
        if !std::mem::take(&mut self.empty) {
            self.out.push(',');
        }
        self.out
    }

    /// Starts the next object member, `"key":`; its value goes into the
    /// returned buffer.
    pub fn key(&mut self, key: &str) -> &mut String {
        let out = self.item();
        write_escaped(key, out);
        out.push(':');
        out
    }

    /// Writes the member `"key":n`.
    pub fn num(&mut self, key: &str, n: f64) {
        write_number(n, self.key(key));
    }

    /// Writes the member `"key":"s"`.
    pub fn str(&mut self, key: &str, s: &str) {
        write_escaped(s, self.key(key));
    }

    /// Writes the member `"key":true` or `"key":false`.
    pub fn bool(&mut self, key: &str, b: bool) {
        self.key(key).push_str(if b { "true" } else { "false" });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_protocol_shapes() {
        let v = parse(r#"{"op":"range","tree":"{a{b}}","tau":2.5}"#).unwrap();
        assert_eq!(v.get("op").and_then(Value::as_str), Some("range"));
        assert_eq!(v.get("tree").and_then(Value::as_str), Some("{a{b}}"));
        assert_eq!(v.get("tau").and_then(Value::as_f64), Some(2.5));

        let v = parse(r#"{"ids":[0,3,17],"neg":-2,"flag":true,"none":null}"#).unwrap();
        let ids: Vec<usize> = v
            .get("ids")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|x| x.as_usize().unwrap())
            .collect();
        assert_eq!(ids, vec![0, 3, 17]);
        assert_eq!(v.get("neg").and_then(Value::as_f64), Some(-2.0));
        assert_eq!(v.get("neg").and_then(Value::as_usize), None);
        assert_eq!(v.get("flag"), Some(&Value::Bool(true)));
        assert_eq!(v.get("none"), Some(&Value::Null));
    }

    #[test]
    fn string_escapes_roundtrip() {
        let v = parse(r#""a\"b\\c\ndAé😀""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\ndA\u{e9}\u{1f600}"));

        let mut out = String::new();
        write_escaped("a\"b\\c\nd\te\u{1}", &mut out);
        assert_eq!(out, r#""a\"b\\c\nd\te\u0001""#);
        // The writer's output re-parses to the original.
        assert_eq!(parse(&out).unwrap().as_str(), Some("a\"b\\c\nd\te\u{1}"));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            r#"{"a":}"#,
            r#"{"a":1}{"#,
            "tru",
            "01e",
            r#""unterminated"#,
            r#""\q""#,
            r#""\ud800x""#,
            "\u{1}",
        ] {
            assert!(parse(bad).is_err(), "accepted: {bad:?}");
        }
        // Depth bomb: rejected, not a stack overflow.
        let bomb = "[".repeat(100_000);
        assert!(parse(&bomb).is_err());
    }

    #[test]
    fn numbers() {
        assert_eq!(parse("3").unwrap().as_f64(), Some(3.0));
        assert_eq!(parse("-2.5e2").unwrap().as_f64(), Some(-250.0));
        assert_eq!(parse("7").unwrap().as_usize(), Some(7));
        assert_eq!(parse("7.5").unwrap().as_usize(), None);
        assert_eq!(parse("-1").unwrap().as_usize(), None);
        let mut out = String::new();
        write_number(3.0, &mut out);
        out.push(' ');
        write_number(2.25, &mut out);
        assert_eq!(out, "3 2.25");
    }

    #[test]
    fn members_place_commas_and_close() {
        let mut out = String::new();
        write_object(&mut out, |o| {
            o.num("n", 1.0);
            o.str("s", "a\"b");
            o.bool("b", false);
            write_array(o.key("xs"), |a| {
                for x in [1.0, 2.5] {
                    write_number(x, a.item());
                }
                write_object(a.item(), |_| {});
            });
            write_array(o.key("none"), |_| {});
        });
        assert_eq!(
            out,
            r#"{"n":1,"s":"a\"b","b":false,"xs":[1,2.5,{}],"none":[]}"#
        );
        parse(&out).unwrap();
    }
}
