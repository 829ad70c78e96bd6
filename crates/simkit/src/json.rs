//! The workspace's one JSON reader and string escaper.
//!
//! [`parse`] reads the full JSON grammar into a [`Value`] tree (object
//! members keep their source order) and [`escape`] escapes a string body
//! for emission. Every JSON, JSONL and serve-protocol reader in the
//! workspace goes through [`parse`]; every hand-rolled emitter (reports,
//! traces, profiles, plans, metrics, the bench baseline) escapes its
//! strings with [`escape`] and keeps its own fixed-format template, so
//! output bytes stay stable and the serve path allocates no tree.

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level, so the bound keeps a hostile document such as a
/// megabyte of `[` from exhausting the stack.
pub const MAX_DEPTH: usize = 128;

/// Largest integer [`Value::as_u64`] accepts: 2^53 - 1, the last integer
/// above which distinct JSON integers start to share one `f64`.
pub const MAX_EXACT_INT: u64 = (1 << 53) - 1;

/// A parsed JSON value. Numbers are `f64` (the grammar's only numeric
/// type); object members keep their source order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Number(f64),
    /// A string, unescaped.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, members in source order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on an object; `None` for absent keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is `true` or `false`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as an exact unsigned integer: `None` for non-numbers,
    /// negative or non-integral values, and values above
    /// [`MAX_EXACT_INT`], where an `f64` no longer pins one integer.
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        (n.fract() == 0.0 && (0.0..=MAX_EXACT_INT as f64).contains(&n)).then_some(n as u64)
    }

    /// The array items, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The members in source order, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(members) => Some(members),
            _ => None,
        }
    }
}

/// Parses one complete JSON document. Trailing non-whitespace is an
/// error, as is any grammar violation or nesting deeper than
/// [`MAX_DEPTH`]; every error names a byte offset.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        at: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.at != p.bytes.len() {
        return Err(format!("trailing content at byte {}", p.at));
    }
    Ok(v)
}

/// JSON-escapes a string body (quotes not included).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    at: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.at += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.at))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.at))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.at)),
        }
    }

    /// Runs one array/object production one nesting level deeper.
    fn nested(&mut self, f: fn(&mut Self) -> Result<Value, String>) -> Result<Value, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.at
            ));
        }
        self.depth += 1;
        let v = f(self);
        self.depth -= 1;
        v
    }

    fn digits(&mut self) -> usize {
        let start = self.at;
        while let Some(b'0'..=b'9') = self.peek() {
            self.at += 1;
        }
        self.at - start
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`
    fn number(&mut self) -> Result<Value, String> {
        let start = self.at;
        let bad = |at: usize| format!("bad number at byte {at}");
        if self.peek() == Some(b'-') {
            self.at += 1;
        }
        let int_start = self.at;
        let int_digits = self.digits();
        if int_digits == 0 || (int_digits > 1 && self.bytes[int_start] == b'0') {
            return Err(bad(start));
        }
        if self.peek() == Some(b'.') {
            self.at += 1;
            if self.digits() == 0 {
                return Err(bad(start));
            }
        }
        if let Some(b'e' | b'E') = self.peek() {
            self.at += 1;
            if let Some(b'+' | b'-') = self.peek() {
                self.at += 1;
            }
            if self.digits() == 0 {
                return Err(bad(start));
            }
        }
        self.text[start..self.at]
            .parse::<f64>()
            .map(Value::Number)
            .map_err(|_| bad(start))
    }

    fn hex4(&mut self) -> Result<u16, String> {
        let hex = self
            .text
            .get(self.at..self.at + 4)
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(|| format!("bad \\u escape at byte {}", self.at))?;
        self.at += 4;
        Ok(u16::from_str_radix(hex, 16).expect("four hex digits"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run of plain characters up to the next quote,
            // backslash or control byte in one slice.
            let run = self.at;
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.at += 1;
            }
            out.push_str(&self.text[run..self.at]);
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.at += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.at += 1;
                    out.push(match esc {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{0008}',
                        b'f' => '\u{000c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => self.unicode_escape()?,
                        other => return Err(format!("bad escape '\\{}'", other as char)),
                    });
                }
                Some(_) => {
                    return Err(format!(
                        "unescaped control character in string at byte {}",
                        self.at
                    ))
                }
            }
        }
    }

    /// The character of a `\uXXXX` escape whose `\u` was just consumed,
    /// pairing a high surrogate with the low-surrogate escape after it.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let at = self.at;
        let hi = self.hex4()?;
        let unit = if (0xd800..0xdc00).contains(&hi) && self.bytes[self.at..].starts_with(b"\\u") {
            self.at += 2;
            let lo = self.hex4()?;
            char::decode_utf16([hi, lo]).next()
        } else {
            char::decode_utf16([hi]).next()
        };
        unit.and_then(Result::ok)
            .ok_or_else(|| format!("unpaired surrogate at byte {at}"))
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.at)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(Value::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(Value::Object(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.at)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_protocol_shapes() {
        let v = parse(r#"{"op": "simulate", "args": ["--degrees", "1", "--procs", "8"]}"#)
            .expect("parse");
        assert_eq!(v.get("op").and_then(Value::as_str), Some("simulate"));
        let args = v.get("args").and_then(Value::as_array).expect("args");
        assert_eq!(args.len(), 4);
        assert_eq!(args[0].as_str(), Some("--degrees"));
        assert_eq!(v.as_object().map(<[_]>::len), Some(2));
    }

    #[test]
    fn parses_scalars_nesting_and_escapes() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse(" true ").unwrap().as_bool(), Some(true));
        assert_eq!(parse("-1.5e2").unwrap(), Value::Number(-150.0));
        assert_eq!(parse("0").unwrap(), Value::Number(0.0));
        assert_eq!(parse("1E+2").unwrap(), Value::Number(100.0));
        assert_eq!(
            parse(r#""a\nb\t\"c\" é 😀 é 😀 \/""#).unwrap(),
            Value::String("a\nb\t\"c\" é 😀 é 😀 /".to_string())
        );
        let v = parse(r#"{"a": [1, {"b": []}], "c": {}}"#).unwrap();
        assert!(v.get("c").is_some());
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            r#"{"a" 1}"#,
            "nul",
            "1 2",
            r#""\q""#,
            r#""\ud800""#,
            r#""\ud800A""#,
            r#""\u12""#,
            "\"tab\there\"",
            "01",
            "1.",
            ".5",
            "-",
            "1e",
            "+1",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let s = "line1\nline2\t\"quoted\" back\\slash\u{0001}\r";
        assert_eq!(
            escape(s),
            "line1\\nline2\\t\\\"quoted\\\" back\\\\slash\\u0001\\r"
        );
        let doc = format!("\"{}\"", escape(s));
        assert_eq!(parse(&doc).unwrap(), Value::String(s.to_string()));
    }

    #[test]
    fn as_u64_is_exact() {
        let n = |text: &str| parse(text).unwrap().as_u64();
        assert_eq!(n("0"), Some(0));
        assert_eq!(n("42"), Some(42));
        assert_eq!(n("4.2e1"), Some(42));
        assert_eq!(n("9007199254740991"), Some(MAX_EXACT_INT));
        assert_eq!(
            n("9007199254740992"),
            None,
            "2^53 no longer pins one integer"
        );
        assert_eq!(n("1e300"), None);
        assert_eq!(n("1.5"), None);
        assert_eq!(n("-1"), None);
        assert_eq!(n("\"7\""), None);
    }

    #[test]
    fn nesting_depth_is_bounded_with_an_offset() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let deep = "[".repeat(200_000);
        let err = parse(&deep).unwrap_err();
        assert_eq!(
            err,
            format!("nesting deeper than {MAX_DEPTH} levels at byte {MAX_DEPTH}")
        );
        let objects = format!("{}1", "{\"a\":".repeat(MAX_DEPTH + 1));
        assert!(parse(&objects).unwrap_err().contains("nesting deeper"));
    }
}
