//! The workspace's one JSON reader and writer.
//!
//! resildb is dependency-free, so every machine-readable artifact —
//! metrics exports, flight-recorder captures, incident timelines, lint
//! and blast-radius reports, bench reports — is written by hand with
//! [`escape`] and [`number`] and read back with [`parse`]. The reader is
//! recursive descent over the full grammar (objects, arrays, strings with
//! `\uXXXX` escapes and surrogate pairs, numbers, booleans, null) and
//! reports the byte offset of the first violation, so a corrupted
//! baseline or capture fails loudly instead of being read as garbage.

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number, kept as `f64`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, key-ordered (a repeated key keeps its last value).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Member `key`, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_object()?.get(key)
    }

    /// The members, if this is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The string content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number truncated to `u64`, if this is a non-negative number.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64().filter(|n| *n >= 0.0).map(|n| n as u64)
    }

    /// The number truncated to `i64`, if this is a number.
    pub fn as_i64(&self) -> Option<i64> {
        self.as_f64().map(|n| n as i64)
    }
}

/// Renders `s` as a JSON string literal, quotes included. Quotes,
/// backslashes and control characters are escaped; everything else,
/// multi-byte UTF-8 included, is copied as is.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
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
    out.push('"');
    out
}

/// Renders `v` as a JSON number: the shortest text that parses back to
/// the same `f64`. JSON has no NaN or infinity, so non-finite values
/// render as `0`.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Parses one JSON document; anything but whitespace after it is an
/// error.
///
/// # Errors
///
/// A message naming the byte offset of the first violation.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing content at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
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
            Err(format!("expected `{}` at byte {}", char::from(b), self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(format!("unexpected input at byte {}", self.pos)),
            None => Err(format!("unexpected end of input at byte {}", self.pos)),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        // Only ASCII bytes were consumed, so the slice is valid UTF-8.
        let text = String::from_utf8_lossy(&self.bytes[start..self.pos]);
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("invalid number `{text}` at byte {start}"))
    }

    /// Four hex digits of a `\u` escape.
    fn hex4(&mut self) -> Result<u32, String> {
        let code = self
            .bytes
            .get(self.pos..self.pos + 4)
            .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
            .and_then(|h| std::str::from_utf8(h).ok())
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
        self.pos += 4;
        Ok(code)
    }

    fn string(&mut self) -> Result<String, String> {
        let start = self.pos;
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(format!("unterminated string at byte {start}")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    let at = self.pos;
                    self.pos += 2;
                    match self.bytes.get(at + 1) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let mut code = self.hex4()?;
                            // A high surrogate followed by `\u` + low
                            // surrogate encodes one astral-plane scalar.
                            if (0xD800..0xDC00).contains(&code)
                                && self.bytes[self.pos..].starts_with(b"\\u")
                            {
                                let resume = self.pos;
                                self.pos += 2;
                                let low = self.hex4()?;
                                if (0xDC00..0xE000).contains(&low) {
                                    code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                } else {
                                    self.pos = resume;
                                }
                            }
                            // Lone surrogates become the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(format!("invalid escape at byte {at}")),
                    }
                }
                Some(_) => {
                    // Take the whole run of plain bytes up to the next
                    // quote or backslash. Both are ASCII, so they never
                    // split a multi-byte scalar and the run is valid
                    // UTF-8 on its own.
                    let run = self.pos;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[run..self.pos])
                            .map_err(|_| format!("invalid UTF-8 at byte {run}"))?,
                    );
                }
            }
        }
    }

    /// Parses `open item (, item)* close` or an empty `open close`,
    /// calling `item` once per element.
    fn seq(
        &mut self,
        open: u8,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.expect(open)?;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            item(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(c) if c == close => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => {
                    let close = char::from(close);
                    return Err(format!("expected `,` or `{close}` at byte {}", self.pos));
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        let mut items = Vec::new();
        self.seq(b'[', b']', |p| {
            items.push(p.value()?);
            Ok(())
        })?;
        Ok(Json::Arr(items))
    }

    fn object(&mut self) -> Result<Json, String> {
        let mut members = BTreeMap::new();
        self.seq(b'{', b'}', |p| {
            p.skip_ws();
            let key = p.string()?;
            p.skip_ws();
            p.expect(b':')?;
            members.insert(key, p.value()?);
            Ok(())
        })?;
        Ok(Json::Obj(members))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn string_escapes_round_trip() {
        let mut hard: String = (0u32..0x20).filter_map(char::from_u32).collect();
        hard.push_str("\"\\/ é 🙂 plain");
        for s in [hard.as_str(), "", "a\"b\\c\nAé", "\u{7f}\u{2028}"] {
            assert_eq!(parse(&escape(s)), Ok(Json::Str(s.to_string())), "{s:?}");
        }
        assert_eq!(escape("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(escape("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn formatted_numbers_round_trip() {
        for v in [
            0.0,
            -0.0,
            1.5,
            -3.0,
            0.1 + 0.2,
            1e300,
            -1e-300,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::EPSILON,
            123_456_789_012_345.67,
        ] {
            assert_eq!(parse(&number(v)), Ok(Json::Num(v)), "{v}");
        }
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(number(v), "0");
        }
    }

    #[test]
    fn parses_nested_document() {
        let v = parse(
            r#"{"profiles": {"Payment": {"closure": ["Deliv", "Payment"], "n": 2.5}},
               "ok": true, "none": null, "neg": -3, "big": 12e2}"#,
        )
        .unwrap();
        let closure = v
            .get("profiles")
            .and_then(|p| p.get("Payment"))
            .and_then(|p| p.get("closure"))
            .and_then(Json::as_array)
            .unwrap();
        assert_eq!(closure[0].as_str(), Some("Deliv"));
        assert_eq!(v.get("neg").and_then(Json::as_i64), Some(-3));
        assert_eq!(v.get("neg").and_then(Json::as_u64), None);
        assert_eq!(v.get("big").and_then(Json::as_u64), Some(1200));
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("none"), Some(&Json::Null));
        assert_eq!(v.get("absent"), None);
    }

    #[test]
    fn empty_containers() {
        assert_eq!(parse(" {} ").unwrap(), Json::Obj(BTreeMap::new()));
        assert_eq!(parse("[ ]").unwrap(), Json::Arr(Vec::new()));
    }

    #[test]
    fn unicode_escapes_decode() {
        assert_eq!(parse(r#""\u00e9\/""#).unwrap().as_str(), Some("é/"));
        // A surrogate pair is one scalar; a lone surrogate is U+FFFD.
        assert_eq!(parse(r#""\ud83d\ude42""#).unwrap().as_str(), Some("🙂"));
        assert_eq!(parse(r#""\ud83dx""#).unwrap().as_str(), Some("\u{fffd}x"));
        assert_eq!(
            parse(r#""\ud83d\u0041""#).unwrap().as_str(),
            Some("\u{fffd}A")
        );
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "{",
            "[1,",
            "tru",
            "{\"a\" 1}",
            "1 2",
            "",
            "   ",
            "\"unterminated",
            "\"bad \\x escape\"",
            "\"short \\u12\"",
            "{} trailing",
            "not json",
            "[1 2]",
            "{1: 2}",
            "-",
            "1.2.3",
        ] {
            let err = parse(bad).expect_err(bad);
            assert!(err.contains("at byte"), "{bad:?}: {err}");
        }
        assert_eq!(parse("{} x").unwrap_err(), "trailing content at byte 3");
    }
}
