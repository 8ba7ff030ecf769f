//! Minimal general-purpose JSON reader/writer for the job API.
//!
//! The checkpoint module in `unico-core` deliberately parses only the
//! bit-pattern dialect it writes; the HTTP API instead accepts JSON
//! authored by humans and generic clients (`curl -d '{...}'`), so this
//! parser covers the full grammar: objects, arrays, strings with
//! escapes, `true`/`false`/`null`, and signed decimal numbers with
//! fractions and exponents (held as `f64`, with an exactness check for
//! integer extraction). No external dependencies, consistent with the
//! air-gapped build.

use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (held as a double, like JavaScript).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// The value's JSON type name (for error messages).
    pub fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }

    /// Looks up a field of an object; `None` for absent fields **and**
    /// explicit `null`s (the API treats them identically).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .filter(|v| **v != Json::Null),
            _ => None,
        }
    }

    /// The object's fields, or an error naming `what`.
    pub fn as_obj(&self, what: &str) -> Result<&[(String, Json)], String> {
        match self {
            Json::Obj(fields) => Ok(fields),
            v => Err(format!("{what}: expected object, found {}", v.type_name())),
        }
    }

    /// The array's items, or an error naming `what`.
    pub fn as_arr(&self, what: &str) -> Result<&[Json], String> {
        match self {
            Json::Arr(items) => Ok(items),
            v => Err(format!("{what}: expected array, found {}", v.type_name())),
        }
    }

    /// The string's contents, or an error naming `what`.
    pub fn as_str(&self, what: &str) -> Result<&str, String> {
        match self {
            Json::Str(s) => Ok(s),
            v => Err(format!("{what}: expected string, found {}", v.type_name())),
        }
    }

    /// The boolean, or an error naming `what`.
    pub fn as_bool(&self, what: &str) -> Result<bool, String> {
        match self {
            Json::Bool(b) => Ok(*b),
            v => Err(format!("{what}: expected bool, found {}", v.type_name())),
        }
    }

    /// The number as a double, or an error naming `what`.
    pub fn as_f64(&self, what: &str) -> Result<f64, String> {
        match self {
            Json::Num(n) => Ok(*n),
            v => Err(format!("{what}: expected number, found {}", v.type_name())),
        }
    }

    /// The number as an exact unsigned integer; fractions, negatives
    /// and doubles beyond 2^53 are rejected (they would silently lose
    /// precision).
    pub fn as_u64(&self, what: &str) -> Result<u64, String> {
        let n = self.as_f64(what)?;
        if n < 0.0 || n.fract() != 0.0 || n > 9_007_199_254_740_992.0 {
            return Err(format!("{what}: expected a non-negative integer, got {n}"));
        }
        Ok(n as u64)
    }

    /// [`Json::as_u64`] narrowed to `usize`.
    pub fn as_usize(&self, what: &str) -> Result<usize, String> {
        usize::try_from(self.as_u64(what)?).map_err(|_| format!("{what}: overflows usize"))
    }
}

impl fmt::Display for Json {
    /// Renders the value back to compact JSON.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => write!(f, "null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) if n.is_finite() => write!(f, "{n}"),
            Json::Num(_) => write!(f, "null"),
            Json::Str(s) => write!(f, "{}", escape(s)),
            Json::Arr(items) => {
                write!(f, "[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Json::Obj(fields) => {
                write!(f, "{{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{}:{v}", escape(k))?;
                }
                write!(f, "}}")
            }
        }
    }
}

/// Renders a string as a JSON string literal with escaping.
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

/// Parses a complete JSON document.
///
/// # Errors
///
/// A message with the byte offset of the first syntax error; trailing
/// non-whitespace after the document is rejected.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

/// Nesting depth bound: a parser recursing on attacker-supplied bodies
/// must not be stack-overflowable.
const MAX_DEPTH: usize = 64;

/// The prefix of `bytes` before the next `"`, `\` or control byte: the
/// part of a string body that is copied through unchanged.
fn plain_run(bytes: &[u8]) -> &[u8] {
    let end = bytes
        .iter()
        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
        .unwrap_or(bytes.len());
    &bytes[..end]
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
            Err(format!(
                "expected {:?} at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} levels"));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) if self.eat_literal("null") => Ok(Json::Null),
            Some(_) if self.eat_literal("true") => Ok(Json::Bool(true)),
            Some(_) if self.eat_literal("false") => Ok(Json::Bool(false)),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            fields.push((key, self.value(depth + 1)?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        s.parse::<f64>()
            .ok()
            .filter(|v| v.is_finite())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
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
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'u') => {
                            if self.pos + 4 >= self.bytes.len() {
                                return Err("truncated \\u escape".into());
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .map_err(|_| "non-ascii \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| "bad \\u escape".to_string())?;
                            // Surrogates are replaced rather than paired;
                            // the job API never emits them.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => {
                    return Err(format!("raw control character at byte {}", self.pos))
                }
                Some(_) => {
                    // Copy the whole run up to the next quote, escape or
                    // control byte; validating only the run keeps a
                    // large request body from stalling the poller.
                    let run = plain_run(&self.bytes[self.pos..]);
                    let text = std::str::from_utf8(run)
                        .map_err(|_| "invalid utf-8 in string".to_string())?;
                    out.push_str(text);
                    self.pos += run.len();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parses_the_full_grammar() {
        let v = parse(
            r#"{"a": [1, -2.5, 1e3, true, false, null], "s": "x\n\"y\"", "o": {"k": 0.125}}"#,
        )
        .expect("parses");
        assert_eq!(v.get("a").unwrap().as_arr("a").unwrap().len(), 6);
        assert_eq!(v.get("a").unwrap().as_arr("a").unwrap()[2], Json::Num(1e3));
        assert_eq!(v.get("s").unwrap().as_str("s").unwrap(), "x\n\"y\"");
        assert_eq!(
            v.get("o").unwrap().get("k").unwrap().as_f64("k").unwrap(),
            0.125
        );
        // Explicit null reads as absent.
        assert!(v.get("missing").is_none());
        let n = parse(r#"{"x": null}"#).unwrap();
        assert!(n.get("x").is_none());
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\"}",
            "{\"a\":1} x",
            "\"unterminated",
            "01e",
            "nul",
            "{\"a\":1e999}",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must fail");
        }
        // Nesting bomb is rejected, not a stack overflow.
        let bomb = "[".repeat(100_000) + &"]".repeat(100_000);
        assert!(parse(&bomb).unwrap_err().contains("nesting"));
    }

    #[test]
    fn integer_extraction_is_exact() {
        assert_eq!(parse("42").unwrap().as_u64("n"), Ok(42));
        assert!(parse("-1").unwrap().as_u64("n").is_err());
        assert!(parse("2.5").unwrap().as_u64("n").is_err());
        assert!(parse("1e300").unwrap().as_u64("n").is_err());
        assert_eq!(parse("123456").unwrap().as_usize("n"), Ok(123456));
    }

    #[test]
    fn display_round_trips() {
        let src = r#"{"a":[1,-2.5,true,null],"s":"x\ny \u0001","n":1000}"#;
        let v = parse(src).expect("parses");
        let rendered = v.to_string();
        let back = parse(&rendered).expect("re-parses");
        assert_eq!(back, v);
    }

    #[test]
    fn type_errors_name_the_field() {
        let v = parse(r#"{"a": "text"}"#).unwrap();
        let err = v.get("a").unwrap().as_u64("field a").unwrap_err();
        assert!(err.contains("field a") && err.contains("string"), "{err}");
    }

    /// A 1 MiB string field decodes intact and in linear time. Request
    /// bodies are parsed on the poller thread, so this bounds how long
    /// one large body can hold up every other connection. The bound is
    /// generous on purpose: a quadratic decoder, one that re-validates
    /// the rest of the body per character, takes over 30 s on this
    /// input even in a release build.
    #[test]
    fn scaling_one_mib_string_decodes_linearly() {
        let mut big = String::new();
        for i in 0.. {
            if big.len() >= 1 << 20 {
                break;
            }
            big.push_str(&format!(
                "field {i:07} \u{e9}\u{20ac}\u{1F600}\t\"{}\"\n",
                i % 977
            ));
        }
        let doc = escape(&big);
        let start = std::time::Instant::now();
        let parsed = parse(&doc).expect("parses");
        let took = start.elapsed();
        assert_eq!(parsed, Json::Str(big));
        assert!(took < std::time::Duration::from_secs(5), "took {took:?}");
    }

    /// Characters that stress the string run scanner: plain ASCII, every
    /// byte it stops at, and 2-, 3- and 4-byte scalars.
    const ALPHABET: &str =
        "aZ /\"\\\n\r\t\u{0}\u{8}\u{c}\u{1f}\u{7f}\u{e9}\u{20ac}\u{fffd}\u{1F600}\u{10FFFF}";

    /// Strings over [`ALPHABET`], with an arbitrary scalar value mixed
    /// in one draw in twenty.
    fn text() -> impl Strategy<Value = String> {
        let alphabet: Vec<char> = ALPHABET.chars().collect();
        proptest::collection::vec((0..alphabet.len() + 1, 0u32..0x11_0000), 0..48).prop_map(
            move |picks| {
                picks
                    .into_iter()
                    .map(|(i, c)| {
                        alphabet
                            .get(i)
                            .copied()
                            .unwrap_or_else(|| char::from_u32(c).unwrap_or('\u{fffd}'))
                    })
                    .collect()
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        fn escape_round_trips_through_parse(s in text()) {
            prop_assert_eq!(parse(&escape(&s)), Ok(Json::Str(s.clone())));
        }
    }
}
