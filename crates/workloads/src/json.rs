//! The workspace's JSON codec: one parser ([`parse`]), one string
//! escaper ([`escape`]) and a compact writer (`Display` on [`Json`]).
//!
//! Every JSON document in the stack goes through this module: run
//! checkpoints (`unico_core::checkpoint`), the job API and cluster wire
//! (`unico_serve`, which re-exports it as `unico_serve::json`), run
//! reports (`unico_search::telemetry`) and the graph form
//! ([`frontend`](crate::frontend)). It fixes the grammar only; each
//! caller keeps its own field-lookup rule and error type.
//!
//! * **Numbers.** An unsigned integer literal (no sign, fraction or
//!   exponent) that fits in 64 bits is held exactly as [`Json::U64`],
//!   parsed digit by digit with no allocation. Checkpoints store every
//!   `f64` as its bit pattern and job seeds use the whole `u64` range, so
//!   a detour through `f64` would corrupt them. Every other number is a
//!   [`Json::F64`].
//! * **Strings.** A plain run up to the next `"`, `\` or control byte is
//!   validated and copied as a whole, so decoding is linear in the
//!   document size. `\uXXXX` escapes join UTF-16 surrogate pairs; a lone
//!   surrogate is an error, since it has no UTF-8 encoding.
//! * **Nesting** is bounded at [`MAX_DEPTH`]: a hostile request body or a
//!   corrupt checkpoint is an error, not a stack overflow.

use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer literal that fits in 64 bits, held exactly.
    U64(u64),
    /// Any other number: a literal with a sign, fraction or exponent, or
    /// an integer beyond `u64::MAX`.
    F64(f64),
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
            Json::U64(_) | Json::F64(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }

    /// Looks up a field of an object; `None` for absent fields **and**
    /// explicit `null`s (the job API treats them identically).
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

    /// The number as a double (integer literals included), or an error
    /// naming `what`.
    pub fn as_f64(&self, what: &str) -> Result<f64, String> {
        match self {
            Json::U64(n) => Ok(*n as f64),
            Json::F64(n) => Ok(*n),
            v => Err(format!("{what}: expected number, found {}", v.type_name())),
        }
    }

    /// The number as an exact unsigned integer. Integer literals are
    /// returned as written; a fractional, negative or out-of-range value
    /// is rejected rather than rounded, as is a non-integer literal
    /// beyond 2^53 (it may already have lost precision).
    pub fn as_u64(&self, what: &str) -> Result<u64, String> {
        match *self {
            Json::U64(n) => Ok(n),
            Json::F64(n) if n >= 0.0 && n.fract() == 0.0 && n <= 9_007_199_254_740_992.0 => {
                Ok(n as u64)
            }
            Json::F64(n) => Err(format!("{what}: expected a non-negative integer, got {n}")),
            ref v => Err(format!("{what}: expected number, found {}", v.type_name())),
        }
    }

    /// [`Json::as_u64`] narrowed to `usize`.
    pub fn as_usize(&self, what: &str) -> Result<usize, String> {
        usize::try_from(self.as_u64(what)?).map_err(|_| format!("{what}: overflows usize"))
    }
}

impl fmt::Display for Json {
    /// Renders the value back to compact JSON; non-finite doubles, which
    /// JSON cannot express, render as `null`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => write!(f, "null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::U64(n) => write!(f, "{n}"),
            Json::F64(n) if n.is_finite() => write!(f, "{n}"),
            Json::F64(_) => write!(f, "null"),
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

/// Renders a string as a JSON string literal: `"` and `\` escaped,
/// `\n`, `\r` and `\t` in short form, other control characters as
/// `\u00XX`, everything else verbatim.
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

/// Nesting depth bound: far above the few levels any document in the
/// workspace uses, far below what would overflow the call stack of a
/// thread parsing untrusted input.
pub const MAX_DEPTH: usize = 64;

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

    fn skip_digits(&mut self) {
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
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

    /// An integer literal is accumulated into a `u64` as its digits are
    /// scanned; only a sign, fraction, exponent or overflow sends the
    /// literal through the `f64` parser.
    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        let signed = self.peek() == Some(b'-');
        if signed {
            self.pos += 1;
        }
        let digits = self.pos;
        let mut exact = Some(0u64);
        while let Some(d @ b'0'..=b'9') = self.peek() {
            exact = exact.and_then(|n| n.checked_mul(10)?.checked_add(u64::from(d - b'0')));
            self.pos += 1;
        }
        if self.pos == digits {
            return Err(format!("bad number at byte {start}"));
        }
        let mut integral = !signed;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            self.skip_digits();
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.skip_digits();
        }
        if let (true, Some(n)) = (integral, exact) {
            return Ok(Json::U64(n));
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        s.parse::<f64>()
            .ok()
            .filter(|v| v.is_finite())
            .map(Json::F64)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    /// Four hex digits at the cursor, consumed.
    fn hex4(&mut self) -> Result<u32, String> {
        let at = self.pos;
        let digits = self
            .bytes
            .get(at..at + 4)
            .ok_or_else(|| "truncated \\u escape".to_string())?;
        let mut code = 0;
        for &d in digits {
            let v = (d as char)
                .to_digit(16)
                .ok_or_else(|| format!("bad \\u escape at byte {at}"))?;
            code = code * 16 + v;
        }
        self.pos += 4;
        Ok(code)
    }

    /// Decodes the body of a `\uXXXX` escape (cursor just past the `u`),
    /// joining a UTF-16 surrogate pair into one scalar.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let at = self.pos;
        let hi = self.hex4()?;
        if !(0xD800..=0xDFFF).contains(&hi) {
            return Ok(char::from_u32(hi).expect("not a surrogate"));
        }
        let lone = || format!("lone surrogate \\u{hi:04x} at byte {at}");
        if hi >= 0xDC00 || !self.bytes[self.pos..].starts_with(b"\\u") {
            return Err(lone());
        }
        self.pos += 2;
        let lo = self.hex4()?;
        if !(0xDC00..=0xDFFF).contains(&lo) {
            return Err(lone());
        }
        let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
        Ok(char::from_u32(code).expect("a surrogate pair decodes to a scalar"))
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
                    let c = match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'b') => '\u{0008}',
                        Some(b'f') => '\u{000c}',
                        Some(b'u') => {
                            self.pos += 1;
                            out.push(self.unicode_escape()?);
                            continue;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    };
                    out.push(c);
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => {
                    return Err(format!("raw control character at byte {}", self.pos))
                }
                Some(_) => {
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
        let a = v.get("a").unwrap().as_arr("a").unwrap();
        assert_eq!(a.len(), 6);
        assert_eq!(a[0], Json::U64(1));
        assert_eq!(a[1], Json::F64(-2.5));
        assert_eq!(a[2], Json::F64(1e3));
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
            "-",
            "-x",
            "nul",
            "{\"a\":1e999}",
            "\"bad \\q escape\"",
            "\"raw \u{1} control\"",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must fail");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let bomb = "[".repeat(100_000) + &"]".repeat(100_000);
        assert!(parse(&bomb).unwrap_err().contains("nesting"));
        // A value may sit at most MAX_DEPTH containers deep.
        let nested = |levels: usize| "[".repeat(levels) + "0" + &"]".repeat(levels);
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        assert!(parse(&nested(MAX_DEPTH + 1))
            .unwrap_err()
            .contains("nesting"));
    }

    #[test]
    fn integer_extraction_is_exact() {
        assert_eq!(parse("42").unwrap().as_u64("n"), Ok(42));
        assert!(parse("-1").unwrap().as_u64("n").is_err());
        assert!(parse("2.5").unwrap().as_u64("n").is_err());
        assert!(parse("1e300").unwrap().as_u64("n").is_err());
        assert_eq!(parse("123456").unwrap().as_usize("n"), Ok(123456));
        // Past 2^53 a double would round; integer literals do not.
        assert_eq!(
            parse("9007199254740993").unwrap().as_u64("n"),
            Ok(9_007_199_254_740_993)
        );
        assert_eq!(
            parse("18446744073709551615").unwrap().as_u64("n"),
            Ok(u64::MAX)
        );
        // One past u64::MAX is an error, never truncated or saturated.
        let over = parse("18446744073709551616").unwrap();
        assert!(matches!(over, Json::F64(_)));
        let err = over.as_u64("seed").unwrap_err();
        assert!(err.contains("seed"), "{err}");
    }

    #[test]
    fn as_f64_accepts_every_spelling() {
        for (src, want) in [("0", 0.0), ("0.0", 0.0), ("1e3", 1000.0), ("1000", 1000.0)] {
            assert_eq!(parse(src).unwrap().as_f64(src), Ok(want), "{src}");
        }
        assert_eq!(
            parse("-0").unwrap().as_f64("n").unwrap().to_bits(),
            (-0.0f64).to_bits()
        );
    }

    #[test]
    fn display_round_trips() {
        let src = r#"{"a":[1,-2.5,true,null],"s":"x\ny \u0001","n":18446744073709551615}"#;
        let v = parse(src).expect("parses");
        let rendered = v.to_string();
        assert_eq!(rendered, src);
        assert_eq!(parse(&rendered), Ok(v));
        // JSON cannot express non-finite doubles.
        for n in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Json::F64(n).to_string(), "null");
        }
    }

    #[test]
    fn type_errors_name_the_field() {
        let v = parse(r#"{"a": "text"}"#).unwrap();
        let err = v.get("a").unwrap().as_u64("field a").unwrap_err();
        assert!(err.contains("field a") && err.contains("string"), "{err}");
    }

    /// A JSON string literal the way an external writer might emit it:
    /// quotes, backslashes and control characters always escaped, in
    /// short form where one exists; with `ensure_ascii` every non-ASCII
    /// scalar becomes `\uXXXX` (a surrogate pair above the BMP), as in
    /// Python's default `json.dumps`.
    fn quote(s: &str, ensure_ascii: bool) -> String {
        let mut out = String::from("\"");
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                '\u{8}' => out.push_str("\\b"),
                '\u{c}' => out.push_str("\\f"),
                c if c < ' ' || (ensure_ascii && !c.is_ascii()) => {
                    let mut units = [0u16; 2];
                    for u in c.encode_utf16(&mut units) {
                        out.push_str(&format!("\\u{u:04x}"));
                    }
                }
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    /// Parses a string literal written with `~` standing for the two
    /// characters that open a `\u` escape.
    fn string_of(doc: &str) -> Result<String, String> {
        parse(&doc.replace('~', "\\u"))?
            .as_str("doc")
            .map(str::to_string)
    }

    #[test]
    fn standard_escapes_decode() {
        assert_eq!(
            string_of(r#""conv_~00e9~20ac~d83d~de00 \b\f\/~0041""#).unwrap(),
            "conv_\u{e9}\u{20ac}\u{1F600} \u{8}\u{c}/A"
        );
        // Upper-case hex digits are accepted too.
        assert_eq!(string_of(r#""~D83D~DE00""#).unwrap(), "\u{1F600}");
    }

    #[test]
    fn lone_surrogates_and_bad_unicode_escapes_are_rejected() {
        for bad in [
            r#""~d83d""#,      // high surrogate, string ends
            r#""~d83dx""#,     // high surrogate, plain text follows
            r#""~d83d~0041""#, // high surrogate, non-surrogate follows
            r#""~d83d~d83d""#, // two high surrogates
            r#""~de00""#,      // low surrogate first
            r#""~12""#,        // too few digits
            r#""~12g4""#,      // not hex
            r#""~+123""#,      // sign is not a digit
            r#""~"#,           // truncated document
        ] {
            assert!(string_of(bad).is_err(), "{bad} must fail");
        }
        let msg = string_of(r#""~de00""#).unwrap_err();
        assert!(msg.contains("lone surrogate"), "{msg}");
    }

    /// A 1 MiB string (the size of a checkpoint's embedded cache trace or
    /// a large request body) decodes intact and in linear time. The bound
    /// is generous on purpose: a quadratic decoder, one that re-validates
    /// the rest of the document per character, takes over 30 s on this
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

    /// Bit patterns of special doubles: NaNs, infinities, signed zeros,
    /// subnormals and the extremes of the normal range.
    const SPECIAL_BITS: [u64; 10] = [
        0x7FF8_0000_0000_0000, // quiet NaN
        0xFFF8_0000_0000_0001, // negative NaN with payload
        0x7FF0_0000_0000_0000, // +inf
        0xFFF0_0000_0000_0000, // -inf
        0x8000_0000_0000_0000, // -0.0
        0x0000_0000_0000_0001, // smallest subnormal
        0x000F_FFFF_FFFF_FFFF, // largest subnormal
        0x0010_0000_0000_0000, // smallest normal
        0x7FEF_FFFF_FFFF_FFFF, // f64::MAX
        u64::MAX,
    ];

    #[test]
    fn special_float_bit_patterns_round_trip() {
        for bits in SPECIAL_BITS {
            let back = parse(&format!("[{bits}]")).unwrap().as_arr("row").unwrap()[0]
                .as_u64("bits")
                .unwrap();
            assert_eq!(back, bits);
            assert_eq!(f64::from_bits(back).to_bits(), bits);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn escape_round_trips_through_parse(s in text()) {
            prop_assert_eq!(parse(&escape(&s)), Ok(Json::Str(s.clone())));
        }

        #[test]
        fn external_writer_round_trips_through_parse(s in text(), ascii in 0u8..2) {
            prop_assert_eq!(parse(&quote(&s, ascii == 1)), Ok(Json::Str(s.clone())));
        }

        #[test]
        fn every_u64_literal_round_trips_exactly(n in 0u64..=u64::MAX, f in -1e300f64..1e300) {
            for bits in [n, f.to_bits(), (f * 1e-310).to_bits()] {
                let v = parse(&bits.to_string()).unwrap();
                prop_assert_eq!(&v, &Json::U64(bits));
                prop_assert_eq!(v.to_string(), bits.to_string());
            }
        }
    }
}
