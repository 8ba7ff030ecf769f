//! Human-writable JSON graph form.
//!
//! The second frontend format is a JSON document mirroring the graph
//! IR one-to-one, for hand-authoring networks and for service clients
//! that would rather not emit protobuf. Schema (all tensor dims are
//! integers; `-1` marks a symbolic dim):
//!
//! ```json
//! {
//!   "name": "tiny-cnn",
//!   "inputs":       [{"name": "x", "dims": [1, 3, 32, 32]}],
//!   "initializers": [{"name": "w1", "dims": [16, 3, 3, 3]},
//!                    {"name": "shape", "dims": [2], "int_data": [1, -1]}],
//!   "nodes": [
//!     {"op": "Conv", "name": "conv1",
//!      "inputs": ["x", "w1"], "outputs": ["t1"],
//!      "attrs": {"strides": [1, 1], "pads": [1, 1, 1, 1], "group": 1}}
//!   ],
//!   "outputs": ["t1"]
//! }
//! ```
//!
//! `attrs` values may be an integer, an integer array, a float, or a
//! string — the same four kinds the wire form models. This module
//! carries its own tiny JSON reader: `unico_workloads` sits below the
//! service crate in the dependency graph, so it cannot borrow the job
//! API's parser, and the grammar needed here (objects, arrays,
//! strings, numbers) is small.

use super::graph::{Attr, AttrValue, GraphIr, Node, Tensor};
use super::FrontendError;

fn err(msg: impl Into<String>) -> FrontendError {
    FrontendError::Json(msg.into())
}

/// Parses the JSON graph form into the IR.
pub fn parse_graph_json(text: &str) -> Result<GraphIr, FrontendError> {
    let value = parse_value(text)?;
    let obj = value.as_obj("graph")?;
    let mut g = GraphIr {
        name: get_str(obj, "name")?.unwrap_or_default(),
        inputs: Vec::new(),
        initializers: Vec::new(),
        nodes: Vec::new(),
        outputs: Vec::new(),
    };
    for item in get_arr(obj, "inputs")?.unwrap_or_default() {
        g.inputs.push(tensor_from(item, "inputs[]")?);
    }
    for item in get_arr(obj, "initializers")?.unwrap_or_default() {
        g.initializers.push(tensor_from(item, "initializers[]")?);
    }
    for item in get_arr(obj, "nodes")?.unwrap_or_default() {
        g.nodes.push(node_from(item)?);
    }
    for item in get_arr(obj, "outputs")?.unwrap_or_default() {
        g.outputs.push(item.as_str("outputs[]")?.to_string());
    }
    Ok(g)
}

fn tensor_from(v: &Value, what: &str) -> Result<Tensor, FrontendError> {
    let obj = v.as_obj(what)?;
    Ok(Tensor {
        name: get_str(obj, "name")?.ok_or_else(|| err(format!("{what}: missing name")))?,
        dims: get_ints(obj, "dims")?.unwrap_or_default(),
        int_data: get_ints(obj, "int_data")?.unwrap_or_default(),
    })
}

fn node_from(v: &Value) -> Result<Node, FrontendError> {
    let obj = v.as_obj("nodes[]")?;
    let op_type = get_str(obj, "op")?.ok_or_else(|| err("nodes[]: missing op"))?;
    let mut node = Node {
        name: get_str(obj, "name")?.unwrap_or_default(),
        op_type,
        inputs: Vec::new(),
        outputs: Vec::new(),
        attrs: Vec::new(),
    };
    for item in get_arr(obj, "inputs")?.unwrap_or_default() {
        node.inputs.push(item.as_str("inputs[]")?.to_string());
    }
    for item in get_arr(obj, "outputs")?.unwrap_or_default() {
        node.outputs.push(item.as_str("outputs[]")?.to_string());
    }
    if let Some(attrs) = find(obj, "attrs") {
        for (name, value) in attrs.as_obj("attrs")? {
            node.attrs.push(Attr {
                name: name.clone(),
                value: attr_value_from(name, value)?,
            });
        }
    }
    Ok(node)
}

fn attr_value_from(name: &str, v: &Value) -> Result<AttrValue, FrontendError> {
    match v {
        Value::Num(n) if n.fract() == 0.0 && n.abs() < 9.0e15 => Ok(AttrValue::Int(*n as i64)),
        Value::Num(n) => Ok(AttrValue::Float(*n as f32)),
        Value::Str(s) => Ok(AttrValue::Str(s.clone())),
        Value::Arr(items) => {
            let mut ints = Vec::with_capacity(items.len());
            for item in items {
                ints.push(item.as_int(&format!("attr {name:?} element"))?);
            }
            Ok(AttrValue::Ints(ints))
        }
        other => Err(err(format!(
            "attr {name:?}: expected number, string or integer array, found {}",
            other.kind()
        ))),
    }
}

// --- schema helpers over the generic value --------------------------------

fn find<'a>(obj: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn get_str(obj: &[(String, Value)], key: &str) -> Result<Option<String>, FrontendError> {
    find(obj, key)
        .map(|v| v.as_str(key).map(str::to_string))
        .transpose()
}

fn get_arr<'a>(
    obj: &'a [(String, Value)],
    key: &str,
) -> Result<Option<&'a [Value]>, FrontendError> {
    find(obj, key).map(|v| v.as_arr(key)).transpose()
}

fn get_ints(obj: &[(String, Value)], key: &str) -> Result<Option<Vec<i64>>, FrontendError> {
    match find(obj, key) {
        None => Ok(None),
        Some(v) => {
            let items = v.as_arr(key)?;
            let mut out = Vec::with_capacity(items.len());
            for item in items {
                out.push(item.as_int(&format!("{key}[]"))?);
            }
            Ok(Some(out))
        }
    }
}

// --- the tiny JSON reader --------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Num(_) => "number",
            Value::Str(_) => "string",
            Value::Arr(_) => "array",
            Value::Obj(_) => "object",
        }
    }

    fn as_obj(&self, what: &str) -> Result<&[(String, Value)], FrontendError> {
        match self {
            Value::Obj(fields) => Ok(fields),
            v => Err(err(format!("{what}: expected object, found {}", v.kind()))),
        }
    }

    fn as_arr(&self, what: &str) -> Result<&[Value], FrontendError> {
        match self {
            Value::Arr(items) => Ok(items),
            v => Err(err(format!("{what}: expected array, found {}", v.kind()))),
        }
    }

    fn as_str(&self, what: &str) -> Result<&str, FrontendError> {
        match self {
            Value::Str(s) => Ok(s),
            v => Err(err(format!("{what}: expected string, found {}", v.kind()))),
        }
    }

    fn as_int(&self, what: &str) -> Result<i64, FrontendError> {
        match self {
            Value::Num(n) if n.fract() == 0.0 && n.abs() < 9.0e15 => Ok(*n as i64),
            v => Err(err(format!("{what}: expected integer, found {}", v.kind()))),
        }
    }
}

/// Recursion bound: parse of untrusted text must not overflow the stack.
const MAX_DEPTH: usize = 64;

fn parse_value(text: &str) -> Result<Value, FrontendError> {
    let mut p = Cursor {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(err(format!("trailing garbage at byte {}", p.pos)));
    }
    Ok(v)
}

/// The prefix of `bytes` before the next `"`, `\` or control byte: the
/// part of a string body that is copied through unchanged.
fn plain_run(bytes: &[u8]) -> &[u8] {
    let end = bytes
        .iter()
        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
        .unwrap_or(bytes.len());
    &bytes[..end]
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), FrontendError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(err(format!(
                "expected {:?} at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_lit(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, FrontendError> {
        if depth > MAX_DEPTH {
            return Err(err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) if self.eat_lit("null") => Ok(Value::Null),
            Some(_) if self.eat_lit("true") => Ok(Value::Bool(true)),
            Some(_) if self.eat_lit("false") => Ok(Value::Bool(false)),
            _ => Err(err(format!("unexpected input at byte {}", self.pos))),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, FrontendError> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            fields.push((key, self.value(depth + 1)?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(err(format!("expected ',' or '}}' at byte {}", self.pos))),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, FrontendError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(err(format!("expected ',' or ']' at byte {}", self.pos))),
            }
        }
    }

    fn number(&mut self) -> Result<Value, FrontendError> {
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
            .map(Value::Num)
            .ok_or_else(|| err(format!("bad number at byte {start}")))
    }

    /// Four hex digits at the cursor, consumed.
    fn hex4(&mut self) -> Result<u32, FrontendError> {
        let at = self.pos;
        let digits = self
            .bytes
            .get(at..at + 4)
            .ok_or_else(|| err("truncated \\u escape"))?;
        let mut code = 0;
        for &d in digits {
            let v = (d as char)
                .to_digit(16)
                .ok_or_else(|| err(format!("bad \\u escape at byte {at}")))?;
            code = code * 16 + v;
        }
        self.pos += 4;
        Ok(code)
    }

    /// Decodes the body of a `\uXXXX` escape (cursor just past the
    /// `u`), joining a UTF-16 surrogate pair into one scalar. A lone
    /// surrogate is an error: it has no UTF-8 encoding.
    fn unicode_escape(&mut self) -> Result<char, FrontendError> {
        let at = self.pos;
        let hi = self.hex4()?;
        if !(0xD800..=0xDFFF).contains(&hi) {
            return Ok(char::from_u32(hi).expect("not a surrogate"));
        }
        let lone = || err(format!("lone surrogate \\u{hi:04x} at byte {at}"));
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

    fn string(&mut self) -> Result<String, FrontendError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(err("unterminated string")),
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
                            self.pos += 1;
                            out.push(self.unicode_escape()?);
                            continue;
                        }
                        _ => return Err(err(format!("bad escape at byte {}", self.pos))),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => {
                    return Err(err(format!("raw control character at byte {}", self.pos)))
                }
                Some(_) => {
                    // Copy the whole run up to the next quote, escape or
                    // control byte; validating only the run keeps the
                    // decode linear in the document size.
                    let run = plain_run(&self.bytes[self.pos..]);
                    let text =
                        std::str::from_utf8(run).map_err(|_| err("invalid utf-8 in string"))?;
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
    fn parses_the_schema() {
        let g = parse_graph_json(
            r#"{
              "name": "t",
              "inputs": [{"name": "x", "dims": [1, 3, 8, 8]}],
              "initializers": [{"name": "w", "dims": [4, 3, 3, 3]},
                               {"name": "shape", "dims": [2], "int_data": [1, -1]}],
              "nodes": [{"op": "Conv", "name": "c0",
                         "inputs": ["x", "w"], "outputs": ["y"],
                         "attrs": {"strides": [2, 2], "group": 1, "alpha": 0.5,
                                   "mode": "same"}}],
              "outputs": ["y"]
            }"#,
        )
        .expect("parses");
        assert_eq!(g.name, "t");
        assert_eq!(g.inputs[0].dims, vec![1, 3, 8, 8]);
        assert_eq!(g.initializer("shape").unwrap().int_data, vec![1, -1]);
        let node = &g.nodes[0];
        assert_eq!(node.attr_ints("strides"), Some(&[2, 2][..]));
        assert_eq!(node.attr_int("group"), Some(1));
        assert!(node
            .attrs
            .iter()
            .any(|a| matches!(a.value, AttrValue::Float(f) if f == 0.5)));
        assert!(node
            .attrs
            .iter()
            .any(|a| matches!(&a.value, AttrValue::Str(s) if s == "same")));
    }

    #[test]
    fn malformed_json_is_a_typed_error() {
        for bad in [
            "",
            "{",
            "not json",
            r#"{"nodes": [{"inputs": ["x"]}]}"#, // missing op
            r#"{"inputs": [{"dims": [1]}]}"#,    // missing name
            r#"{"inputs": [{"name": "x", "dims": [1.5]}]}"#,
            r#"{"nodes": 3}"#,
            r#"{"outputs": [7]}"#,
        ] {
            match parse_graph_json(bad) {
                Err(FrontendError::Json(_)) => {}
                other => panic!("{bad:?}: expected Json error, got {other:?}"),
            }
        }
        let bomb = "[".repeat(100_000);
        assert!(parse_graph_json(&bomb).is_err());
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

    fn graph_name(doc: &str) -> Result<String, FrontendError> {
        parse_graph_json(doc).map(|g| g.name)
    }

    #[test]
    fn standard_escapes_decode() {
        let doc = r#"{"name": "conv_\u00e9\u20ac\ud83d\ude00 \b\f\/\u0041"}"#;
        assert_eq!(
            graph_name(doc).unwrap(),
            "conv_\u{e9}\u{20ac}\u{1F600} \u{8}\u{c}/A"
        );
        // Upper-case hex digits are accepted too.
        assert_eq!(
            graph_name(r#"{"name": "\uD83D\uDE00"}"#).unwrap(),
            "\u{1F600}"
        );
        // Python's default `json.dumps` output imports.
        let node_doc = format!(
            r#"{{"nodes": [{{"op": "Relu", "name": {}, "inputs": ["x"], "outputs": ["y"]}}]}}"#,
            quote("relu_\u{e9}t\u{e9}_\u{1F600}", true)
        );
        let g = parse_graph_json(&node_doc).expect("ensure_ascii names import");
        assert_eq!(g.nodes[0].name, "relu_\u{e9}t\u{e9}_\u{1F600}");
    }

    #[test]
    fn lone_surrogates_and_bad_unicode_escapes_are_typed_errors() {
        for bad in [
            r#"{"name": "\ud83d"}"#,       // high surrogate, string ends
            r#"{"name": "\ud83dx"}"#,      // high surrogate, plain text follows
            r#"{"name": "\ud83d\u0041"}"#, // high surrogate, non-surrogate follows
            r#"{"name": "\ud83d\ud83d"}"#, // two high surrogates
            r#"{"name": "\ude00"}"#,       // low surrogate first
            r#"{"name": "\u12"}"#,         // too few digits
            r#"{"name": "\u12g4"}"#,       // not hex
            r#"{"name": "\u+123"}"#,       // sign is not a digit
            r#"{"name": "\u"#,             // truncated document
        ] {
            match graph_name(bad) {
                Err(FrontendError::Json(_)) => {}
                other => panic!("{bad:?}: expected Json error, got {other:?}"),
            }
        }
        let msg = graph_name(r#"{"name": "\ude00"}"#).unwrap_err().to_string();
        assert!(msg.contains("lone surrogate"), "{msg}");
    }

    /// A 1 MiB graph name decodes intact and in linear time. The bound
    /// is generous on purpose: a quadratic decoder, one that
    /// re-validates the rest of the document per character, takes over
    /// 30 s on this input even in a release build.
    #[test]
    fn scaling_one_mib_string_decodes_linearly() {
        let mut big = String::new();
        for i in 0.. {
            if big.len() >= 1 << 20 {
                break;
            }
            big.push_str(&format!(
                "node {i:07} \u{e9}\u{20ac}\u{1F600}\t{}\n",
                i % 977
            ));
        }
        let doc = format!("{{\"name\": {}}}", quote(&big, false));
        let start = std::time::Instant::now();
        let name = graph_name(&doc).expect("parses");
        let took = start.elapsed();
        assert_eq!(name, big);
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

        fn graph_name_round_trips_through_parse(s in text(), ascii in 0u8..2) {
            let doc = format!("{{\"name\": {}}}", quote(&s, ascii == 1));
            prop_assert_eq!(graph_name(&doc).expect("parses"), s);
        }
    }
}
