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
//! string — the same four kinds the wire form models. A field that is
//! present must have its schema type: `null` is a type error, not an
//! absent field.

use super::graph::{Attr, AttrValue, GraphIr, Node, Tensor};
use super::FrontendError;
use crate::json::{self, Json};

/// Parses the JSON graph form into the IR.
pub fn parse_graph_json(text: &str) -> Result<GraphIr, FrontendError> {
    json::parse(text)
        .and_then(|value| graph_from(&value))
        .map_err(FrontendError::Json)
}

fn graph_from(value: &Json) -> Result<GraphIr, String> {
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

fn tensor_from(v: &Json, what: &str) -> Result<Tensor, String> {
    let obj = v.as_obj(what)?;
    Ok(Tensor {
        name: get_str(obj, "name")?.ok_or_else(|| format!("{what}: missing name"))?,
        dims: get_ints(obj, "dims")?.unwrap_or_default(),
        int_data: get_ints(obj, "int_data")?.unwrap_or_default(),
    })
}

fn node_from(v: &Json) -> Result<Node, String> {
    let obj = v.as_obj("nodes[]")?;
    let op_type = get_str(obj, "op")?.ok_or("nodes[]: missing op")?;
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

/// A number is an `Int` when its value is integral and exactly
/// representable, whatever its spelling (`2`, `2.0` and `2e0` agree).
fn attr_value_from(name: &str, v: &Json) -> Result<AttrValue, String> {
    match v {
        Json::U64(_) | Json::F64(_) => {
            let n = v.as_f64(name)?;
            Ok(exact_int(n).map_or(AttrValue::Float(n as f32), AttrValue::Int))
        }
        Json::Str(s) => Ok(AttrValue::Str(s.clone())),
        Json::Arr(items) => {
            let mut ints = Vec::with_capacity(items.len());
            for item in items {
                ints.push(as_int(item, &format!("attr {name:?} element"))?);
            }
            Ok(AttrValue::Ints(ints))
        }
        other => Err(format!(
            "attr {name:?}: expected number, string or integer array, found {}",
            other.type_name()
        )),
    }
}

// --- schema helpers over the generic value --------------------------------

/// `n` as an `i64` when it is integral and well inside the exact range
/// of a double.
fn exact_int(n: f64) -> Option<i64> {
    (n.fract() == 0.0 && n.abs() < 9.0e15).then_some(n as i64)
}

fn as_int(v: &Json, what: &str) -> Result<i64, String> {
    v.as_f64(what)
        .ok()
        .and_then(exact_int)
        .ok_or_else(|| format!("{what}: expected integer, found {}", v.type_name()))
}

/// The field's value, `null` included.
fn find<'a>(obj: &'a [(String, Json)], key: &str) -> Option<&'a Json> {
    obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn get_str(obj: &[(String, Json)], key: &str) -> Result<Option<String>, String> {
    find(obj, key)
        .map(|v| v.as_str(key).map(str::to_string))
        .transpose()
}

fn get_arr<'a>(obj: &'a [(String, Json)], key: &str) -> Result<Option<&'a [Json]>, String> {
    find(obj, key).map(|v| v.as_arr(key)).transpose()
}

fn get_ints(obj: &[(String, Json)], key: &str) -> Result<Option<Vec<i64>>, String> {
    find(obj, key)
        .map(|v| {
            v.as_arr(key)?
                .iter()
                .map(|item| as_int(item, &format!("{key}[]")))
                .collect()
        })
        .transpose()
}

#[cfg(test)]
mod tests {
    use super::*;

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
            r#"{"name": null}"#, // present fields must have their type
        ] {
            match parse_graph_json(bad) {
                Err(FrontendError::Json(_)) => {}
                other => panic!("{bad:?}: expected Json error, got {other:?}"),
            }
        }
        let bomb = "[".repeat(100_000);
        assert!(parse_graph_json(&bomb).is_err());
    }

    fn graph_name(doc: &str) -> Result<String, FrontendError> {
        parse_graph_json(doc).map(|g| g.name)
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
}
