//! The workspace's one JSON writer: insertion-ordered objects, exact
//! integers and RFC 8259 string escapes.
//!
//! The vendored `serde_json` stand-in is a parser only, so every JSON
//! byte the workspace emits — reports and shard artifacts, the farm's
//! wire format, the analyzer CLI's `--json` mode — is written here.
//! Integers render exactly, never through a float path, so counters past
//! 2^53 (sweep cycle totals are `u128`) parse back through the vendored
//! parser on its exact-integer `Number` variants. Floats go through one
//! private serializer, `json_number`.
//!
//! ```
//! use ncdrf::json::{json_array, json_string, JsonObject};
//!
//! let mut o = JsonObject::new();
//! o.string("model", "unified");
//! o.integer("cycles", u128::from(u64::MAX) + 1);
//! o.raw("tags", &json_array(["a\"b"].map(json_string)));
//! assert_eq!(
//!     o.finish(),
//!     r#"{"model":"unified","cycles":18446744073709551616,"tags":["a\"b"]}"#
//! );
//! ```

use std::fmt::Write as _;

/// Incremental `{...}` writer. Members are emitted in insertion order.
pub struct JsonObject {
    body: String,
}

impl Default for JsonObject {
    fn default() -> Self {
        JsonObject::new()
    }
}

impl JsonObject {
    /// Starts an empty object.
    pub fn new() -> Self {
        JsonObject {
            body: String::from("{"),
        }
    }

    fn key(&mut self, key: &str) {
        if self.body.len() > 1 {
            self.body.push(',');
        }
        self.body.push_str(&json_string(key));
        self.body.push(':');
    }

    /// Appends a string member.
    pub fn string(&mut self, key: &str, value: &str) {
        self.key(key);
        self.body.push_str(&json_string(value));
    }

    /// Appends a float member; a non-finite value becomes `null`.
    pub(crate) fn number(&mut self, key: &str, value: f64) {
        self.key(key);
        self.body.push_str(&json_number(value));
    }

    /// Appends an integer member, rendered exactly (never as a float).
    pub fn integer(&mut self, key: &str, value: u128) {
        self.key(key);
        let _ = write!(self.body, "{value}");
    }

    /// Appends a boolean member.
    pub fn boolean(&mut self, key: &str, value: bool) {
        self.key(key);
        let _ = write!(self.body, "{value}");
    }

    /// Appends an array of strings.
    pub(crate) fn string_array(&mut self, key: &str, values: &[String]) {
        self.key(key);
        self.body
            .push_str(&json_array(values.iter().map(|v| json_string(v))));
    }

    /// Appends an array of floats; a non-finite value becomes `null`.
    pub(crate) fn number_array<T: Copy + Into<f64>>(&mut self, key: &str, values: &[T]) {
        self.key(key);
        self.body
            .push_str(&json_array(values.iter().map(|&v| json_number(v.into()))));
    }

    /// Appends an already-serialized JSON value verbatim.
    pub fn raw(&mut self, key: &str, json: &str) {
        self.key(key);
        self.body.push_str(json);
    }

    /// Closes the object and returns its bytes.
    pub fn finish(mut self) -> String {
        self.body.push('}');
        self.body
    }
}

/// Renders `[...]` from already-serialized items.
pub fn json_array<I: IntoIterator<Item = String>>(items: I) -> String {
    let mut out = String::from("[");
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&item);
    }
    out.push(']');
    out
}

/// Renders a float. JSON has no `Infinity`/`NaN` literals, so a
/// non-finite value becomes `null`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// Renders a quoted JSON string: quote, backslash and control
/// characters are escaped, everything else (non-ASCII included) passes
/// through.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::{Number, Value};

    #[test]
    fn escapes_control_quote_and_backslash() {
        assert_eq!(
            json_string("a\"b\\c\nd\re\tf\u{1}"),
            "\"a\\\"b\\\\c\\nd\\re\\tf\\u0001\""
        );
        assert_eq!(json_string("é→"), "\"é→\"");
        // Keys go through the same table as values.
        let mut o = JsonObject::new();
        o.string("k\"ey", "va\\l\nue\t");
        assert_eq!(o.finish(), "{\"k\\\"ey\":\"va\\\\l\\nue\\t\"}");
    }

    #[test]
    fn integers_render_exactly() {
        let mut o = JsonObject::new();
        o.integer("n", u128::from(u64::MAX));
        o.integer("m", u128::MAX);
        assert_eq!(
            o.finish(),
            format!("{{\"n\":{},\"m\":{}}}", u64::MAX, u128::MAX)
        );
    }

    #[test]
    fn non_finite_floats_render_as_null() {
        assert_eq!(json_number(f64::INFINITY), "null");
        assert_eq!(json_number(f64::NAN), "null");
        assert_eq!(json_number(0.5), "0.5");
        let mut o = JsonObject::new();
        o.number("r", f64::NEG_INFINITY);
        o.number_array("p", &[1.5, f64::NAN]);
        assert_eq!(o.finish(), "{\"r\":null,\"p\":[1.5,null]}");
    }

    #[test]
    fn objects_parse_back_with_exact_integers() {
        let mut inner = JsonObject::new();
        inner.integer("cycles", u128::MAX);
        let mut o = JsonObject::new();
        o.integer("task", u128::from(u64::MAX));
        o.string("detail", "loop `x\\2`:\n\"drift\" é");
        o.boolean("clean", false);
        o.string_array("names", &["fig67.json".to_owned()]);
        o.raw("inner", &json_array([inner.finish()]));
        let v = serde_json::from_str(&o.finish()).expect("emitted JSON parses");

        assert_eq!(
            v.get("task"),
            Some(&Value::Number(Number::PosInt(u128::from(u64::MAX))))
        );
        let inner = &v.get("inner").and_then(|a| a.as_array()).unwrap()[0];
        assert_eq!(
            inner.get("cycles"),
            Some(&Value::Number(Number::PosInt(u128::MAX)))
        );
        assert_eq!(
            v.get("detail").and_then(|d| d.as_str()),
            Some("loop `x\\2`:\n\"drift\" é")
        );
        assert_eq!(v.get("clean").and_then(|c| c.as_bool()), Some(false));
        let names = v.get("names").and_then(|n| n.as_array()).unwrap();
        assert_eq!(names[0].as_str(), Some("fig67.json"));
    }
}
