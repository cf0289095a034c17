//! A JSON value and its one-line rendering (the container has no serde).

use std::fmt::Write;

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Bool(bool),
    Int(i64),
    /// Rendered with every digit `f64`'s shortest round-trip form has; a
    /// non-finite value (which no metric should produce) renders as `null`.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn str(s: &str) -> Json {
        Json::Str(s.to_string())
    }

    pub fn obj<const N: usize>(fields: [(&str, Json); N]) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// `{"value": v, "unit": unit}` — the shape every metric is printed in.
    pub fn metric(value: f64, unit: &str) -> Json {
        Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => write!(out, "{i}").expect("write to String"),
            Json::Num(n) if n.is_finite() => write!(out, "{n}").expect("write to String"),
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(key, out);
                    out.push_str(": ");
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to String"),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_one_line_with_escapes_and_full_digits() {
        let j = Json::obj([
            ("ok", Json::Bool(true)),
            ("n", Json::Int(-3)),
            ("x", Json::Num(1.2034567891234)),
            ("s", Json::str("a\"b\\c\nd")),
            ("a", Json::Arr(vec![Json::Int(1), Json::Num(f64::NAN)])),
        ]);
        assert_eq!(
            j.render(),
            r#"{"ok": true, "n": -3, "x": 1.2034567891234, "s": "a\"b\\c\nd", "a": [1, null]}"#
        );
        assert_eq!(
            Json::metric(0.5, "ms").render(),
            r#"{"value": 0.5, "unit": "ms"}"#
        );
    }
}
