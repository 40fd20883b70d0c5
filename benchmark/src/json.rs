//! A JSON writer just large enough for the result line, `results.json` and
//! the Chrome trace (the build has no crates registry, and the repository's
//! serde stand-in has no serializer).

use std::fmt::Write as _;

/// A JSON value. Objects keep insertion order so output is stable.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Bool(bool),
    Int(u64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Serialise on one line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => write!(out, "{i}").expect("writing to a String"),
            // Rust prints the shortest decimal that round-trips, i.e. every
            // measured digit. JSON has no NaN/inf: a non-finite measurement
            // is a harness bug and must not be disguised as a number.
            Json::Num(x) => {
                assert!(x.is_finite(), "non-finite number in JSON output");
                write!(out, "{x}").expect("writing to a String");
            }
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.write(out);
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
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String")
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_the_result_line_shape() {
        let j = Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Int(1000)),
            (
                "metrics",
                Json::obj([(
                    "setup_s",
                    Json::obj([("value", Json::Num(0.8127)), ("unit", Json::str("s"))]),
                )]),
            ),
        ]);
        assert_eq!(
            j.render(),
            r#"{"correct":true,"attempted":1000,"metrics":{"setup_s":{"value":0.8127,"unit":"s"}}}"#
        );
    }

    #[test]
    fn escapes_strings_and_keeps_every_digit() {
        assert_eq!(Json::str("a\"b\\c\n\u{1}").render(), r#""a\"b\\c\n\u0001""#);
        assert_eq!(Json::Num(18312.4567890123).render(), "18312.4567890123");
        assert_eq!(Json::Num(3.0).render(), "3");
        assert_eq!(
            Json::Arr(vec![Json::Int(1), Json::Bool(false)]).render(),
            "[1,false]"
        );
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn refuses_non_finite_numbers() {
        Json::Num(f64::NAN).render();
    }
}
