//! The workspace's one JSON writer: an insertion-ordered value with
//! `Display`.
//!
//! Every report and bench artifact builds a [`Json`] and prints it; nothing
//! assembles JSON text by hand, so escaping and number formatting are
//! decided here once. Output is compact (no whitespace), object keys print
//! in the order they were added, and floats print by Rust's shortest
//! round-trip `{}` — a non-finite float prints `null`, which JSON can hold.
//! The Perfetto exporter in [`crate::trace`] streams its own events and
//! shares only `json_str`.

use std::fmt;

/// A JSON value. Build objects with [`Json::object`] + [`Json::with`] and
/// arrays with [`Json::array`]; scalars convert with `into()`.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    U64(u64),
    I64(i64),
    F64(f64),
    Str(String),
    Array(Vec<Json>),
    Object(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn object() -> Json {
        Json::Object(Vec::new())
    }

    /// Append `key: value` to an object (keys print in insertion order).
    ///
    /// # Panics
    /// If `self` is not an object.
    pub fn with(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Object(fields) => fields.push((key.to_string(), value.into())),
            other => panic!("Json::with on a non-object: {other}"),
        }
        self
    }

    /// An array of anything that converts to a value.
    pub fn array<T: Into<Json>>(items: impl IntoIterator<Item = T>) -> Json {
        Json::Array(items.into_iter().map(Into::into).collect())
    }
}

macro_rules! json_from {
    ($($from:ty => $variant:ident),*) => {$(
        impl From<$from> for Json {
            fn from(v: $from) -> Json {
                Json::$variant(v.into())
            }
        }
    )*};
}
json_from!(bool => Bool, u64 => U64, u32 => U64, i64 => I64, f64 => F64, String => Str);

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::U64(v as u64)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

/// `None` is `null`.
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(v) => write!(f, "{v}"),
            Json::U64(v) => write!(f, "{v}"),
            Json::I64(v) => write!(f, "{v}"),
            Json::F64(v) if v.is_finite() => write!(f, "{v}"),
            Json::F64(_) => f.write_str("null"),
            Json::Str(s) => f.write_str(&json_str(s)),
            Json::Array(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Object(fields) => {
                f.write_str("{")?;
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{}:{value}", json_str(key))?;
                }
                f.write_str("}")
            }
        }
    }
}

/// A quoted JSON string: quotes, backslash and control characters escaped.
pub(crate) fn json_str(s: &str) -> String {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_escape_quotes_backslashes_and_control_characters() {
        assert_eq!(json_str("plain"), "\"plain\"");
        assert_eq!(json_str("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_str("x\ny\r\t\u{1}"), "\"x\\ny\\r\\t\\u0001\"");
        // Keys and values go through the same rule.
        let v = Json::object().with("k\"", "v\\\n");
        assert_eq!(v.to_string(), "{\"k\\\"\":\"v\\\\\\n\"}");
    }

    #[test]
    fn non_finite_floats_print_null() {
        let v = Json::array([f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.5]);
        assert_eq!(v.to_string(), "[null,null,null,0.5]");
    }

    #[test]
    fn floats_print_shortest_round_trip() {
        for x in [0.1, 1.0 / 3.0, 4.61, 1e21, 1e-7, 638.0] {
            let text = Json::from(x).to_string();
            assert_eq!(text.parse::<f64>().unwrap(), x, "{text}");
        }
        assert_eq!(Json::from(0.1).to_string(), "0.1");
    }

    #[test]
    fn object_keys_print_in_insertion_order() {
        let v = Json::object()
            .with("zebra", 1u64)
            .with("apple", -2i64)
            .with("mango", true)
            .with("absent", None::<u64>);
        assert_eq!(
            v.to_string(),
            "{\"zebra\":1,\"apple\":-2,\"mango\":true,\"absent\":null}"
        );
    }

    #[test]
    fn empty_containers_nest() {
        let v = Json::object()
            .with("a", Json::array(Vec::<Json>::new()))
            .with("o", Json::object())
            .with("n", Json::array([Json::object(), Json::Array(vec![])]));
        assert_eq!(v.to_string(), "{\"a\":[],\"o\":{},\"n\":[{},[]]}");
    }
}
