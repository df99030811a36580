//! Offline stand-in for `serde_json` (1.x API subset), built on the
//! shim `serde` crate's [`Value`] model: a recursive-descent JSON
//! parser, compact and pretty printers, and a `json!` macro covering
//! object/array literals with expression values.

mod parse;
mod print;

use std::fmt;

pub use serde::value::{Number, Value};

/// Parse or conversion failure with a human-readable message.
#[derive(Debug, Clone)]
pub struct Error(String);

impl Error {
    pub(crate) fn new(msg: impl fmt::Display) -> Self {
        Error(msg.to_string())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl From<serde::de::Error> for Error {
    fn from(e: serde::de::Error) -> Self {
        Error(e.to_string())
    }
}

/// Deserializes a value of type `T` from JSON text.
pub fn from_str<T: serde::Deserialize>(text: &str) -> Result<T, Error> {
    let value = parse::parse(text)?;
    Ok(T::from_value(&value)?)
}

/// Renders `value` into a [`Value`] tree (the `json!` macro's escape
/// hatch for interpolated expressions).
pub fn to_value<T: serde::Serialize + ?Sized>(value: &T) -> Value {
    value.to_value()
}

/// Serializes `value` to compact JSON text.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(print::compact(&value.to_value()))
}

/// Serializes `value` to human-indented JSON text.
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(print::pretty(&value.to_value()))
}

/// Builds a [`Value`] from a JSON-shaped literal.
///
/// Supports `null`, nested array and object literals (string-literal
/// keys), and arbitrary expression values converted through
/// [`serde::Serialize`].
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([ $($tt:tt)* ]) => { $crate::json_array!([] $($tt)*) };
    ({ $($tt:tt)* }) => { $crate::json_object!({} $($tt)*) };
    ($other:expr) => { $crate::to_value(&$other) };
}

/// Accumulating muncher behind `json!`'s array form. The bracketed
/// accumulator holds finished element expressions; each arm peels one
/// element (special-casing `null` and nested literals, which are not
/// Rust expressions of the right type) plus its optional comma.
#[doc(hidden)]
#[macro_export]
macro_rules! json_array {
    ([ $($elems:expr,)* ]) => {
        $crate::Value::Array(::std::vec![$($elems),*])
    };
    ([ $($elems:expr,)* ] null $(, $($rest:tt)*)?) => {
        $crate::json_array!([ $($elems,)* $crate::Value::Null, ] $($($rest)*)?)
    };
    ([ $($elems:expr,)* ] [ $($arr:tt)* ] $(, $($rest:tt)*)?) => {
        $crate::json_array!([ $($elems,)* $crate::json!([ $($arr)* ]), ] $($($rest)*)?)
    };
    ([ $($elems:expr,)* ] { $($obj:tt)* } $(, $($rest:tt)*)?) => {
        $crate::json_array!([ $($elems,)* $crate::json!({ $($obj)* }), ] $($($rest)*)?)
    };
    ([ $($elems:expr,)* ] $next:expr $(, $($rest:tt)*)?) => {
        $crate::json_array!([ $($elems,)* $crate::to_value(&$next), ] $($($rest)*)?)
    };
}

/// Accumulating muncher behind `json!`'s object form; same scheme as
/// [`json_array!`] with `key => value,` pairs in the accumulator.
#[doc(hidden)]
#[macro_export]
macro_rules! json_object {
    ({ $($k:expr => $v:expr,)* }) => {{
        #[allow(unused_mut)]
        let mut __m = ::std::collections::BTreeMap::<::std::string::String, $crate::Value>::new();
        $( __m.insert(::std::string::String::from($k), $v); )*
        $crate::Value::Object(__m)
    }};
    ({ $($pairs:tt)* } $key:literal : null $(, $($rest:tt)*)?) => {
        $crate::json_object!({ $($pairs)* $key => $crate::Value::Null, } $($($rest)*)?)
    };
    ({ $($pairs:tt)* } $key:literal : [ $($arr:tt)* ] $(, $($rest:tt)*)?) => {
        $crate::json_object!({ $($pairs)* $key => $crate::json!([ $($arr)* ]), } $($($rest)*)?)
    };
    ({ $($pairs:tt)* } $key:literal : { $($obj:tt)* } $(, $($rest:tt)*)?) => {
        $crate::json_object!({ $($pairs)* $key => $crate::json!({ $($obj)* }), } $($($rest)*)?)
    };
    ({ $($pairs:tt)* } $key:literal : $value:expr $(, $($rest:tt)*)?) => {
        $crate::json_object!({ $($pairs)* $key => $crate::to_value(&$value), } $($($rest)*)?)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars() {
        assert_eq!(from_str::<u64>("18446744073709551615").unwrap(), u64::MAX);
        assert_eq!(from_str::<i64>("-42").unwrap(), -42);
        assert!((from_str::<f64>("0.25").unwrap() - 0.25).abs() < 1e-12);
        assert!(from_str::<bool>("true").unwrap());
        assert_eq!(from_str::<String>(r#""a\nb\u0041""#).unwrap(), "a\nbA");
        assert!(from_str::<u64>("{").is_err());
        assert!(from_str::<u64>("1 2").is_err());
    }

    #[test]
    fn round_trips_collections() {
        let v: Vec<u32> = from_str("[1, 2, 3]").unwrap();
        assert_eq!(v, vec![1, 2, 3]);
        let text = to_string(&v).unwrap();
        assert_eq!(text, "[1,2,3]");
        let m: std::collections::BTreeMap<String, f64> =
            from_str(r#"{"a": 1.5, "b": -2}"#).unwrap();
        assert_eq!(m["a"], 1.5);
        assert_eq!(m["b"], -2.0);
    }

    #[test]
    fn float_text_round_trip_is_exact() {
        for x in [0.1f64, 1.0, 1e-9, 123456.789, 2.5e-7] {
            let text = to_string(&x).unwrap();
            let back: f64 = from_str(&text).unwrap();
            assert_eq!(back, x, "{text}");
        }
    }

    #[test]
    fn json_macro_shapes() {
        let names = ["a", "b"];
        let v = json!({
            "n": 3,
            "pi": 3.5,
            "names": names.iter().map(|n| json!(n)).collect::<Vec<_>>(),
            "nested": json!({"x": true}),
        });
        assert_eq!(v["n"], 3);
        assert_eq!(v["pi"].as_f64().unwrap(), 3.5);
        assert_eq!(v["names"][1], "b");
        assert_eq!(v["nested"]["x"], true);
        assert_eq!(json!(null), Value::Null);
        assert_eq!(json!([1, 2])[0], 1);
    }

    #[test]
    fn pretty_parses_back() {
        let v = json!({"a": [1, 2], "b": {"c": "x"}, "d": null});
        let text = to_string_pretty(&v).unwrap();
        let back: Value = from_str(&text).unwrap();
        assert_eq!(back, v);
        assert!(text.contains('\n'));
    }

    #[test]
    fn nesting_is_bounded_at_the_upstream_limit() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(from_str::<Value>(&nested(128)).is_ok());
        let err = from_str::<Value>(&nested(129)).unwrap_err();
        assert!(err.to_string().contains("recursion limit exceeded"), "{err}");
        // Deep enough to overflow the stack without the limit.
        assert!(from_str::<Value>(&"[{\"a\":".repeat(1 << 20)).is_err());
    }

    #[test]
    fn durations_that_overflow_are_errors() {
        let d: std::time::Duration = from_str(r#"{"secs": 3, "nanos": 1500000000}"#).unwrap();
        assert_eq!(d, std::time::Duration::from_millis(4500));
        let text = r#"{"secs": 18446744073709551615, "nanos": 1000000000}"#;
        let err = from_str::<std::time::Duration>(text).unwrap_err();
        assert!(err.to_string().contains("overflow deserializing Duration"), "{err}");
    }

    #[test]
    fn rejects_bad_documents() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "nul", "\"\\q\"", "1e", "--1"] {
            assert!(from_str::<Value>(bad).is_err(), "{bad:?} should fail");
        }
    }
}
