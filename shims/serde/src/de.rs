//! Deserialization: rebuilding a type from a [`Value`] tree.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::time::Duration;

use crate::value::Value;

/// Deserialization failure with a human-readable message.
#[derive(Debug, Clone)]
pub struct Error(String);

impl Error {
    /// An error with an arbitrary message.
    pub fn custom(msg: impl fmt::Display) -> Self {
        Error(msg.to_string())
    }

    /// A required field was absent.
    pub fn missing_field(field: &str, ty: &str) -> Self {
        Error(format!("missing field `{field}` while deserializing {ty}"))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// Types rebuildable from a [`Value`].
pub trait Deserialize: Sized {
    /// Rebuilds `Self` from a value tree.
    fn from_value(v: &Value) -> Result<Self, Error>;
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_bool().ok_or_else(|| Error::custom("expected boolean"))
    }
}

macro_rules! de_uint {
    ($($t:ty),*) => {$(
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let n = v.as_u64().ok_or_else(|| Error::custom(concat!(
                    "expected non-negative integer for ", stringify!($t))))?;
                <$t>::try_from(n).map_err(|_| {
                    Error::custom(format!(concat!("{} out of range for ", stringify!($t)), n))
                })
            }
        }
    )*};
}
de_uint!(u8, u16, u32, u64, usize);

macro_rules! de_int {
    ($($t:ty),*) => {$(
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let n = v.as_i64().ok_or_else(|| Error::custom(concat!(
                    "expected integer for ", stringify!($t))))?;
                <$t>::try_from(n).map_err(|_| {
                    Error::custom(format!(concat!("{} out of range for ", stringify!($t)), n))
                })
            }
        }
    )*};
}
de_int!(i8, i16, i32, i64, isize);

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(f64::from_value(v)? as f32)
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_f64().ok_or_else(|| Error::custom("expected number"))
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_str().map(str::to_string).ok_or_else(|| Error::custom("expected string"))
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        if v.is_null() {
            Ok(None)
        } else {
            T::from_value(v).map(Some)
        }
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_array()
            .ok_or_else(|| Error::custom("expected array"))?
            .iter()
            .map(T::from_value)
            .collect()
    }
}

impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_object()
            .ok_or_else(|| Error::custom("expected object"))?
            .iter()
            .map(|(k, val)| Ok((k.clone(), V::from_value(val)?)))
            .collect()
    }
}

impl<V: Deserialize> Deserialize for HashMap<String, V> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_object()
            .ok_or_else(|| Error::custom("expected object"))?
            .iter()
            .map(|(k, val)| Ok((k.clone(), V::from_value(val)?)))
            .collect()
    }
}

macro_rules! de_tuple {
    ($(($len:literal; $($n:tt $t:ident),+))*) => {$(
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let a = v.as_array().ok_or_else(|| Error::custom("expected array"))?;
                if a.len() != $len {
                    return Err(Error::custom(format!(
                        "expected array of length {}, got {}", $len, a.len())));
                }
                Ok(($($t::from_value(&a[$n])?,)+))
            }
        }
    )*};
}
de_tuple! {
    (1; 0 A)
    (2; 0 A, 1 B)
    (3; 0 A, 1 B, 2 C)
    (4; 0 A, 1 B, 2 C, 3 D)
}

impl Deserialize for Duration {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let obj = v.as_object().ok_or_else(|| Error::custom("expected {secs, nanos} object"))?;
        let secs = obj
            .get("secs")
            .ok_or_else(|| Error::missing_field("secs", "Duration"))
            .and_then(u64::from_value)?;
        let nanos = obj
            .get("nanos")
            .ok_or_else(|| Error::missing_field("nanos", "Duration"))
            .and_then(u32::from_value)?;
        // `Duration::new` panics when the nanos carry past `u64::MAX`
        // seconds; upstream serde reports it instead.
        secs.checked_add(u64::from(nanos / 1_000_000_000))
            .ok_or_else(|| Error::custom("overflow deserializing Duration"))?;
        Ok(Duration::new(secs, nanos))
    }
}
