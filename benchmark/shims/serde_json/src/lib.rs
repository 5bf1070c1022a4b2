//! std-only stand-in for the slice of `serde_json` the unigpu crates use:
//! `to_string` / `to_string_pretty` / `to_vec` / `to_value`, `from_str` /
//! `from_slice` / `from_value`, [`Value`] and [`json!`].
//!
//! Text goes through the [`Value`] tree of the `serde` shim. Integers stay
//! 64-bit and an `f64` is written in its shortest round-trip form and read
//! back with a correctly rounded parse, so both survive bit-for-bit.
//! Differences from the published crate: a parsed `Value` keeps its keys in
//! document order (there: sorted), and floats such as 1e20 print in Rust's
//! notation, not ryu's. Neither is observable through the typed API.

use serde::{Deserialize, Serialize};
pub use serde::{Error, Value};

mod parse;

pub type Result<T> = std::result::Result<T, Error>;

pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Result<Value> {
    Ok(value.to_value())
}

pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    value.to_value().write(&mut out, None);
    Ok(out)
}

pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    value.to_value().write(&mut out, Some(2));
    Ok(out)
}

pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>> {
    to_string(value).map(String::into_bytes)
}

pub fn from_value<T: Deserialize>(value: Value) -> Result<T> {
    T::from_value(&value)
}

pub fn from_str<T: Deserialize>(s: &str) -> Result<T> {
    T::from_value(&parse::parse(s)?)
}

pub fn from_slice<T: Deserialize>(bytes: &[u8]) -> Result<T> {
    let s = std::str::from_utf8(bytes).map_err(|e| Error::new(format!("invalid UTF-8: {e}")))?;
    from_str(s)
}

/// Builds a [`Value`] from JSON-like syntax. Object keys are string literals
/// and come out sorted, as the published crate's `BTreeMap`-backed `Value`
/// prints them; any other expression goes through its `Serialize` impl.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([]) => { $crate::Value::Array(::std::vec::Vec::new()) };
    ([ $($tt:tt)+ ]) => { $crate::Value::Array($crate::json!(@array [] $($tt)+)) };
    ({}) => { $crate::Value::Object(::std::vec::Vec::new()) };
    ({ $($tt:tt)+ }) => {{
        let mut obj: ::std::vec::Vec<(::std::string::String, $crate::Value)> = ::std::vec::Vec::new();
        $crate::json!(@object obj $($tt)+);
        obj.sort_by(|a, b| a.0.cmp(&b.0));
        $crate::Value::Object(obj)
    }};

    // @array [elements so far] remaining tokens
    (@array [$($elems:expr,)*]) => { ::std::vec![$($elems,)*] };
    (@array [$($elems:expr,)*] null $(, $($rest:tt)*)?) => {
        $crate::json!(@array [$($elems,)* $crate::json!(null),] $($($rest)*)?)
    };
    (@array [$($elems:expr,)*] [$($inner:tt)*] $(, $($rest:tt)*)?) => {
        $crate::json!(@array [$($elems,)* $crate::json!([$($inner)*]),] $($($rest)*)?)
    };
    (@array [$($elems:expr,)*] {$($inner:tt)*} $(, $($rest:tt)*)?) => {
        $crate::json!(@array [$($elems,)* $crate::json!({$($inner)*}),] $($($rest)*)?)
    };
    (@array [$($elems:expr,)*] $next:expr $(, $($rest:tt)*)?) => {
        $crate::json!(@array [$($elems,)* $crate::json!($next),] $($($rest)*)?)
    };

    // @object vec remaining tokens
    (@object $obj:ident) => {};
    (@object $obj:ident $key:literal : null $(, $($rest:tt)*)?) => {
        $obj.push((::std::string::String::from($key), $crate::json!(null)));
        $crate::json!(@object $obj $($($rest)*)?);
    };
    (@object $obj:ident $key:literal : [$($inner:tt)*] $(, $($rest:tt)*)?) => {
        $obj.push((::std::string::String::from($key), $crate::json!([$($inner)*])));
        $crate::json!(@object $obj $($($rest)*)?);
    };
    (@object $obj:ident $key:literal : {$($inner:tt)*} $(, $($rest:tt)*)?) => {
        $obj.push((::std::string::String::from($key), $crate::json!({$($inner)*})));
        $crate::json!(@object $obj $($($rest)*)?);
    };
    (@object $obj:ident $key:literal : $value:expr $(, $($rest:tt)*)?) => {
        $obj.push((::std::string::String::from($key), $crate::json!($value)));
        $crate::json!(@object $obj $($($rest)*)?);
    };

    ($other:expr) => { $crate::to_value(&$other).expect("to_value is infallible") };
}
