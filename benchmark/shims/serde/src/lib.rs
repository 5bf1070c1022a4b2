//! std-only stand-in for the slice of `serde` the unigpu crates use.
//!
//! The published crate drives a visitor through a `Serializer`; this one goes
//! through a JSON-shaped [`Value`] tree, because JSON (via the `serde_json`
//! shim) is the only format the workspace speaks. `#[derive(Serialize,
//! Deserialize)]` comes from the hand-rolled `serde_derive` next door and
//! produces the same JSON the published derive does for the shapes in use
//! (see that crate's docs for the list).
//!
//! Integers keep 64 bits (`Value::U64` / `Value::I64`, never through `f64`),
//! so artifact fingerprints above 2^53 survive a round trip.

pub use serde_derive::{Deserialize, Serialize};

mod impls;
mod value;

pub use value::{Error, Value};

pub trait Serialize {
    fn to_value(&self) -> Value;
}

pub trait Deserialize: Sized {
    fn from_value(v: &Value) -> Result<Self, Error>;

    /// What a struct field of this type becomes when its key is absent:
    /// an error, except for `Option`, which reads as `None`.
    fn from_missing(field: &str) -> Result<Self, Error> {
        Err(Error::new(format!("missing field `{field}`")))
    }
}

pub mod de {
    /// Every `Deserialize` here is owned: `from_value` borrows nothing from
    /// its input.
    pub trait DeserializeOwned: super::Deserialize {}
    impl<T: super::Deserialize> DeserializeOwned for T {}
}

/// Helpers the derive expands to; not part of the mimicked API.
#[doc(hidden)]
pub mod __private {
    use super::{Deserialize, Error, Value};

    pub fn field<T: Deserialize>(obj: &[(String, Value)], name: &str) -> Result<T, Error> {
        match get(obj, name) {
            Some(v) => T::from_value(v).map_err(|e| e.in_field(name)),
            None => T::from_missing(name),
        }
    }

    pub fn field_or_default<T: Deserialize + Default>(
        obj: &[(String, Value)],
        name: &str,
    ) -> Result<T, Error> {
        match get(obj, name) {
            Some(v) => T::from_value(v).map_err(|e| e.in_field(name)),
            None => Ok(T::default()),
        }
    }

    pub fn get<'a>(obj: &'a [(String, Value)], name: &str) -> Option<&'a Value> {
        obj.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    pub fn object<'a>(v: &'a Value, what: &str) -> Result<&'a [(String, Value)], Error> {
        match v {
            Value::Object(o) => Ok(o),
            other => Err(Error::new(format!(
                "expected {what} as an object, found {}",
                other.kind()
            ))),
        }
    }

    pub fn array<'a>(v: &'a Value, len: usize, what: &str) -> Result<&'a [Value], Error> {
        match v {
            Value::Array(a) if a.len() == len => Ok(a),
            Value::Array(a) => Err(Error::new(format!(
                "expected {what} with {len} elements, found {}",
                a.len()
            ))),
            other => Err(Error::new(format!(
                "expected {what} as an array, found {}",
                other.kind()
            ))),
        }
    }

    /// An externally tagged enum value: `"Variant"` or `{"Variant": payload}`.
    pub fn variant<'a>(v: &'a Value, what: &str) -> Result<(&'a str, Option<&'a Value>), Error> {
        match v {
            Value::String(s) => Ok((s, None)),
            Value::Object(o) if o.len() == 1 => Ok((&o[0].0, Some(&o[0].1))),
            other => Err(Error::new(format!(
                "expected {what} as a string or single-key object, found {}",
                other.kind()
            ))),
        }
    }

    pub fn payload<'a>(p: Option<&'a Value>, variant: &str) -> Result<&'a Value, Error> {
        p.ok_or_else(|| Error::new(format!("variant `{variant}` needs a payload")))
    }

    pub fn tag<'a>(obj: &'a [(String, Value)], tag: &str, what: &str) -> Result<&'a str, Error> {
        match get(obj, tag) {
            Some(Value::String(s)) => Ok(s),
            Some(other) => Err(Error::new(format!(
                "{what}: tag `{tag}` is {}, not a string",
                other.kind()
            ))),
            None => Err(Error::new(format!("{what}: missing tag `{tag}`"))),
        }
    }

    pub fn unknown_variant(name: &str, what: &str) -> Error {
        Error::new(format!("unknown variant `{name}` of {what}"))
    }
}
