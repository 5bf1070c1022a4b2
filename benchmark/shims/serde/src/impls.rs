//! `Serialize` / `Deserialize` for the std types the workspace's derived
//! types are built from.

use crate::{Deserialize, Error, Serialize, Value};
use std::collections::{BTreeMap, HashMap};

fn expected<T>(what: &str, found: &Value) -> Result<T, Error> {
    Err(Error::new(format!(
        "expected {what}, found {}",
        found.kind()
    )))
}

macro_rules! unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::U64(*self as u64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let n = v.as_u64().map(<$t>::try_from);
                match n {
                    Some(Ok(n)) => Ok(n),
                    Some(Err(_)) => Err(Error::new(concat!("integer out of range for ", stringify!($t)))),
                    None => expected(concat!("an unsigned integer (", stringify!($t), ")"), v),
                }
            }
        }
    )*};
}
unsigned!(u8, u16, u32, u64, usize);

macro_rules! signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                // Non-negative values take the unsigned form so that equal
                // numbers compare equal as `Value`s whatever type wrote them.
                match u64::try_from(*self) {
                    Ok(n) => Value::U64(n),
                    Err(_) => Value::I64(*self as i64),
                }
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let n = v.as_i64().map(<$t>::try_from);
                match n {
                    Some(Ok(n)) => Ok(n),
                    Some(Err(_)) => Err(Error::new(concat!("integer out of range for ", stringify!($t)))),
                    None => expected(concat!("an integer (", stringify!($t), ")"), v),
                }
            }
        }
    )*};
}
signed!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::F64(*self)
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_f64().map_or_else(|| expected("a number", v), Ok)
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        // The shortest decimal that reads back as this f32, re-read as f64:
        // what `serde_json` prints for an f32, so 0.1f32 stays "0.1".
        match self.to_string().parse::<f64>() {
            Ok(wide) if self.is_finite() => Value::F64(wide),
            _ => Value::F64(*self as f64),
        }
    }
}

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        f64::from_value(v).map(|wide| wide as f32)
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_bool().map_or_else(|| expected("a boolean", v), Ok)
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::String(self.to_owned())
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_str()
            .map_or_else(|| expected("a string", v), |s| Ok(s.to_owned()))
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}

impl Serialize for () {
    fn to_value(&self) -> Value {
        Value::Null
    }
}

impl Deserialize for () {
    fn from_value(v: &Value) -> Result<Self, Error> {
        if v.is_null() {
            Ok(())
        } else {
            expected("null", v)
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        T::from_value(v).map(Box::new)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        self.as_ref().map_or(Value::Null, Serialize::to_value)
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

    fn from_missing(_field: &str) -> Result<Self, Error> {
        Ok(None)
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        self.as_slice().to_value()
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Array(a) => a
                .iter()
                .enumerate()
                .map(|(i, item)| T::from_value(item).map_err(|e| e.in_field(&format!("[{i}]"))))
                .collect(),
            other => expected("an array", other),
        }
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        self.as_slice().to_value()
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let items = Vec::<T>::from_value(v)?;
        let len = items.len();
        items
            .try_into()
            .map_err(|_| Error::new(format!("expected an array of {N} elements, found {len}")))
    }
}

macro_rules! tuple {
    ($len:literal: $($t:ident $i:tt),+) => {
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$i.to_value()),+])
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let a = crate::__private::array(v, $len, "a tuple")?;
                Ok(($($t::from_value(&a[$i])?,)+))
            }
        }
    };
}
tuple!(1: A 0);
tuple!(2: A 0, B 1);
tuple!(3: A 0, B 1, C 2);
tuple!(4: A 0, B 1, C 2, D 3);

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn to_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.clone(), v.to_value()))
                .collect(),
        )
    }
}

impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        crate::__private::object(v, "a map")?
            .iter()
            .map(|(k, v)| Ok((k.clone(), V::from_value(v).map_err(|e| e.in_field(k))?)))
            .collect()
    }
}

impl<V: Serialize> Serialize for HashMap<String, V> {
    fn to_value(&self) -> Value {
        // Sorted, so the output does not depend on the hasher's seed.
        let mut entries: Vec<_> = self
            .iter()
            .map(|(k, v)| (k.clone(), v.to_value()))
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        Value::Object(entries)
    }
}

impl<V: Deserialize> Deserialize for HashMap<String, V> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        crate::__private::object(v, "a map")?
            .iter()
            .map(|(k, v)| Ok((k.clone(), V::from_value(v).map_err(|e| e.in_field(k))?)))
            .collect()
    }
}
