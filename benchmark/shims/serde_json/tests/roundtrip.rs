//! The derive and the JSON text layer, exercised together on the type shapes
//! the unigpu crates use.

use serde::{Deserialize, Serialize};
use serde_json::{from_slice, from_str, json, to_string, to_string_pretty, to_vec, Value};

fn roundtrip<T: Serialize + Deserialize + PartialEq + std::fmt::Debug>(value: &T, text: &str) {
    assert_eq!(to_string(value).unwrap(), text);
    assert_eq!(&from_str::<T>(text).unwrap(), value);
    assert_eq!(&from_slice::<T>(&to_vec(value).unwrap()).unwrap(), value);
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Named {
    id: u64,
    ms: f64,
    name: String,
    dims: Vec<usize>,
    pair: (u32, f32),
    window: [usize; 2],
    maybe: Option<i32>,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Newtype(pub Vec<usize>);

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Pair(u8, bool);

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Unit;

#[test]
fn structs_of_every_shape() {
    let named = Named {
        id: 7,
        ms: 1.5,
        name: "conv \"3x3\"\n".into(),
        dims: vec![1, 3, 224, 224],
        pair: (2, 0.1),
        window: [3, 3],
        maybe: None,
    };
    roundtrip(
        &named,
        r#"{"id":7,"ms":1.5,"name":"conv \"3x3\"\n","dims":[1,3,224,224],"pair":[2,0.1],"window":[3,3],"maybe":null}"#,
    );
    roundtrip(&Newtype(vec![1, 2]), "[1,2]");
    roundtrip(&Pair(9, true), "[9,true]");
    roundtrip(&Unit, "null");
}

#[test]
fn absent_option_is_none_but_other_absent_fields_are_errors() {
    let text = r#"{"id":1,"ms":2,"name":"n","dims":[],"pair":[0,0],"window":[1,1],"extra":{"ignored":true}}"#;
    let v: Named = from_str(text).unwrap();
    assert_eq!(v.maybe, None);
    assert_eq!(v.ms, 2.0, "an integer literal reads as a float");
    let err = from_str::<Named>(r#"{"id":1}"#).unwrap_err().to_string();
    assert!(err.contains("missing field `ms`"), "{err}");
    let err = from_str::<Named>(text.replace("[1,1]", "[1]").as_str())
        .unwrap_err()
        .to_string();
    assert!(err.contains("window"), "{err}");
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum BinOp {
    Add,
    Mul,
}

/// The shape of `unigpu_ir::Expr`: recursive through `Box`, every variant kind.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Expr {
    Zero,
    Const(f64),
    Var(String),
    Bin(BinOp, Box<Expr>, Box<Expr>),
    Load { buffer: String, index: Box<Expr> },
}

#[test]
fn externally_tagged_recursive_enum() {
    let e = Expr::Bin(
        BinOp::Add,
        Box::new(Expr::Load {
            buffer: "a".into(),
            index: Box::new(Expr::Var("i".into())),
        }),
        Box::new(Expr::Bin(
            BinOp::Mul,
            Box::new(Expr::Const(2.0)),
            Box::new(Expr::Zero),
        )),
    );
    roundtrip(
        &e,
        r#"{"Bin":["Add",{"Load":{"buffer":"a","index":{"Var":"i"}}},{"Bin":["Mul",{"Const":2.0},"Zero"]}]}"#,
    );
    assert_eq!(from_str::<Expr>(r#"{"Zero":null}"#).unwrap(), Expr::Zero);
    assert!(from_str::<Expr>(r#""Nope""#)
        .unwrap_err()
        .to_string()
        .contains("unknown variant `Nope`"));
    assert!(
        from_str::<Expr>(r#""Const""#).is_err(),
        "a payload variant needs its payload"
    );
}

fn is_false(b: &bool) -> bool {
    !*b
}

/// The shape of the farm / fleet wire frames.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "type", rename_all = "snake_case")]
enum Frame {
    Hello,
    RegisterAck {
        worker_id: u64,
        #[serde(default, skip_serializing_if = "Option::is_none")]
        framing: Option<u8>,
        #[serde(default, skip_serializing_if = "std::ops::Not::not")]
        resumed: bool,
        #[serde(default, skip_serializing_if = "is_false")]
        fatal: bool,
    },
    Result {
        outcome: Box<Named>,
    },
    Wrapped(Newtyped),
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Newtyped {
    n: u32,
}

#[test]
fn internally_tagged_snake_case_frames() {
    roundtrip(&Frame::Hello, r#"{"type":"hello"}"#);
    roundtrip(
        &Frame::RegisterAck {
            worker_id: 3,
            framing: None,
            resumed: false,
            fatal: false,
        },
        r#"{"type":"register_ack","worker_id":3}"#,
    );
    roundtrip(
        &Frame::RegisterAck {
            worker_id: 3,
            framing: Some(2),
            resumed: true,
            fatal: false,
        },
        r#"{"type":"register_ack","worker_id":3,"framing":2,"resumed":true}"#,
    );
    roundtrip(
        &Frame::Wrapped(Newtyped { n: 5 }),
        r#"{"type":"wrapped","n":5}"#,
    );
    // A newer peer's extra keys are ignored, on unit variants too.
    assert_eq!(
        from_str::<Frame>(r#"{"type":"hello","framing":2}"#).unwrap(),
        Frame::Hello
    );
    let err = from_str::<Frame>(r#"{"worker_id":3}"#)
        .unwrap_err()
        .to_string();
    assert!(err.contains("missing tag `type`"), "{err}");
    assert!(from_str::<Frame>(r#"{"type":"bye"}"#).is_err());
}

#[test]
fn integers_keep_64_bits() {
    // An artifact fingerprint: above 2^53, where an f64 would round.
    let fp = 0xdead_beef_cafe_f00du64;
    assert!(fp > 1 << 53);
    assert_eq!(from_str::<u64>(&to_string(&fp).unwrap()).unwrap(), fp);
    assert_eq!(from_str::<u64>("18446744073709551615").unwrap(), u64::MAX);
    assert_eq!(from_str::<i64>("-9223372036854775808").unwrap(), i64::MIN);
    assert_eq!(
        from_str::<Value>("18446744073709551615").unwrap(),
        Value::U64(u64::MAX)
    );
    assert!(from_str::<u8>("256").is_err());
    assert!(from_str::<u32>("-1").is_err());
    assert!(from_str::<u64>("1.0").is_err(), "a float is not an integer");
}

#[test]
fn floats_round_trip_bit_for_bit() {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut samples = vec![
        0.0,
        -0.0,
        1.0,
        0.1,
        1e-7,
        1e21,
        1e300,
        5e-324,
        f64::MAX,
        f64::MIN_POSITIVE,
        1.0 / 3.0,
    ];
    for _ in 0..2000 {
        // xorshift over the whole bit pattern space, finite values only
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let f = f64::from_bits(state);
        if f.is_finite() {
            samples.push(f);
        }
    }
    for f in samples {
        let text = to_string(&f).unwrap();
        let back: f64 = from_str(&text).unwrap();
        assert_eq!(back.to_bits(), f.to_bits(), "{f:e} via {text}");
        let narrow = f as f32;
        if narrow.is_finite() {
            let back: f32 = from_str(&to_string(&narrow).unwrap()).unwrap();
            assert_eq!(back.to_bits(), narrow.to_bits());
        }
    }
    assert_eq!(to_string(&0.1f32).unwrap(), "0.1");
    assert_eq!(to_string(&f64::NAN).unwrap(), "null");
}

#[test]
fn json_macro_and_value_access() {
    let config = Newtype(vec![4, 8]);
    let ms = 0.25;
    let v = json!({
        "workload": "conv",
        "trial": 3usize,
        "config": config,
        "ms": ms * 2.0,
        "nested": { "b": [1, null, { "deep": true }], "a": [] },
        "nothing": null,
    });
    // Keys print sorted, as the published crate's map does.
    assert_eq!(
        v.to_string(),
        r#"{"config":[4,8],"ms":0.5,"nested":{"a":[],"b":[1,null,{"deep":true}]},"nothing":null,"trial":3,"workload":"conv"}"#
    );
    assert_eq!(v["workload"].as_str(), Some("conv"));
    assert_eq!(v["trial"].as_u64(), Some(3));
    assert_eq!(v["ms"].as_f64(), Some(0.5));
    assert_eq!(v["nested"]["b"][2]["deep"].as_bool(), Some(true));
    assert!(v["absent"]["deeper"].is_null());
    assert_eq!(from_str::<Value>(&v.to_string()).unwrap(), v);
    assert_eq!(json!([]), Value::Array(vec![]));
    assert_eq!(json!(7u8), Value::U64(7));
}

#[test]
fn pretty_printing_reparses_to_the_same_value() {
    let v = json!({"a": [1, 2, {"b": "c"}], "e": {}, "f": []});
    let pretty = to_string_pretty(&v).unwrap();
    assert_eq!(
        pretty,
        "{\n  \"a\": [\n    1,\n    2,\n    {\n      \"b\": \"c\"\n    }\n  ],\n  \"e\": {},\n  \"f\": []\n}"
    );
    assert_eq!(from_str::<Value>(&pretty).unwrap(), v);
}

#[test]
fn strings_escape_and_unescape() {
    let s = "tab\t quote\" slash\\ nul\u{0} bell\u{7} é 日本 😀".to_string();
    let text = to_string(&s).unwrap();
    assert!(text.contains("\\u0000") && text.contains("\\u0007") && text.contains("😀"));
    assert_eq!(from_str::<String>(&text).unwrap(), s);
    assert_eq!(from_str::<String>(r#""é😀\/""#).unwrap(), "é😀/");
    assert!(from_str::<String>(r#""\ud83d""#).is_err(), "lone surrogate");
    assert!(from_str::<String>("\"raw\nnewline\"").is_err());
}

#[test]
fn malformed_documents_are_errors_not_panics() {
    for bad in [
        "",
        " ",
        "{",
        "[1,",
        "[1 2]",
        "{\"a\"}",
        "{\"a\":}",
        "{a:1}",
        "01",
        "1.",
        "-",
        "1e",
        "+1",
        "tru",
        "nul",
        "\"open",
        "\"bad\\x\"",
        "[1]]",
        "{} {}",
        "\u{feff}1",
        "[1,]",
        "{\"a\":1,}",
    ] {
        assert!(from_str::<Value>(bad).is_err(), "accepted {bad:?}");
    }
    assert!(
        from_slice::<Value>(&[b'"', 0xff, b'"']).is_err(),
        "invalid UTF-8"
    );
    let deep = "[".repeat(100_000);
    assert!(from_str::<Value>(&deep)
        .unwrap_err()
        .to_string()
        .contains("nesting too deep"));
    let ok_depth = format!("{}{}", "[".repeat(100), "]".repeat(100));
    assert!(from_str::<Value>(&ok_depth).is_ok());
}
