//! Unit tests for the JSON substrate: parser strictness, line/column
//! error reporting, writer determinism, float round-tripping and the
//! `impl_json!` macro shapes.

use muffin_json::{impl_json, parse, Json, JsonError};

fn parse_err(text: &str) -> (usize, usize, String) {
    match parse(text) {
        Err(JsonError::Parse {
            line,
            column,
            message,
        }) => (line, column, message),
        other => panic!("expected parse error for {text:?}, got {other:?}"),
    }
}

#[test]
fn parses_scalars() {
    assert_eq!(parse("null").unwrap(), Json::Null);
    assert_eq!(parse("true").unwrap(), Json::Bool(true));
    assert_eq!(parse("false").unwrap(), Json::Bool(false));
    assert_eq!(parse("42").unwrap(), Json::Int(42));
    assert_eq!(parse("-7").unwrap(), Json::Int(-7));
    assert_eq!(parse("2.5").unwrap(), Json::Float(2.5));
    assert_eq!(parse("1e3").unwrap(), Json::Float(1000.0));
    assert_eq!(parse("-1.25e-2").unwrap(), Json::Float(-0.0125));
    assert_eq!(parse("\"hi\"").unwrap(), Json::Str("hi".into()));
}

#[test]
fn parses_nested_structures() {
    let v = parse(r#"{"a": [1, 2.0, {"b": null}], "c": "x"}"#).unwrap();
    assert_eq!(v.get("c"), Some(&Json::Str("x".into())));
    match v.get("a") {
        Some(Json::Arr(items)) => {
            assert_eq!(items[0], Json::Int(1));
            assert_eq!(items[1], Json::Float(2.0));
            assert_eq!(items[2].get("b"), Some(&Json::Null));
        }
        other => panic!("expected array, got {other:?}"),
    }
}

#[test]
fn integers_beyond_f64_precision_survive() {
    let seed = u64::MAX - 3;
    let text = muffin_json::to_string(&seed);
    let back: u64 = muffin_json::from_str(&text).unwrap();
    assert_eq!(back, seed);
}

#[test]
fn string_escapes_round_trip() {
    let s = "line1\nline2\ttab \"quoted\" back\\slash \u{0007} unicode: ✓ 🦀".to_owned();
    let text = muffin_json::to_string(&s);
    let back: String = muffin_json::from_str(&text).unwrap();
    assert_eq!(back, s);
}

#[test]
fn unicode_escapes_parse_including_surrogates() {
    assert_eq!(parse(r#""A""#).unwrap(), Json::Str("A".into()));
    assert_eq!(parse(r#""🦀""#).unwrap(), Json::Str("🦀".into()));
    let (_, _, msg) = parse_err(r#""\ud83e""#);
    assert!(msg.contains("surrogate"), "{msg}");
}

#[test]
fn errors_carry_line_and_column() {
    // The bad literal starts at line 2, column 8.
    let (line, column, _) = parse_err("{\n  \"a\": nul\n}");
    assert_eq!((line, column), (2, 8));

    let (line, column, msg) = parse_err("[1, 2,\n 3,,4]");
    assert_eq!(line, 2);
    assert_eq!(column, 4);
    assert!(msg.contains("unexpected character"), "{msg}");

    let (line, _, _) = parse_err("{\"a\": 1\n\"b\": 2}");
    assert_eq!(line, 2);
}

#[test]
fn rejects_trailing_garbage_and_partial_documents() {
    assert!(parse("{} x").is_err());
    assert!(parse("{\"a\":").is_err());
    assert!(parse("[1, 2").is_err());
    assert!(parse("\"unterminated").is_err());
    assert!(parse("").is_err());
    assert!(parse("01").is_err(), "leading zeros are not JSON");
    assert!(parse("1.").is_err());
    assert!(parse("+1").is_err());
    assert!(parse("{'a': 1}").is_err(), "single quotes are not JSON");
    assert!(parse("[1,]").is_err(), "trailing commas are not JSON");
}

#[test]
fn rejects_pathological_nesting() {
    let deep = "[".repeat(10_000) + &"]".repeat(10_000);
    let err = parse(&deep).unwrap_err();
    assert!(err.to_string().contains("nesting"), "{err}");
}

#[test]
fn writer_is_deterministic_and_reparses() {
    let mut obj = Json::object();
    obj.insert("zeta", Json::Int(1));
    obj.insert("alpha", Json::Arr(vec![Json::Bool(true), Json::Null]));
    let text = obj.to_string();
    // Insertion order, not alphabetical: the order every run produces.
    assert_eq!(text, r#"{"zeta":1,"alpha":[true,null]}"#);
    assert_eq!(parse(&text).unwrap(), obj);
    // Pretty output reparses to the same value.
    assert_eq!(parse(&obj.to_string_pretty()).unwrap(), obj);
}

#[test]
fn floats_round_trip_exactly() {
    for &x in &[
        0.0f64,
        -0.0,
        1.0,
        -1.5,
        0.1,
        1.0 / 3.0,
        f64::MIN_POSITIVE,
        f64::MAX,
        std::f64::consts::PI,
        1e-300,
        -2.2250738585072014e-308,
    ] {
        let text = muffin_json::to_string(&x);
        let back: f64 = muffin_json::from_str(&text).unwrap();
        assert_eq!(back.to_bits(), x.to_bits(), "{x} -> {text} -> {back}");
    }
    for &x in &[0.1f32, 3.4028235e38, -1.1754944e-38, 7.25] {
        let text = muffin_json::to_string(&x);
        let back: f32 = muffin_json::from_str(&text).unwrap();
        assert_eq!(back.to_bits(), x.to_bits(), "{x} -> {text} -> {back}");
    }
}

#[test]
fn non_finite_floats_become_null_and_decode_as_nan() {
    assert_eq!(muffin_json::to_string(&f64::NAN), "null");
    assert_eq!(muffin_json::to_string(&f64::INFINITY), "null");
    let back: f32 = muffin_json::from_str("null").unwrap();
    assert!(back.is_nan());
}

#[test]
fn integral_floats_keep_their_kind() {
    // 2.0 must not collapse to the integer 2 across a round trip.
    let text = muffin_json::to_string(&2.0f64);
    assert_eq!(text, "2.0");
    assert_eq!(parse(&text).unwrap(), Json::Float(2.0));
}

#[test]
fn containers_round_trip() {
    let v: Vec<(usize, Vec<u16>)> = vec![(0, vec![1, 2]), (3, vec![])];
    let back: Vec<(usize, Vec<u16>)> = muffin_json::from_str(&muffin_json::to_string(&v)).unwrap();
    assert_eq!(back, v);

    let triples: Vec<(usize, u16, f32)> = vec![(1, 2, 0.5), (4, 5, -1.25)];
    let back: Vec<(usize, u16, f32)> =
        muffin_json::from_str(&muffin_json::to_string(&triples)).unwrap();
    assert_eq!(back, triples);

    let opt: Option<f32> = None;
    assert_eq!(muffin_json::to_string(&opt), "null");
    let back: Option<f32> = muffin_json::from_str("2.5").unwrap();
    assert_eq!(back, Some(2.5));
}

#[test]
fn fixed_arrays_round_trip_and_check_length() {
    // The checkpoint stores the xoshiro256++ state as a [u64; 4].
    let state: [u64; 4] = [u64::MAX, 0, 0x9E37_79B9_7F4A_7C15, 42];
    let text = muffin_json::to_string(&state);
    let back: [u64; 4] = muffin_json::from_str(&text).unwrap();
    assert_eq!(back, state);

    let err = muffin_json::from_str::<[u64; 4]>("[1,2,3]").unwrap_err();
    assert!(err.to_string().contains("4-element"), "{err}");
    assert!(muffin_json::from_str::<[u64; 2]>("7").is_err());
}

#[test]
fn decode_errors_name_the_field_path() {
    #[derive(Debug, PartialEq)]
    struct Inner {
        value: f32,
    }
    impl_json!(struct Inner { value });

    #[derive(Debug, PartialEq)]
    struct Outer {
        items: Vec<Inner>,
    }
    impl_json!(struct Outer { items });

    let err =
        muffin_json::from_str::<Outer>(r#"{"items": [{"value": 1.0}, {"wrong": 2}]}"#).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("items"), "{msg}");
    assert!(msg.contains("index 1"), "{msg}");
    assert!(msg.contains("value"), "{msg}");

    let err = muffin_json::from_str::<Outer>("[]").unwrap_err();
    assert!(err.to_string().contains("expected object"), "{err}");
}

#[test]
fn macro_struct_and_newtype_round_trip() {
    #[derive(Debug, Clone, PartialEq)]
    struct Id(u64);
    impl_json!(newtype Id);

    #[derive(Debug, Clone, PartialEq)]
    struct Record {
        id: Id,
        name: String,
        scores: Vec<f32>,
        note: Option<String>,
    }
    impl_json!(struct Record { id, name, scores, note });

    let r = Record {
        id: Id(9),
        name: "r".into(),
        scores: vec![0.5, 1.5],
        note: None,
    };
    let text = muffin_json::to_string(&r);
    assert_eq!(
        text,
        r#"{"id":9,"name":"r","scores":[0.5,1.5],"note":null}"#
    );
    assert_eq!(muffin_json::from_str::<Record>(&text).unwrap(), r);
}

#[test]
fn macro_enums_round_trip() {
    #[derive(Debug, Clone, PartialEq)]
    enum Mode {
        Fast,
        Slow,
    }
    impl_json!(
        enum Mode {
            Fast,
            Slow,
        }
    );

    assert_eq!(muffin_json::to_string(&Mode::Slow), r#""Slow""#);
    assert_eq!(
        muffin_json::from_str::<Mode>(r#""Fast""#).unwrap(),
        Mode::Fast
    );
    assert!(muffin_json::from_str::<Mode>(r#""Medium""#).is_err());

    #[derive(Debug, Clone, PartialEq)]
    enum Schedule {
        Constant { lr: f32 },
        Nothing {},
    }
    impl_json!(tagged Schedule { Constant { lr }, Nothing {} });

    let s = Schedule::Constant { lr: 0.1 };
    let text = muffin_json::to_string(&s);
    assert_eq!(text, r#"{"Constant":{"lr":0.1}}"#);
    assert_eq!(muffin_json::from_str::<Schedule>(&text).unwrap(), s);
    let n = Schedule::Nothing {};
    assert_eq!(
        muffin_json::from_str::<Schedule>(&muffin_json::to_string(&n)).unwrap(),
        n
    );
    assert!(muffin_json::from_str::<Schedule>(r#"{"Unknown":{}}"#).is_err());
}

#[test]
fn out_of_range_integers_are_decode_errors() {
    assert!(muffin_json::from_str::<u16>("70000").is_err());
    assert!(muffin_json::from_str::<u32>("-1").is_err());
    // Integral float accepted where an integer is expected.
    assert_eq!(muffin_json::from_str::<u32>("3.0").unwrap(), 3);
    assert!(muffin_json::from_str::<u32>("3.5").is_err());
}
