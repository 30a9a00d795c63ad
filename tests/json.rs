//! The JSON writer and parser that carry every cache entry, event line and
//! daemon message: rendering then parsing returns the same tree, and a
//! table of malformed and edge-case inputs pins what is accepted (with
//! which value) and what is rejected (at which byte).

use oolong::engine::json::{parse, Json, MAX_DEPTH};
use proptest::prelude::*;

/// Characters that exercise every escaping rule: quotes, backslashes,
/// every control character, DEL, multi-byte BMP and non-BMP scalars.
fn arb_char() -> impl Strategy<Value = char> {
    prop_oneof![
        Just('"'),
        Just('\\'),
        Just('/'),
        (0u32..0x20).prop_map(|c| char::from_u32(c).expect("control character")),
        Just('\u{7f}'),
        (0x20u32..0x7f).prop_map(|c| char::from_u32(c).expect("ascii")),
        Just('é'),
        Just('∀'),
        Just('\u{2028}'),
        Just('\u{fffd}'),
        Just('😀'),
        Just('\u{10ffff}'),
    ]
}

fn arb_string() -> impl Strategy<Value = String> {
    proptest::collection::vec(arb_char(), 0..12).prop_map(|cs| cs.into_iter().collect())
}

/// Finite floats: integral ones (rendered with a `.0` suffix), ones whose
/// shortest form needs an exponent in other writers, and arbitrary bit
/// patterns.
fn arb_float() -> impl Strategy<Value = f64> {
    prop_oneof![
        (-1_000_000i64..1_000_000).prop_map(|n| n as f64),
        Just(-0.0),
        Just(1e300),
        Just(-2.5e-300),
        Just(f64::MAX),
        Just(f64::MIN_POSITIVE),
        Just(5e-324),
        (1u64..1_000_000, 0i64..40).prop_map(|(m, e)| m as f64 * 10f64.powi(e as i32 - 20)),
        any::<u64>().prop_map(|bits| {
            let x = f64::from_bits(bits);
            if x.is_finite() {
                x
            } else {
                0.5
            }
        }),
    ]
}

fn arb_json() -> impl Strategy<Value = Json> {
    let leaf = prop_oneof![
        Just(Json::Null),
        any::<bool>().prop_map(Json::Bool),
        any::<i64>().prop_map(Json::Int),
        Just(Json::Int(i64::MIN)),
        Just(Json::Int(i64::MAX)),
        Just(Json::Int(0)),
        arb_float().prop_map(Json::Float),
        arb_string().prop_map(Json::Str),
    ];
    leaf.prop_recursive(5, 48, 4, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..5).prop_map(Json::Array),
            proptest::collection::vec((arb_string(), inner), 0..5).prop_map(Json::Object),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn render_then_parse_is_identity(value in arb_json()) {
        let rendered = value.render();
        prop_assert!(!rendered.contains('\n'), "one line: {rendered}");
        let parsed = parse(&rendered).map_err(|e| TestCaseError::fail(format!("{e}: {rendered}")))?;
        prop_assert_eq!(&parsed, &value);
        // Float identity is bitwise, not just `==` (which equates ±0).
        prop_assert_eq!(parsed.render(), rendered);
    }
}

#[test]
fn every_control_character_round_trips() {
    let all: String = (0u32..0x20)
        .map(|c| char::from_u32(c).expect("control character"))
        .collect();
    let rendered = Json::Str(all.clone()).render();
    assert_eq!(
        rendered,
        "\"\\u0000\\u0001\\u0002\\u0003\\u0004\\u0005\\u0006\\u0007\\u0008\\t\\n\\u000b\\u000c\\r\
         \\u000e\\u000f\\u0010\\u0011\\u0012\\u0013\\u0014\\u0015\\u0016\\u0017\\u0018\\u0019\
         \\u001a\\u001b\\u001c\\u001d\\u001e\\u001f\""
    );
    assert_eq!(parse(&rendered), Ok(Json::Str(all)));
}

#[test]
fn scalars_render_as_pinned() {
    let cases = [
        (Json::Int(i64::MIN), "-9223372036854775808"),
        (Json::Int(i64::MAX), "9223372036854775807"),
        (Json::Int(0), "0"),
        (Json::Int(-7), "-7"),
        (Json::Float(2.0), "2.0"),
        (Json::Float(-0.0), "-0.0"),
        (Json::Float(0.1), "0.1"),
        (Json::Float(1e21), "1000000000000000000000.0"),
        (Json::Float(1.5e-7), "0.00000015"),
        (Json::Float(f64::NAN), "null"),
        (Json::Float(f64::INFINITY), "null"),
        (
            Json::Str("a\"b\\c/é😀\u{7f}".to_string()),
            "\"a\\\"b\\\\c/é😀\u{7f}\"",
        ),
        (
            Json::Object(vec![
                (
                    "k".to_string(),
                    Json::Array(vec![Json::Null, Json::Bool(true)]),
                ),
                ("".to_string(), Json::Object(vec![])),
            ]),
            "{\"k\":[null,true],\"\":{}}",
        ),
    ];
    for (value, text) in cases {
        assert_eq!(value.render(), text, "{value:?}");
    }
}

/// `Ok(value)` or `Err(byte offset)`.
type Outcome = Result<Json, usize>;

fn outcome(input: &str) -> Outcome {
    parse(input).map_err(|e| e.offset)
}

/// Accept/reject outcomes of malformed and edge-case inputs. Leading zeros
/// and a trailing `.` are accepted as the parser always has; surrogate
/// escapes are rejected rather than decoded.
#[test]
fn malformed_inputs_accept_and_reject_as_pinned() {
    let s = |text: &str| Ok(Json::Str(text.to_string()));
    let table: Vec<(&str, Outcome)> = vec![
        // Structure.
        ("[1,]", Err(3)),
        ("[1 2]", Err(3)),
        ("[", Err(1)),
        ("]", Err(0)),
        ("", Err(0)),
        ("   ", Err(3)),
        ("{} {}", Err(3)),
        ("{\"a\":1,}", Err(7)),
        ("{\"a\" 1}", Err(5)),
        ("{1:2}", Err(1)),
        ("{\"a\":}", Err(5)),
        (
            " [ 1 , 2 ] ",
            Ok(Json::Array(vec![Json::Int(1), Json::Int(2)])),
        ),
        ("tru", Err(0)),
        ("nul", Err(0)),
        ("truex", Err(4)),
        ("nan", Err(0)),
        // Strings.
        ("\"open", Err(5)),
        ("\"open\\", Err(6)),
        ("\"\\u0041\"", s("A")),
        ("\"\\u00e9\\u2200\"", s("é∀")),
        ("\"\\u12\"", Err(2)),
        ("\"\\uZZZZ\"", Err(2)),
        ("\"\\ud800\"", Err(2)),
        ("\"\\ud83d\\ude00\"", Err(2)),
        ("\"\\a\"", Err(2)),
        ("\"\\/\\b\\f\"", s("/\u{8}\u{c}")),
        ("\"raw\u{1}control\"", s("raw\u{1}control")),
        ("\"é😀\"", s("é😀")),
        // Numbers.
        ("-", Err(0)),
        ("-a", Err(0)),
        ("--1", Err(0)),
        ("+1", Err(0)),
        (".5", Err(0)),
        ("1e", Err(0)),
        ("1e+", Err(0)),
        ("01", Ok(Json::Int(1))),
        ("-0", Ok(Json::Int(0))),
        ("1.", Ok(Json::Float(1.0))),
        ("1.5e3", Ok(Json::Float(1500.0))),
        ("1E+2", Ok(Json::Float(100.0))),
        ("-2.5e-3", Ok(Json::Float(-0.0025))),
        ("9223372036854775807", Ok(Json::Int(i64::MAX))),
        ("-9223372036854775808", Ok(Json::Int(i64::MIN))),
        (
            "9223372036854775808",
            Ok(Json::Float(9_223_372_036_854_775_808.0)),
        ),
        (
            "-9223372036854775809",
            Ok(Json::Float(-9_223_372_036_854_775_808.0)),
        ),
        (
            "123456789012345678901234567890",
            Ok(Json::Float(1.2345678901234568e29)),
        ),
        ("1x", Err(1)),
    ];
    for (input, expected) in table {
        assert_eq!(outcome(input), expected, "input {input:?}");
    }
}

/// Nesting deeper than [`MAX_DEPTH`] is rejected at the byte that opens
/// the first level too many, however deep the input goes: a recursive
/// descent over 200,000 brackets would otherwise exhaust the thread's
/// stack.
#[test]
fn nesting_is_bounded() {
    let nested = |depth: usize, open: char, close: char| {
        let mut text = String::new();
        for _ in 0..depth {
            text.push(open);
        }
        for _ in 0..depth {
            text.push(close);
        }
        text
    };
    let deepest = nested(MAX_DEPTH, '[', ']');
    assert!(parse(&deepest).is_ok(), "{MAX_DEPTH} levels are accepted");
    for depth in [MAX_DEPTH + 1, 1_000, 200_000] {
        let error = parse(&nested(depth, '[', ']')).expect_err("too deep");
        assert_eq!(error.offset, MAX_DEPTH, "depth {depth}");
    }
    let objects = format!(
        "{}1{}",
        "{\"a\":".repeat(MAX_DEPTH + 1),
        "}".repeat(MAX_DEPTH + 1)
    );
    let error = parse(&objects).expect_err("too deep");
    assert_eq!(error.offset, MAX_DEPTH * 5);
}
