//! The vendored `serde_json` stand-in's string handling, pinned.
//!
//! Every request and event line on the wire, every stage-metrics object
//! in a cache entry and every `BENCH_*.json` goes through its writer, so
//! "wire bytes unchanged" rests on this file:
//!
//! * `corpus_serializes_as_recorded` — the exact `to_string` bytes of a
//!   fixed corpus (quotes, backslashes, every control character, DEL,
//!   non-ASCII of every UTF-8 width, a 243 KB hex string, a BLIF with a
//!   newline every ~20 bytes, nested containers and numbers), recorded
//!   from commit `450f884` — before the writer copied unescaped runs —
//!   in `goldens/serde_json_corpus.txt`. Entries over 2 KiB are recorded
//!   as SHA-256 and length.
//! * the reader's accepted language, also as `450f884` had it: which
//!   escapes decode to what, that raw control characters inside a string
//!   are accepted, and which malformed inputs fail with which message
//!   (`bad JSON: ...` replies carry these texts).
//! * proptests: `from_str(to_string(v)) == v` over strings mixing all of
//!   those character classes, and `\uXXXX` / surrogate-pair escapes
//!   decoding to the character they name.

use fpga_framework::flow::hash::digest_hex;
use proptest::prelude::*;
use serde_json::{json, Map, Number, Value};

/// Deterministic bytes for the large entries (64-bit LCG, high byte).
fn lcg_bytes(n: usize, mut state: u64) -> Vec<u8> {
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 56) as u8
        })
        .collect()
}

/// Lowercase hex, written out here so the corpus does not depend on the
/// code under test.
fn hex_of(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// A BLIF-shaped text: short lines, so the writer meets an escape every
/// ~20 bytes (the shape of a request's `source` field).
fn blif_like(bytes: usize) -> String {
    let mut text = String::from(".model corpus\n.inputs a b\n.outputs y\n");
    let mut i = 0;
    while text.len() < bytes {
        text.push_str(&format!(".names n{i} n{} n{}\n11 1\n", i + 1, i + 2));
        i += 1;
    }
    text.push_str(".end\n");
    text
}

fn every_control_char() -> String {
    (0u8..0x20).chain([0x7f]).map(char::from).collect()
}

const NON_ASCII: &str = "é ß € 日本語 𝄞 \u{80} \u{7ff} \u{800} \u{ffff} \u{10000} \u{10ffff}";

/// The fixed corpus, in golden-file order.
fn corpus() -> Vec<(&'static str, Value)> {
    let bitstream_hex = hex_of(&lcg_bytes(121_500, 17));
    let blif = blif_like(89_000);
    let mut escaped_keys = Map::new();
    escaped_keys.insert("plain".to_string(), json!(1u8));
    escaped_keys.insert("quo\"te".to_string(), json!("v\"q"));
    escaped_keys.insert("back\\slash".to_string(), json!("v\\b"));
    escaped_keys.insert("new\nline".to_string(), json!("v\nn"));
    escaped_keys.insert("ünï".to_string(), json!("ö"));
    vec![
        ("empty", json!("")),
        ("plain", json!("the quick brown fox")),
        ("quotes", json!("say \"hi\", then \"\"bye\"\"\"")),
        ("backslashes", json!("C:\\dir\\\\file\\")),
        ("quote_backslash_mix", json!("\\\"\\\\\"\"\\")),
        ("controls", Value::String(every_control_char())),
        (
            "controls_between_text",
            json!("a\u{0}b\u{1}c\u{8}d\u{b}e\u{c}f\u{1f}g\u{7f}h\ti\nj\rk"),
        ),
        ("non_ascii", json!(NON_ASCII)),
        (
            "non_ascii_with_escapes",
            json!("é\"€\\日\n本\t𝄞\u{1}\u{10ffff}\""),
        ),
        ("hex_243k", Value::String(bitstream_hex.clone())),
        ("blif_89k", Value::String(blif.clone())),
        (
            "numbers",
            json!([
                0u64,
                u64::MAX,
                -1i64,
                i64::MIN,
                1.0f64,
                -0.0f64,
                0.1f64,
                2.5e-7f64,
                1e15f64,
                1e300f64,
                123456789.125f64,
                f64::NAN,
                f64::INFINITY
            ]),
        ),
        (
            "nested",
            json!({
                "null": Value::Null,
                "bools": json!([true, false]),
                "empty_array": json!([]),
                "empty_object": json!({}),
                "deep": json!({"a": json!({"b": json!({"c": json!([json!([json!([1u8])])])})})}),
                "keys": Value::Object(escaped_keys)
            }),
        ),
        (
            "request_line",
            json!({
                "cmd": "compile",
                "proto_version": 6u64,
                "format": "blif",
                "source": blif,
                "options": json!({"place_seed": 3u64, "channel_width": 28u64, "verify_cycles": 0u64}),
                "tenant": "acme \"labs\""
            }),
        ),
        (
            "done_line",
            json!({
                "event": "done",
                "job": 7u64,
                "design": "mult16",
                "report": json!({
                    "design": "mult16",
                    "stages": json!([json!({
                        "stage": "routing (VPR)",
                        "ok": true,
                        "elapsed_ms": 0.25f64,
                        "metrics": json!({"cache": "hit", "cache_tier": "memory"})
                    })])
                }),
                "bitstream_hex": bitstream_hex,
                "lint": json!([])
            }),
        ),
    ]
}

/// One golden line's payload: the bytes themselves, or for the large
/// entries their digest and length.
fn recorded_form(text: &str) -> String {
    if text.len() <= 2048 {
        text.to_string()
    } else {
        format!(
            "sha256={} len={}",
            digest_hex(&[text.as_bytes()]),
            text.len()
        )
    }
}

/// Every corpus entry, compact, and the nested ones pretty-printed too
/// (both writers share the string escaper), one `name<TAB>bytes` line
/// each. Escaping guarantees compact output holds no raw newline or tab;
/// pretty output is flattened with `\n` -> U+2424 for the same reason.
fn rendered_corpus() -> String {
    let mut out = String::new();
    for (name, value) in corpus() {
        let compact = serde_json::to_string(&value).expect("serializes");
        assert_eq!(compact, value.to_string(), "{name}: Display == to_string");
        out.push_str(&format!("{name}\t{}\n", recorded_form(&compact)));
        if matches!(name, "nested" | "numbers" | "controls") {
            let pretty = serde_json::to_string_pretty(&value).expect("serializes");
            let flat = pretty.replace('\n', "\u{2424}");
            out.push_str(&format!("{name}.pretty\t{}\n", recorded_form(&flat)));
        }
    }
    out
}

#[test]
fn corpus_serializes_as_recorded() {
    let recorded = include_str!("goldens/serde_json_corpus.txt");
    let actual = rendered_corpus();
    for (want, got) in recorded.lines().zip(actual.lines()) {
        assert_eq!(got, want, "serialized bytes differ from commit 450f884's");
    }
    assert_eq!(actual.lines().count(), recorded.lines().count());
}

#[test]
fn corpus_round_trips_through_the_reader() {
    for (name, value) in corpus() {
        if name == "numbers" {
            continue; // NaN and infinity are written as null
        }
        let text = serde_json::to_string(&value).expect("serializes");
        let back: Value = serde_json::from_str(&text).expect("reparses");
        assert_eq!(back, value, "{name}");
    }
}

fn parse(text: &str) -> Result<Value, String> {
    serde_json::from_str::<Value>(text).map_err(|e| e.to_string())
}

/// What the reader accepts, as 450f884 accepted it.
#[test]
fn reader_decodes_every_escape_and_takes_raw_bytes_as_they_are() {
    let cases: [(&str, &str); 12] = [
        (r#""""#, ""),
        (r#""\"\\\/\b\f\n\r\t""#, "\"\\/\u{8}\u{c}\n\r\t"),
        (r#""\u0041\u00e9\u20ac\uFFFF""#, "Aé€\u{ffff}"),
        (r#""\u0000\u001f\u007F""#, "\u{0}\u{1f}\u{7f}"),
        (r#""\ud834\udd1e \uD83D\uDE00""#, "𝄞 😀"),
        (r#""x\ud834\udd1ey""#, "x𝄞y"),
        // Raw (unescaped) control characters, DEL and newlines inside a
        // string are taken as they are — looser than RFC 8259, and what
        // every peer of this reader has always been allowed to send.
        ("\"a\u{1}b\u{1f}c\u{7f}d\"", "a\u{1}b\u{1f}c\u{7f}d"),
        ("\"line\nbreak\ttab\"", "line\nbreak\ttab"),
        ("\"é€日本語𝄞\u{10ffff}\"", "é€日本語𝄞\u{10ffff}"),
        ("\"é\\n€\\\"𝄞\\\\\"", "é\n€\"𝄞\\"),
        ("  \"padded\"  ", "padded"),
        (r#""a/b""#, "a/b"),
    ];
    for (text, want) in cases {
        assert_eq!(parse(text), Ok(Value::String(want.to_string())), "{text:?}");
    }
    // Keys go through the same string reader.
    let v = parse("{\"k\\n\\u00e9\u{1}\": [\"\\ud834\\udd1e\"]}").expect("parses");
    assert_eq!(v["k\né\u{1}"][0].as_str(), Some("𝄞"));
}

/// What the reader refuses, with the messages 450f884 gave.
#[test]
fn reader_rejects_malformed_strings_as_recorded() {
    let cases = [
        (r#""abc"#, "unterminated string at byte 4"),
        (r#"""#, "unterminated string at byte 1"),
        ("\"abc\\", "invalid escape at byte 5"),
        (r#""\x41""#, "invalid escape at byte 3"),
        ("\"\\é\"", "invalid escape at byte 3"),
        (r#""\u12""#, "bad hex digit at byte 6"),
        (r#""\u12"#, "truncated \\u escape at byte 5"),
        (r#""\u12g4""#, "bad hex digit at byte 6"),
        ("\"\\u00é9\"", "bad hex digit at byte 6"),
        (r#""\ud834""#, "unpaired surrogate at byte 8"),
        (r#""\ud834x""#, "unpaired surrogate at byte 8"),
        (r#""\ud834\n""#, "unpaired surrogate at byte 9"),
        (r#""\ud834\u0041""#, "invalid low surrogate at byte 13"),
        (r#""\ud834\ud834""#, "invalid low surrogate at byte 13"),
        (r#""\udd1e""#, "bad codepoint at byte 7"),
        (r#""a" "b""#, "trailing characters at byte 4"),
        (r#"{"a":"b}"#, "unterminated string at byte 8"),
        (r#"{"a"}"#, "expected ':' at byte 5"),
        (r#"["a" "b"]"#, "expected ',' or ']' at byte 6"),
    ];
    for (text, message) in cases {
        assert_eq!(parse(text), Err(message.to_string()), "{text:?}");
    }
}

/// The character classes a wire string mixes: escapes the writer emits
/// (`"`, `\`, control), bytes it copies (ASCII, DEL, 2/3/4-byte UTF-8).
const ALPHABET: [char; 24] = [
    'a',
    'Z',
    '0',
    ' ',
    '/',
    '"',
    '\\',
    '\n',
    '\r',
    '\t',
    '\u{0}',
    '\u{1}',
    '\u{8}',
    '\u{c}',
    '\u{1f}',
    '\u{7f}',
    '\u{80}',
    'é',
    '\u{7ff}',
    '€',
    '\u{ffff}',
    '𝄞',
    '\u{10000}',
    '\u{10ffff}',
];

fn string_of(picks: &[usize]) -> String {
    picks.iter().map(|&i| ALPHABET[i]).collect()
}

/// `c` as the reader must also accept it: `\uXXXX`, a surrogate pair
/// above the BMP; upper- or lowercase hex digits by `upper`.
fn u_escape(c: char, upper: bool) -> String {
    let mut units = [0u16; 2];
    c.encode_utf16(&mut units)
        .iter()
        .map(|u| {
            if upper {
                format!("\\u{u:04X}")
            } else {
                format!("\\u{u:04x}")
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn strings_round_trip(
        picks in collection::vec(0usize..ALPHABET.len(), 0..48),
        key_picks in collection::vec(0usize..ALPHABET.len(), 0..8),
    ) {
        let s = string_of(&picks);
        let mut object = Map::new();
        object.insert(string_of(&key_picks), Value::String(s.clone()));
        let value = Value::Array(vec![
            Value::String(s.clone()),
            Value::Object(object),
            Value::Number(Number::U64(picks.len() as u64)),
        ]);
        for text in [
            serde_json::to_string(&value).expect("serializes"),
            serde_json::to_string_pretty(&value).expect("serializes"),
        ] {
            prop_assert!(!text.contains(|c: char| c < ' ' && c != '\n'), "raw control in {text:?}");
            let back: Value = serde_json::from_str(&text)
                .map_err(|e| TestCaseError::fail(format!("{e}: {text:?}")))?;
            prop_assert_eq!(&back, &value);
        }
    }

    #[test]
    fn u_escapes_decode_to_the_character_they_name(
        picks in collection::vec(0usize..ALPHABET.len(), 1..24),
        escape_mask in 0u32..u32::MAX,
        upper in 0u8..2,
    ) {
        // Escape a subset of the characters as \uXXXX (raw otherwise,
        // except the two that must be escaped to stay inside the quotes).
        let mut text = String::from("\"");
        for (i, &p) in picks.iter().enumerate() {
            let c = ALPHABET[p];
            if escape_mask >> (i % 32) & 1 == 1 || c == '"' || c == '\\' {
                text.push_str(&u_escape(c, upper == 1));
            } else {
                text.push(c);
            }
        }
        text.push('"');
        prop_assert_eq!(parse(&text), Ok(Value::String(string_of(&picks))), "{:?}", text);
    }

    #[test]
    fn truncated_documents_never_parse(
        picks in collection::vec(0usize..ALPHABET.len(), 1..24),
        cut in 0usize..1000,
    ) {
        let text = serde_json::to_string(&json!({"k": string_of(&picks)})).expect("serializes");
        let mut cut = 1 + cut % (text.len() - 1);
        while !text.is_char_boundary(cut) {
            cut -= 1;
        }
        prop_assert!(parse(&text[..cut]).is_err(), "{:?}", &text[..cut]);
    }
}
