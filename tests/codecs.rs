//! Property tests for the daemon's hand-rolled wire codecs: base64
//! (`milr::serve::base64`) and JSON (`milr::serve::Json`). The contract
//! under attack: round-trips are exact, adversarial input never panics,
//! and every rejection is an error value — the codecs sit directly on
//! the network boundary.

use milr::serve::{base64, Json};
use proptest::collection::vec;
use proptest::prelude::*;

/// Arbitrary bytes (the vendored proptest has no `u8` range strategy;
/// go through `u32`).
fn bytes(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    vec((0u32..256).prop_map(|b| b as u8), 0..max_len)
}

/// Arbitrary printable-ish ASCII text, the adversarial alphabet for
/// base64: mostly-valid symbols with invalid ones mixed in.
fn ascii_text(max_len: usize) -> impl Strategy<Value = String> {
    vec(
        (32u32..127).prop_map(|c| char::from_u32(c).unwrap()),
        0..max_len,
    )
    .prop_map(|chars| chars.into_iter().collect())
}

/// Arbitrary unicode strings, including controls, quotes, backslashes
/// and astral-plane characters — the JSON string escaper's worst case.
fn unicode_text(max_len: usize) -> impl Strategy<Value = String> {
    vec(
        (0u32..0x11_0000).prop_map(|c| char::from_u32(c).unwrap_or('\u{FFFD}')),
        0..max_len,
    )
    .prop_map(|chars| chars.into_iter().collect())
}

/// A self-contained SplitMix64, so arbitrary JSON documents can be a
/// pure function of one generated seed.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Builds an arbitrary JSON document from a seed: every value kind,
/// nested arrays/objects, escaped keys, and finite numbers spanning
/// magnitudes (NaN dumps as `null` by design, so it cannot round-trip
/// and is excluded).
fn arbitrary_json(state: &mut u64, depth: usize) -> Json {
    let kinds = if depth == 0 { 4 } else { 6 };
    match splitmix(state) % kinds {
        0 => Json::Null,
        1 => Json::Bool(splitmix(state).is_multiple_of(2)),
        2 => {
            let magnitude = [1.0, 1e-7, 1e3, 1e17][(splitmix(state) % 4) as usize];
            let v = (splitmix(state) as i64 as f64 / (1u64 << 40) as f64) * magnitude;
            Json::Num(v)
        }
        3 => {
            let text: String = (0..splitmix(state) % 8)
                .map(|_| char::from_u32((splitmix(state) % 0xD7FF) as u32).unwrap_or('\u{FFFD}'))
                .collect();
            Json::Str(text)
        }
        4 => Json::Arr(
            (0..splitmix(state) % 4)
                .map(|_| arbitrary_json(state, depth - 1))
                .collect(),
        ),
        _ => Json::Obj(
            (0..splitmix(state) % 4)
                .map(|i| {
                    let key = format!("k{}\"\\\n{}", i, splitmix(state) % 10);
                    (key, arbitrary_json(state, depth - 1))
                })
                .collect(),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn base64_round_trips_any_bytes(data in bytes(300)) {
        let encoded = base64::encode(&data);
        prop_assert_eq!(encoded.len(), data.len().div_ceil(3) * 4);
        prop_assert!(encoded.bytes().all(|b| b.is_ascii_alphanumeric()
            || matches!(b, b'+' | b'/' | b'=')));
        prop_assert_eq!(base64::decode(&encoded), Ok(data.clone()));
        // Unpadded form decodes to the same bytes.
        prop_assert_eq!(base64::decode(encoded.trim_end_matches('=')), Ok(data));
    }

    #[test]
    fn base64_decode_is_total_and_canonical(text in ascii_text(120)) {
        // Adversarial input: never panic, and anything accepted must be
        // canonical — re-encoding reproduces the input up to padding.
        if let Ok(decoded) = base64::decode(&text) {
            prop_assert!(
                base64::encode(&decoded).trim_end_matches('=') == text.trim_end_matches('='),
                "accepted base64 {text:?} must be canonical"
            );
        }
    }

    #[test]
    fn base64_rejects_any_corrupted_symbol(data in bytes(60), at in 0usize..1000, bad in 0u32..32) {
        // Replace one symbol with a byte outside the alphabet.
        let mut encoded = base64::encode(&data).into_bytes();
        prop_assume!(!encoded.is_empty());
        let at = at % encoded.len();
        encoded[at] = bad as u8; // control bytes: never valid base64
        let corrupted = String::from_utf8(encoded).unwrap();
        prop_assert!(
            base64::decode(&corrupted).is_err(),
            "corrupted input {corrupted:?} must be rejected"
        );
    }

    #[test]
    fn json_documents_round_trip_exactly(seed in 0u64..u64::MAX) {
        let mut state = seed;
        let doc = arbitrary_json(&mut state, 4);
        let dumped = doc.dump();
        let parsed = Json::parse(&dumped)
            .unwrap_or_else(|e| panic!("own dump must parse: {e}\n{dumped}"));
        prop_assert!(parsed == doc, "parse(dump(x)) must equal x: {dumped}");
        // Byte stability: a second hop changes nothing.
        prop_assert_eq!(parsed.dump(), dumped);
    }

    #[test]
    fn json_strings_survive_any_unicode(text in unicode_text(60)) {
        let doc = Json::Str(text.clone());
        let parsed = Json::parse(&doc.dump()).expect("escaped string parses");
        prop_assert_eq!(parsed.as_str(), Some(text.as_str()));
    }

    #[test]
    fn json_parse_never_panics_on_garbage(text in unicode_text(100)) {
        // Totality: any input yields Ok or Err, never a panic.
        let _ = Json::parse(&text);
    }

    #[test]
    fn json_parse_never_panics_on_truncated_documents(seed in 0u64..u64::MAX, cut in 0usize..1000) {
        let mut state = seed;
        let dumped = arbitrary_json(&mut state, 4).dump();
        prop_assume!(!dumped.is_empty());
        let mut cut = cut % dumped.len();
        while !dumped.is_char_boundary(cut) {
            cut -= 1;
        }
        let _ = Json::parse(&dumped[..cut]);
    }
}

// Committed regression cases: inputs that historically trip hand-rolled
// parsers. Kept explicit (not generated) so a failure names its input.

#[test]
fn json_rejects_hostile_nesting_without_overflow() {
    let deep = "[".repeat(5000) + &"]".repeat(5000);
    let err = Json::parse(&deep).expect_err("hostile nesting must be rejected");
    assert!(err.contains("nesting"), "diagnostic names the cause: {err}");
    // A depth well under the limit still parses.
    let ok = "[".repeat(20) + "0" + &"]".repeat(20);
    assert!(Json::parse(&ok).is_ok());
}

#[test]
fn json_classic_adversarial_inputs_error_cleanly() {
    for input in [
        "",
        "{",
        "[",
        "\"",
        "\"\\",
        "\"\\u",
        "\"\\u12",
        "\"\\ud800\"",        // lone high surrogate
        "\"\\udc00\"",        // lone low surrogate
        "\"\\ud800\\u0041\"", // high surrogate + non-surrogate
        "{\"a\"}",
        "{\"a\":}",
        "[1,]",
        "[1 2]",
        "+1",
        "-",
        ".5",
        "1e",
        "truely",
        "nul",
        "{\"a\":1}x",
        "\u{FEFF}{}", // BOM is not whitespace
    ] {
        let result = Json::parse(input);
        assert!(
            result.is_err(),
            "{input:?} must be rejected, got {result:?}"
        );
    }
}

#[test]
fn json_accepts_standard_edge_cases() {
    for (input, expected) in [
        ("null", Json::Null),
        (" [ ] ", Json::Arr(vec![])),
        ("{ }", Json::Obj(vec![])),
        ("-0", Json::Num(0.0)),
        ("1e3", Json::Num(1000.0)),
        ("1E-2", Json::Num(0.01)),
        ("\"\\ud83d\\ude00\"", Json::Str("😀".into())), // surrogate pair
        ("\"\\u0000\"", Json::Str("\0".into())),
    ] {
        assert_eq!(Json::parse(input), Ok(expected), "input {input:?}");
    }
}

#[test]
fn base64_committed_regressions() {
    // Padding abuse and dangling units.
    for bad in ["=", "==", "A", "A===", "AB=C", "Zg=", "Zg===", "Zh=="] {
        assert!(base64::decode(bad).is_err(), "{bad:?} must be rejected");
    }
    // Whitespace is not silently skipped (strict codec).
    assert!(base64::decode("Zm 9v").is_err());
    // Canonical pair survives.
    assert_eq!(base64::decode("AA==").unwrap(), vec![0]);
    assert_eq!(base64::encode(&[0]), "AA==");
}
