//! Reference vectors and properties for the shared codec primitives.

use proptest::prelude::*;
use simart_codec::frame::{self, Decoded};
use simart_codec::{crc32, fnv1a, hex, json, Crc32};

/// Arbitrary strings weighted towards the characters the JSON string
/// codec treats specially: ASCII (including every control character),
/// then two-, three- and four-byte UTF-8.
fn any_string() -> impl Strategy<Value = String> {
    proptest::collection::vec(any::<u32>(), 0..48).prop_map(|draws| {
        draws
            .into_iter()
            .map(|x| {
                let code = match x % 4 {
                    0 => x % 0x80,
                    1 => x % 0x800,
                    2 => x % 0x1_0000,
                    _ => x % 0x11_0000,
                };
                char::from_u32(code).unwrap_or('\u{FFFD}')
            })
            .collect()
    })
}

#[test]
fn crc32_matches_reference_vectors() {
    // Standard check value for the IEEE polynomial.
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(crc32(b""), 0);
}

#[test]
fn fnv_known_values() {
    // FNV-1a published test vectors.
    assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
    assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
    assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
}

proptest! {
    /// Feeding the streaming hasher any chunking of any input yields
    /// the one-shot checksum — the property the journal's prefix
    /// checksum (read in 64 KiB chunks) relies on.
    #[test]
    fn streaming_crc_equals_one_shot_over_any_chunking(
        data in proptest::collection::vec(any::<u8>(), 0..512),
        cuts in proptest::collection::vec(any::<u16>(), 0..16),
    ) {
        let mut bounds: Vec<usize> = cuts.iter().map(|&c| c as usize % (data.len() + 1)).collect();
        bounds.push(0);
        bounds.push(data.len());
        bounds.sort_unstable();
        let mut hasher = Crc32::new();
        for window in bounds.windows(2) {
            hasher.update(&data[window[0]..window[1]]);
        }
        prop_assert_eq!(hasher.finish(), crc32(&data));
    }

    /// Every strict prefix of a frame is incomplete, the whole frame
    /// decodes to its payload, and trailing bytes are left unconsumed.
    #[test]
    fn frames_decode_whole_and_only_whole(
        payload in proptest::collection::vec(any::<u8>(), 0..64),
        trailer in proptest::collection::vec(any::<u8>(), 0..8),
    ) {
        let mut bytes = Vec::new();
        frame::write(&mut bytes, &payload);
        let len = bytes.len();
        for cut in 0..len {
            prop_assert_eq!(frame::decode(&bytes[..cut]), Decoded::Incomplete);
        }
        bytes.extend_from_slice(&trailer);
        prop_assert_eq!(
            frame::decode(&bytes),
            Decoded::Complete { payload: &payload, consumed: len }
        );
        prop_assert_eq!(frame::declared_len(&bytes), Some(payload.len()));
    }

    /// The string reader inverts the writer for every string, and the
    /// written literal never contains a raw control character.
    #[test]
    fn json_strings_round_trip(s in any_string()) {
        let mut text = String::new();
        json::write_string(&mut text, &s);
        prop_assert!(text.bytes().all(|b| b >= 0x20));
        text.push_str(",rest");
        let mut pos = 1;
        prop_assert_eq!(json::read_string(&text, &mut pos), Ok(s));
        prop_assert_eq!(&text[pos..], ",rest");
    }

    #[test]
    fn hex_round_trips(bytes in proptest::collection::vec(any::<u8>(), 0..40)) {
        let text = hex::encode(&bytes);
        prop_assert!(text.bytes().all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b)));
        prop_assert_eq!(hex::decode(&text), Some(bytes.clone()));
        prop_assert_eq!(hex::decode(&text.to_uppercase()), Some(bytes));
    }
}

#[test]
fn corrupt_payload_is_a_crc_mismatch() {
    let mut bytes = Vec::new();
    frame::write(&mut bytes, b"payload");
    bytes[frame::HEADER_LEN] ^= 1;
    assert!(matches!(frame::decode(&bytes), Decoded::BadCrc { .. }));
}

#[test]
fn json_writer_escapes_quotes_backslashes_and_control_chars() {
    let written = |s: &str| {
        let mut out = String::new();
        json::write_string(&mut out, s);
        out
    };
    assert_eq!(written("plain ✓"), "\"plain ✓\"");
    assert_eq!(written("a\"b\\c"), "\"a\\\"b\\\\c\"");
    assert_eq!(written("x\n\t\r"), "\"x\\n\\t\\r\"");
    assert_eq!(written("\u{1}\u{1f}"), "\"\\u0001\\u001f\"");
}

#[test]
fn json_reader_is_strict_and_reports_offsets() {
    let read = |text: &str| json::read_string(text, &mut 1);
    let err = |offset, message| Err(json::StringError { offset, message });
    assert_eq!(read("\"\\ud83d\\ude00\""), Ok("\u{1F600}".to_owned()));
    assert_eq!(read("\"abc"), err(4, "unterminated string"));
    assert_eq!(read("\"a\u{1}\""), err(3, "control character in string"));
    assert_eq!(read("\"\\q\""), err(3, "invalid escape sequence"));
    assert_eq!(read("\"\\ud83d\""), err(8, "unpaired surrogate"));
    assert_eq!(read("\"\\ud83d\\u0041\""), err(13, "invalid low surrogate"));
    assert_eq!(read("\"\\ude00\""), err(7, "invalid unicode escape"));
    assert_eq!(read("\"\\u12"), err(5, "truncated \\u escape"));
    assert_eq!(read("\"\\u12g4\""), err(6, "invalid hex digit"));
}

#[test]
fn hex_rejects_non_digits_without_panicking() {
    assert_eq!(hex::decode("abc"), None);
    assert_eq!(hex::decode("zz"), None);
    assert_eq!(hex::decode("+f"), None);
    // Multi-byte characters put char boundaries off the two-digit
    // grid; decoding must reject them, not slice through them.
    assert_eq!(hex::decode("a€€€€€€€€€€0"), None);
    assert_eq!(hex::decode("€0"), None);
}
