//! The JSON string literal: the one piece of JSON every simart format
//! shares (database documents, wire messages, traces and metrics).
//! Number and container syntax stay with each format, since they map
//! values to different types.
//!
//! The writer escapes `"`, `\`, and every control character, and emits
//! everything else verbatim. The reader is strict: it rejects raw
//! control characters and unpaired surrogate escapes. Everything the
//! writer produces therefore reads back unchanged.

use crate::hex::DIGITS;

/// Appends `s` to `out` as a quoted JSON string literal.
///
/// ```
/// let mut out = String::new();
/// simart_codec::json::write_string(&mut out, "tab\there \"q\"");
/// assert_eq!(out, r#""tab\there \"q\"""#);
/// ```
pub fn write_string(out: &mut String, s: &str) {
    out.push('"');
    let mut plain = 0;
    for (i, b) in s.bytes().enumerate() {
        let named = match b {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            0..=0x1F => None,
            _ => continue,
        };
        // Every escaped byte is ASCII, so `i` is a char boundary.
        out.push_str(&s[plain..i]);
        match named {
            Some(escape) => out.push_str(escape),
            None => {
                out.push_str("\\u00");
                out.push(char::from(DIGITS[usize::from(b >> 4)]));
                out.push(char::from(DIGITS[usize::from(b & 0xF)]));
            }
        }
        plain = i + 1;
    }
    out.push_str(&s[plain..]);
    out.push('"');
}

/// Why [`read_string`] rejected its input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StringError {
    /// Byte offset into the text at which the problem was detected.
    pub offset: usize,
    /// What was wrong.
    pub message: &'static str,
}

/// Reads the body of a JSON string literal from `text`.
///
/// `*pos` is the byte offset just past the opening quote (the caller
/// matches that quote, as it is part of its own grammar). On success
/// the unescaped string is returned and `*pos` moves just past the
/// closing quote.
///
/// ```
/// let text = r#""aé😀" tail"#;
/// let mut pos = 1;
/// assert_eq!(simart_codec::json::read_string(text, &mut pos).unwrap(), "aé😀");
/// assert_eq!(&text[pos..], " tail");
/// ```
///
/// # Errors
///
/// A [`StringError`] for an unterminated literal, an unknown or
/// truncated escape, an unpaired surrogate, or a raw control
/// character.
pub fn read_string(text: &str, pos: &mut usize) -> Result<String, StringError> {
    let bytes = text.as_bytes();
    let fail = |offset, message| Err(StringError { offset, message });
    let mut i = *pos;
    let mut out = String::new();
    loop {
        let plain = i;
        while bytes
            .get(i)
            .is_some_and(|&b| b != b'"' && b != b'\\' && b >= 0x20)
        {
            i += 1;
        }
        // The scan stops only at ASCII bytes or the end, both char
        // boundaries.
        out.push_str(&text[plain..i]);
        match bump(bytes, &mut i) {
            None => return fail(i, "unterminated string"),
            Some(b'"') => {
                *pos = i;
                return Ok(out);
            }
            Some(b'\\') => match bump(bytes, &mut i) {
                Some(b'"') => out.push('"'),
                Some(b'\\') => out.push('\\'),
                Some(b'/') => out.push('/'),
                Some(b'n') => out.push('\n'),
                Some(b'r') => out.push('\r'),
                Some(b't') => out.push('\t'),
                Some(b'b') => out.push('\u{8}'),
                Some(b'f') => out.push('\u{c}'),
                Some(b'u') => {
                    let code = hex4(bytes, &mut i)?;
                    let c = if (0xD800..0xDC00).contains(&code) {
                        if bump(bytes, &mut i) != Some(b'\\') || bump(bytes, &mut i) != Some(b'u') {
                            return fail(i, "unpaired surrogate");
                        }
                        let low = hex4(bytes, &mut i)?;
                        if !(0xDC00..0xE000).contains(&low) {
                            return fail(i, "invalid low surrogate");
                        }
                        char::from_u32(0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00))
                    } else {
                        char::from_u32(code)
                    };
                    match c {
                        Some(c) => out.push(c),
                        None => return fail(i, "invalid unicode escape"),
                    }
                }
                _ => return fail(i, "invalid escape sequence"),
            },
            Some(_) => return fail(i, "control character in string"),
        }
    }
}

/// The byte at `*i`, advancing past it.
fn bump(bytes: &[u8], i: &mut usize) -> Option<u8> {
    let b = *bytes.get(*i)?;
    *i += 1;
    Some(b)
}

/// The four hex digits of a `\u` escape.
fn hex4(bytes: &[u8], i: &mut usize) -> Result<u32, StringError> {
    let mut code = 0;
    for _ in 0..4 {
        let Some(b) = bump(bytes, i) else {
            return Err(StringError {
                offset: *i,
                message: "truncated \\u escape",
            });
        };
        let Some(digit) = char::from(b).to_digit(16) else {
            return Err(StringError {
                offset: *i,
                message: "invalid hex digit",
            });
        };
        code = code * 16 + digit;
    }
    Ok(code)
}
