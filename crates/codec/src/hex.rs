//! Lowercase hex encoding of byte strings (digest names, blob keys,
//! blob bytes inside journal records).

pub(crate) const DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Renders `bytes` as lowercase hex, two digits per byte.
pub fn encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        out.push(char::from(DIGITS[usize::from(b >> 4)]));
        out.push(char::from(DIGITS[usize::from(b & 0xF)]));
    }
    out
}

/// Parses hex (either case) back into bytes.
///
/// Returns `None` for an odd length or any character that is not a hex
/// digit — including signs and multi-byte characters, which are never
/// sliced through.
pub fn decode(hex: &str) -> Option<Vec<u8>> {
    let digits = hex.as_bytes();
    if !digits.len().is_multiple_of(2) {
        return None;
    }
    digits
        .chunks_exact(2)
        .map(|pair| Some((nibble(pair[0])? << 4) | nibble(pair[1])?))
        .collect()
}

fn nibble(digit: u8) -> Option<u8> {
    char::from(digit).to_digit(16).map(|d| d as u8)
}
