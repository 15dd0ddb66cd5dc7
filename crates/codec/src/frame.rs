//! The length-prefixed, checksummed record frame shared by the
//! database journal, the remote-worker wire protocol and boot
//! checkpoints:
//!
//! ```text
//! +----------------+----------------+====================+
//! | len: u32 LE    | crc: u32 LE    | payload (len bytes)|
//! +----------------+----------------+====================+
//! ```
//!
//! `crc` is the IEEE [`crc32`](crate::crc32) of the payload. The
//! decoder only classifies the bytes in front of it; what a short or
//! corrupt frame *means* (a torn journal tail, a stream that needs more
//! bytes, a corrupt checkpoint) is each caller's policy.

/// Bytes of header before each payload.
pub const HEADER_LEN: usize = 8;

/// What [`decode`] found at the start of a byte slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decoded<'a> {
    /// A whole frame whose payload matches its checksum.
    Complete {
        /// The frame's payload.
        payload: &'a [u8],
        /// Bytes the frame occupies, header included.
        consumed: usize,
    },
    /// The slice ends inside the header or the payload.
    Incomplete,
    /// The payload is all there but does not match its checksum.
    BadCrc {
        /// Checksum stored in the header.
        expected: u32,
        /// Checksum computed over the payload.
        actual: u32,
    },
}

/// Appends one frame carrying `payload` to `out`.
///
/// # Panics
///
/// Panics if `payload` is longer than `u32::MAX` bytes, which the
/// length field cannot express.
pub fn write(out: &mut Vec<u8>, payload: &[u8]) {
    let len = u32::try_from(payload.len()).expect("frame payload fits the u32 length field");
    out.reserve(HEADER_LEN + payload.len());
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&crate::crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// The payload length a frame header at the start of `bytes`
/// declares, or `None` until the whole header is present.
pub fn declared_len(bytes: &[u8]) -> Option<usize> {
    let header = bytes.get(..HEADER_LEN)?;
    Some(u32::from_le_bytes([header[0], header[1], header[2], header[3]]) as usize)
}

/// Classifies the frame at the start of `bytes`.
pub fn decode(bytes: &[u8]) -> Decoded<'_> {
    let Some(len) = declared_len(bytes) else {
        return Decoded::Incomplete;
    };
    let Some(payload) = bytes.get(HEADER_LEN..).and_then(|rest| rest.get(..len)) else {
        return Decoded::Incomplete;
    };
    let expected = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
    let actual = crate::crc32(payload);
    if actual != expected {
        return Decoded::BadCrc { expected, actual };
    }
    Decoded::Complete {
        payload,
        consumed: HEADER_LEN + len,
    }
}
