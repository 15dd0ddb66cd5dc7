//! # simart-codec
//!
//! The byte-level primitives behind every format simart persists or
//! transmits, each implemented exactly once:
//!
//! * [`crc32`] / [`Crc32`] — the IEEE CRC-32 that checksums journal
//!   records, wire frames and checkpoint frames;
//! * [`fnv1a`] — the FNV-1a 64-bit hash behind configuration
//!   fingerprints, checkpoint keys and deterministic fault streams;
//! * [`frame`] — the `[len u32 LE][crc u32 LE][payload]` record frame;
//! * [`json`] — the JSON string literal (escaper and strict reader);
//! * [`hex`] — lowercase hex encoding of byte strings.
//!
//! Reproducibility rests on these being byte-stable: artifacts and
//! runs are content-addressed, and results are replayed from disk, so
//! a change to any output here is a format change. The reference
//! vectors in this crate's tests pin them.
//!
//! ```
//! use simart_codec::{crc32, fnv1a, frame, hex};
//!
//! assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
//! assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
//! let mut bytes = Vec::new();
//! frame::write(&mut bytes, b"payload");
//! assert!(matches!(
//!     frame::decode(&bytes),
//!     frame::Decoded::Complete { payload: b"payload", consumed: 15 }
//! ));
//! assert_eq!(hex::decode(&hex::encode(&[0, 255])), Some(vec![0, 255]));
//! ```

#![deny(missing_docs)]

pub mod frame;
pub mod hex;
pub mod json;

/// IEEE CRC-32 lookup table (reflected polynomial `0xEDB88320`),
/// generated at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// Streaming IEEE CRC-32: feeding a byte string in any chunking yields
/// the same checksum as [`crc32`] over the whole.
///
/// ```
/// let mut hasher = simart_codec::Crc32::new();
/// hasher.update(b"1234");
/// hasher.update(b"56789");
/// assert_eq!(hasher.finish(), simart_codec::crc32(b"123456789"));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// A hasher over the empty string.
    pub fn new() -> Crc32 {
        Crc32 { state: !0 }
    }

    /// Appends `bytes` to the checksummed input.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut state = self.state;
        for &b in bytes {
            state = CRC_TABLE[((state ^ u32::from(b)) & 0xFF) as usize] ^ (state >> 8);
        }
        self.state = state;
    }

    /// The checksum of everything fed so far.
    pub fn finish(self) -> u32 {
        !self.state
    }
}

/// IEEE CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut hasher = Crc32::new();
    hasher.update(bytes);
    hasher.finish()
}

/// FNV-1a 64-bit hash of `bytes` — stable across platforms and
/// releases, so it may key anything persisted.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}
