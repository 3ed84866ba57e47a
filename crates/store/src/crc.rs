//! CRC-32 (IEEE 802.3 polynomial, reflected) — the checksum guarding
//! every WAL frame and every table file. Slicing-by-8, std-only: eight
//! 256-entry tables built at compile time fold eight input bytes per step,
//! so recovery checksums a log at several bytes per cycle instead of one.

/// The reflected IEEE polynomial (0x04C11DB7 bit-reversed).
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic bytewise table; `TABLES[k][b]` is the CRC
/// state of byte `b` followed by `k` zero bytes.
static TABLES: [[u32; 256]; 8] = tables();

const fn tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// CRC-32 of `bytes` (init `0xFFFF_FFFF`, final xor `0xFFFF_FFFF` — the
/// zlib/`cksum -o 3` convention).
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for b in &mut chunks {
        let lo = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        let hi = u32::from_le_bytes([b[4], b[5], b[6], b[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The bytewise loop, one table lookup per byte: the reference the
    /// sliced version must equal.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn known_vectors() {
        // The canonical check value for "123456789" under CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn sensitive_to_single_bit_flips() {
        let base = crc32(b"crowd answers are expensive");
        let mut flipped = b"crowd answers are expensive".to_vec();
        flipped[3] ^= 0x01;
        assert_ne!(base, crc32(&flipped));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        /// Every length from 0 to 67 (no, one and several 8-byte blocks
        /// plus every remainder), starting at any alignment.
        #[test]
        fn sliced_equals_bytewise(
            bytes in prop::collection::vec(any::<u8>(), 0..75),
            skip in 0usize..8,
        ) {
            let sub = &bytes[skip.min(bytes.len())..];
            let sub = &sub[..sub.len().min(67)];
            prop_assert_eq!(crc32(sub), crc32_bytewise(sub));
        }
    }
}
