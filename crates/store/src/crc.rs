//! CRC-32 (IEEE 802.3 polynomial, reflected) — the checksum guarding
//! every WAL frame and every table file. Table-driven, std-only; the table is
//! built once at first use.

use std::sync::OnceLock;

/// The reflected IEEE polynomial (0x04C11DB7 bit-reversed).
const POLY: u32 = 0xEDB8_8320;

fn table() -> &'static [u32; 256] {
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        let mut i = 0usize;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
                k += 1;
            }
            t[i] = c;
            i += 1;
        }
        t
    })
}

/// CRC-32 of `bytes` (init `0xFFFF_FFFF`, final xor `0xFFFF_FFFF` — the
/// zlib/`cksum -o 3` convention).
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = table();
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = t[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
