//! Hand-rolled little-endian binary codec. The workspace is std-only,
//! so everything the store writes to disk is encoded explicitly here: fixed-width integers plus length-prefixed
//! UTF-8 strings, with a bounds-checked cursor for decoding that borrows
//! strings from the input instead of copying them.

use crate::error::{Result, StoreError};

/// Append a single tag/flag byte.
pub fn put_u8_tag(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

/// Append a `u32` in little-endian order.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u64` in little-endian order.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append an `i64` in little-endian order.
pub fn put_i64(buf: &mut Vec<u8>, v: i64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append an `f64` as its IEEE-754 bit pattern.
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Append a string as `u32` byte length followed by UTF-8 bytes.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Append a bool as a single `0`/`1` byte.
pub fn put_bool(buf: &mut Vec<u8>, v: bool) {
    buf.push(v as u8);
}

/// Bounds-checked sequential reader over an encoded byte slice. Every
/// accessor returns [`StoreError::Decode`] instead of panicking when the
/// input is short or malformed, so corrupt records surface as errors.
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Start reading `buf` from the beginning.
    pub fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fail unless every byte of `what` has been consumed: a record that
    /// decodes with bytes to spare is not one this codec wrote.
    pub fn finish(&self, what: &str) -> Result<()> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(StoreError::Decode { detail: format!("{n} trailing bytes after {what}") }),
        }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(StoreError::Decode {
                detail: format!("{what}: need {n} bytes, {} left", self.remaining()),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        let b = self.take(4, "u32")?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        let b = self.take(8, "u64")?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Read a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64> {
        let b = self.take(8, "i64")?;
        Ok(i64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Read an IEEE-754 `f64`.
    pub fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a `u32`-length-prefixed UTF-8 string, borrowed from the input.
    pub fn str(&mut self) -> Result<&'a str> {
        let len = self.u32()? as usize;
        let b = self.take(len, "str body")?;
        std::str::from_utf8(b)
            .map_err(|e| StoreError::Decode { detail: format!("str not utf-8: {e}") })
    }

    /// Read a bool encoded as a `0`/`1` byte.
    pub fn bool(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(StoreError::Decode { detail: format!("bool byte was {other}") }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_type() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 7);
        put_u64(&mut buf, u64::MAX - 1);
        put_i64(&mut buf, -42);
        put_f64(&mut buf, 2.5);
        put_str(&mut buf, "entailment");
        put_bool(&mut buf, true);

        let mut c = Cursor::new(&buf);
        assert_eq!(c.u32().unwrap(), 7);
        assert_eq!(c.u64().unwrap(), u64::MAX - 1);
        assert_eq!(c.i64().unwrap(), -42);
        assert_eq!(c.f64().unwrap(), 2.5);
        assert_eq!(c.str().unwrap(), "entailment");
        assert!(c.bool().unwrap());
        c.finish("record").unwrap();
    }

    #[test]
    fn short_input_is_a_decode_error_not_a_panic() {
        let mut c = Cursor::new(&[1, 2]);
        assert!(matches!(c.u32(), Err(StoreError::Decode { .. })));
    }

    #[test]
    fn invalid_utf8_and_trailing_bytes_are_decode_errors() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 2);
        buf.extend_from_slice(&[0xC3, 0x28]); // a lead byte without its continuation
        let mut c = Cursor::new(&buf);
        assert!(matches!(c.str(), Err(StoreError::Decode { .. })));

        let mut c = Cursor::new(&[1, 0, 0, 0, 9]);
        assert_eq!(c.u32().unwrap(), 1);
        assert!(matches!(c.finish("record"), Err(StoreError::Decode { .. })));
        c.u8().unwrap();
        assert!(c.finish("record").is_ok());
    }

    #[test]
    fn bad_string_length_is_caught() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 1000); // claims 1000 bytes, provides none
        let mut c = Cursor::new(&buf);
        assert!(matches!(c.str(), Err(StoreError::Decode { .. })));
    }
}
