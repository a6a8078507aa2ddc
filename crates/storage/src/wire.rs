//! Little-endian wire helpers for block and file serialization.
//!
//! Kept dependency-free on purpose: the formats are simple enough that a
//! handful of fixed-width put/get helpers beats pulling in a codec crate.

use matstrat_common::{Error, Result};

/// Append a `u8`.
#[inline]
pub fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

/// Append a `u16` little-endian.
#[inline]
pub fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u32` little-endian.
#[inline]
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u64` little-endian.
#[inline]
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append an `i64` little-endian.
#[inline]
pub fn put_i64(buf: &mut Vec<u8>, v: i64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// A bounds-checked little-endian reader over a byte slice.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    /// Start reading `buf` from offset 0.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, at: 0 }
    }

    /// Current read offset.
    pub fn offset(&self) -> usize {
        self.at
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.at
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(Error::corrupt(format!(
                "truncated buffer: need {n} bytes at offset {}, have {}",
                self.at,
                self.remaining()
            )));
        }
        let s = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    /// Read a `u8`.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        self.take(n)
    }

    /// Read a `u32` count of `unit`-byte items that must still follow,
    /// refusing one the remaining bytes cannot hold — an untrusted count
    /// is bounded before anything is sized from it.
    pub fn count(&mut self, unit: usize, what: &str) -> Result<usize> {
        let n = self.u32()? as usize;
        if n > self.remaining() / unit.max(1) {
            return Err(Error::corrupt(format!(
                "{n} {what} cannot fit in the {} bytes left",
                self.remaining()
            )));
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_widths() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 0xAB);
        put_u16(&mut buf, 0xBEEF);
        put_u32(&mut buf, 0xDEADBEEF);
        put_u64(&mut buf, 0x0123_4567_89AB_CDEF);
        put_i64(&mut buf, -42);
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8().unwrap(), 0xAB);
        assert_eq!(r.u16().unwrap(), 0xBEEF);
        assert_eq!(r.u32().unwrap(), 0xDEADBEEF);
        assert_eq!(r.u64().unwrap(), 0x0123_4567_89AB_CDEF);
        assert_eq!(r.i64().unwrap(), -42);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn truncated_read_is_error() {
        let buf = [1u8, 2, 3];
        let mut r = Reader::new(&buf);
        assert!(r.u16().is_ok());
        assert!(r.u32().is_err());
    }

    #[test]
    fn bytes_and_offset() {
        let buf = [1u8, 2, 3, 4, 5];
        let mut r = Reader::new(&buf);
        assert_eq!(r.bytes(2).unwrap(), &[1, 2]);
        assert_eq!(r.offset(), 2);
        assert_eq!(r.remaining(), 3);
    }
}
