//! A tiny versioned binary codec (std-only, no serde).
//!
//! Everything the database persists goes through [`Writer`] / [`Reader`]:
//! little-endian fixed-width integers, length-prefixed byte strings, and
//! raw 128-bit digests. The reader is fully bounds-checked and returns
//! [`DbError`] instead of panicking on truncated or corrupt input.

use crate::digest::Digest;
use std::fmt;

/// Errors produced while loading a database image.
#[derive(Debug)]
pub enum DbError {
    /// The input ended before a field could be read.
    Truncated,
    /// The file does not start with the `O2DB` magic.
    BadMagic,
    /// The file has an unsupported format version.
    BadVersion(u32),
    /// A structural invariant of the image is violated.
    Corrupt(&'static str),
    /// An underlying I/O failure.
    Io(std::io::Error),
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Truncated => write!(f, "database image is truncated"),
            DbError::BadMagic => write!(f, "not an O2 analysis database (bad magic)"),
            DbError::BadVersion(v) => write!(f, "unsupported database version {v}"),
            DbError::Corrupt(what) => write!(f, "corrupt database image: {what}"),
            DbError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for DbError {}

impl From<std::io::Error> for DbError {
    fn from(e: std::io::Error) -> Self {
        DbError::Io(e)
    }
}

/// An append-only binary encoder.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, x: u32) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, x: u64) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    /// Appends an element count (a `usize` as a `u64`).
    pub fn count(&mut self, x: usize) {
        self.u64(x as u64);
    }

    /// Appends a length-prefixed byte string.
    pub fn bytes(&mut self, x: &[u8]) {
        self.count(x.len());
        self.buf.extend_from_slice(x);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, x: &str) {
        self.bytes(x.as_bytes());
    }

    /// Appends a digest (two `u64` words).
    pub fn digest(&mut self, d: Digest) {
        self.u64(d.0);
        self.u64(d.1);
    }
}

/// A bounds-checked binary decoder over a byte slice.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Returns `true` if every byte has been consumed.
    pub fn is_done(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DbError> {
        let end = self.pos.checked_add(n).ok_or(DbError::Truncated)?;
        if end > self.buf.len() {
            return Err(DbError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, DbError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, DbError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a count written by [`Writer::count`], bounded by the bytes
    /// remaining so corrupt lengths cannot trigger huge allocations
    /// (every counted element occupies at least one byte).
    pub fn count(&mut self) -> Result<usize, DbError> {
        let n = self.u64()?;
        let n = usize::try_from(n).map_err(|_| DbError::Corrupt("length overflows usize"))?;
        if n > self.buf.len() - self.pos {
            return Err(DbError::Corrupt("length exceeds image size"));
        }
        Ok(n)
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], DbError> {
        let n = self.count()?;
        self.take(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, DbError> {
        let b = self.bytes()?;
        String::from_utf8(b.to_vec()).map_err(|_| DbError::Corrupt("invalid UTF-8"))
    }

    /// Reads a digest.
    pub fn digest(&mut self) -> Result<Digest, DbError> {
        Ok(Digest(self.u64()?, self.u64()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        let mut w = Writer::new();
        w.u32(70_000);
        w.u64(1 << 40);
        w.str("héllo");
        w.digest(Digest(3, 4));
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u32().unwrap(), 70_000);
        assert_eq!(r.u64().unwrap(), 1 << 40);
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.digest().unwrap(), Digest(3, 4));
        assert!(r.is_done());
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut w = Writer::new();
        w.u64(5);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes[..4]);
        assert!(matches!(r.u64(), Err(DbError::Truncated)));
    }
}
