//! Low-level wire encoding/decoding primitives.
//!
//! [`Encoder`] owns the output buffer and the name-compression table;
//! [`Decoder`] is a bounds-checked cursor over the full message (decoding
//! names requires random access for compression pointers, so the decoder
//! keeps the entire message slice).

use std::fmt;

/// Maximum DNS message size we accept (EDNS-sized; we do not implement
/// truncation/TCP fallback — the simulated transport delivers whole
/// datagrams).
pub const MAX_MESSAGE_SIZE: usize = 4096;
/// Safety cap on compression-pointer hops while reading a name.
pub(crate) const MAX_POINTER_HOPS: usize = 64;

/// Errors produced while decoding (or, rarely, encoding) wire data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Input ended before a complete field.
    Truncated,
    /// A compression pointer pointed forward or formed a loop.
    BadPointer,
    /// A label exceeded 63 octets or a name exceeded 255 octets.
    NameTooLong,
    /// A label length byte used the reserved `0b10`/`0b01` prefix.
    BadLabelType(u8),
    /// RDATA length did not match the records's actual encoding.
    BadRdataLength,
    /// An unknown resource-record type appeared where we must parse RDATA.
    UnknownType(u16),
    /// Trailing garbage after the final section.
    TrailingBytes(usize),
    /// The message exceeded [`MAX_MESSAGE_SIZE`] on encode.
    TooBig(usize),
    /// Label content failed validation (e.g. non-ASCII in presentation form).
    BadLabel,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "message truncated"),
            WireError::BadPointer => write!(f, "bad compression pointer"),
            WireError::NameTooLong => write!(f, "name exceeds RFC 1035 limits"),
            WireError::BadLabelType(b) => write!(f, "reserved label type byte {b:#04x}"),
            WireError::BadRdataLength => write!(f, "rdata length mismatch"),
            WireError::UnknownType(t) => write!(f, "unknown RR type {t}"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
            WireError::TooBig(n) => {
                write!(f, "encoded message is {n} bytes (limit {MAX_MESSAGE_SIZE})")
            }
            WireError::BadLabel => write!(f, "invalid label content"),
        }
    }
}

impl std::error::Error for WireError {}

/// Wire encoder with RFC 1035 §4.1.4 name compression.
///
/// The compression table is a list of buffer offsets, one per name suffix
/// written in full; a suffix's bytes are read back from the buffer when it
/// is looked up. Each suffix is remembered at its first occurrence only,
/// so pointers always target the earliest copy.
pub struct Encoder {
    buf: Vec<u8>,
    /// Offsets of remembered name suffixes, in the order written. Only
    /// offsets ≤ 0x3FFF are eligible as compression targets.
    names: Vec<u16>,
}

impl Encoder {
    /// New encoder with a reasonable initial capacity.
    pub fn new() -> Self {
        Encoder {
            buf: Vec::with_capacity(512),
            // Room for the suffixes of a typical reply without regrowing.
            names: Vec::with_capacity(32),
        }
    }

    /// Current output length (also the offset of the next byte).
    pub fn position(&self) -> usize {
        self.buf.len()
    }

    /// Append a raw byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a big-endian u16.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Append a big-endian u32.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Append raw bytes.
    pub fn put_slice(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Patch a previously written u16 (used for RDLENGTH back-patching).
    pub fn patch_u16(&mut self, at: usize, v: u16) {
        self.buf[at..at + 2].copy_from_slice(&v.to_be_bytes());
    }

    /// Look up a compression target for a name suffix given as
    /// length-prefixed lowercase labels without the terminal zero: the
    /// first remembered offset whose name, read back, equals it.
    pub(crate) fn lookup_suffix(&self, suffix: &[u8]) -> Option<u16> {
        self.names
            .iter()
            .copied()
            .find(|&off| self.name_at_equals(off as usize, suffix))
    }

    /// Remember that a name suffix starts at `offset`. The caller writes
    /// that suffix in full (ending in a zero octet or a pointer) before
    /// the next lookup can match it.
    pub(crate) fn remember_suffix(&mut self, offset: usize) {
        if offset <= 0x3FFF {
            self.names.push(offset as u16);
        }
    }

    /// Whether the name written at `pos`, followed through its pointers,
    /// is exactly `suffix`. Reads are bounds-checked: a name still being
    /// written runs off the end of the buffer and never matches.
    fn name_at_equals(&self, mut pos: usize, mut suffix: &[u8]) -> bool {
        let mut hops = 0;
        loop {
            let Some(&len) = self.buf.get(pos) else {
                return false;
            };
            match len & 0xC0 {
                0x00 if len == 0 => return suffix.is_empty(),
                0x00 => {
                    let end = pos + 1 + len as usize;
                    match self.buf.get(pos..end) {
                        Some(label) if suffix.starts_with(label) => {
                            suffix = &suffix[label.len()..];
                            pos = end;
                        }
                        _ => return false,
                    }
                }
                0xC0 => {
                    let Some(&lo) = self.buf.get(pos + 1) else {
                        return false;
                    };
                    let target = (((len & 0x3F) as usize) << 8) | lo as usize;
                    hops += 1;
                    if target >= pos || hops > MAX_POINTER_HOPS {
                        return false;
                    }
                    pos = target;
                }
                _ => return false,
            }
        }
    }

    /// Finish encoding, enforcing the size limit.
    pub fn finish(self) -> Result<Vec<u8>, WireError> {
        if self.buf.len() > MAX_MESSAGE_SIZE {
            return Err(WireError::TooBig(self.buf.len()));
        }
        Ok(self.buf)
    }
}

impl Default for Encoder {
    fn default() -> Self {
        Self::new()
    }
}

/// Bounds-checked decoding cursor over a complete message.
pub struct Decoder<'a> {
    msg: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// New decoder over `msg`.
    pub fn new(msg: &'a [u8]) -> Self {
        Decoder { msg, pos: 0 }
    }

    /// Full message slice (for pointer chasing).
    pub fn message(&self) -> &'a [u8] {
        self.msg
    }

    /// Current cursor position.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.msg.len() - self.pos
    }

    /// Advance the cursor by `n`.
    pub fn skip(&mut self, n: usize) -> Result<(), WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        self.pos += n;
        Ok(())
    }

    /// Read one byte.
    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        if self.remaining() < 1 {
            return Err(WireError::Truncated);
        }
        let v = self.msg[self.pos];
        self.pos += 1;
        Ok(v)
    }

    /// Read a big-endian u16.
    pub fn get_u16(&mut self) -> Result<u16, WireError> {
        if self.remaining() < 2 {
            return Err(WireError::Truncated);
        }
        let v = u16::from_be_bytes([self.msg[self.pos], self.msg[self.pos + 1]]);
        self.pos += 2;
        Ok(v)
    }

    /// Read a big-endian u32.
    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        if self.remaining() < 4 {
            return Err(WireError::Truncated);
        }
        let v = u32::from_be_bytes([
            self.msg[self.pos],
            self.msg[self.pos + 1],
            self.msg[self.pos + 2],
            self.msg[self.pos + 3],
        ]);
        self.pos += 4;
        Ok(v)
    }

    /// Read `n` raw bytes.
    pub fn get_slice(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let s = &self.msg[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Move the cursor to an absolute position (bounds-checked).
    pub fn seek(&mut self, pos: usize) -> Result<(), WireError> {
        if pos > self.msg.len() {
            return Err(WireError::Truncated);
        }
        self.pos = pos;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encoder_basics() {
        let mut e = Encoder::new();
        e.put_u8(0xAB);
        e.put_u16(0x1234);
        e.put_u32(0xDEADBEEF);
        e.put_slice(b"xyz");
        let out = e.finish().unwrap();
        assert_eq!(
            out,
            [0xAB, 0x12, 0x34, 0xDE, 0xAD, 0xBE, 0xEF, b'x', b'y', b'z']
        );
    }

    #[test]
    fn patching() {
        let mut e = Encoder::new();
        e.put_u16(0);
        let at = 0;
        e.put_slice(b"abc");
        e.patch_u16(at, 3);
        assert_eq!(e.finish().unwrap(), [0, 3, b'a', b'b', b'c']);
    }

    #[test]
    fn decoder_bounds() {
        let data = [1u8, 2, 3];
        let mut d = Decoder::new(&data);
        assert_eq!(d.get_u16().unwrap(), 0x0102);
        assert_eq!(d.remaining(), 1);
        assert_eq!(d.get_u16(), Err(WireError::Truncated));
        assert_eq!(d.get_u8().unwrap(), 3);
        assert_eq!(d.get_u8(), Err(WireError::Truncated));
        assert!(d.seek(3).is_ok());
        assert_eq!(d.seek(4), Err(WireError::Truncated));
    }

    #[test]
    fn size_limit() {
        let mut e = Encoder::new();
        e.put_slice(&vec![0u8; MAX_MESSAGE_SIZE + 1]);
        assert!(matches!(e.finish(), Err(WireError::TooBig(_))));
    }
}
