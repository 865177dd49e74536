//! Low-level wire primitives: the error type, size limits and the
//! [`Encoder`], which writes a message into a caller-owned buffer and
//! keeps the name-compression table. Reading is done by
//! [`MessageView`](crate::MessageView), which validates a message in
//! place.

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

/// Name suffixes the compression table holds without allocating; a
/// reply with more distinct suffixes spills the rest to the heap.
const INLINE_SUFFIXES: usize = 32;

/// Wire encoder with RFC 1035 §4.1.4 name compression.
///
/// Writes into a caller-owned buffer, which it clears first: a caller
/// that keeps one buffer and encodes message after message into it
/// reuses its capacity and allocates nothing.
///
/// The compression table is a list of buffer offsets, one per name suffix
/// written in full, each with the suffix's length; a suffix's bytes are
/// read back from the buffer when a lookup of the same length meets it.
/// Each suffix is remembered at its first occurrence only, so pointers
/// always target the earliest copy.
pub struct Encoder<'b> {
    buf: &'b mut Vec<u8>,
    /// Remembered name suffixes as (offset, flat length), in the order
    /// written: the first [`INLINE_SUFFIXES`] here, the rest in
    /// `spilled`. Only offsets ≤ 0x3FFF are eligible as compression
    /// targets.
    inline: [(u16, u8); INLINE_SUFFIXES],
    inline_len: usize,
    spilled: Vec<(u16, u8)>,
}

impl<'b> Encoder<'b> {
    /// Encoder writing a new message into `buf`, which it clears.
    pub fn new(buf: &'b mut Vec<u8>) -> Self {
        buf.clear();
        Encoder {
            buf,
            inline: [(0, 0); INLINE_SUFFIXES],
            inline_len: 0,
            spilled: Vec::new(),
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
        self.inline[..self.inline_len]
            .iter()
            .chain(&self.spilled)
            .find(|&&(off, len)| {
                usize::from(len) == suffix.len() && self.name_at_equals(off as usize, suffix)
            })
            .map(|&(off, _)| off)
    }

    /// Remember that a name suffix of flat length `len` (length-prefixed
    /// labels, no terminal zero) starts at `offset`. The caller writes
    /// that suffix in full (ending in a zero octet or a pointer) before
    /// the next lookup can match it.
    pub(crate) fn remember_suffix(&mut self, offset: usize, len: usize) {
        if offset > 0x3FFF {
            return;
        }
        let entry = (offset as u16, len as u8);
        if self.inline_len < INLINE_SUFFIXES {
            self.inline[self.inline_len] = entry;
            self.inline_len += 1;
        } else {
            self.spilled.push(entry);
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

    /// Finish encoding, enforcing the size limit. On `Err` the buffer
    /// holds the oversized message.
    pub fn finish(self) -> Result<(), WireError> {
        if self.buf.len() > MAX_MESSAGE_SIZE {
            return Err(WireError::TooBig(self.buf.len()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encoder_basics() {
        let mut out = vec![0xFF; 3];
        let mut e = Encoder::new(&mut out);
        e.put_u8(0xAB);
        e.put_u16(0x1234);
        e.put_u32(0xDEADBEEF);
        e.put_slice(b"xyz");
        e.finish().unwrap();
        assert_eq!(
            out,
            [0xAB, 0x12, 0x34, 0xDE, 0xAD, 0xBE, 0xEF, b'x', b'y', b'z']
        );
    }

    #[test]
    fn patching() {
        let mut out = Vec::new();
        let mut e = Encoder::new(&mut out);
        e.put_u16(0);
        let at = 0;
        e.put_slice(b"abc");
        e.patch_u16(at, 3);
        e.finish().unwrap();
        assert_eq!(out, [0, 3, b'a', b'b', b'c']);
    }

    #[test]
    fn suffix_table_spills_past_its_inline_slots() {
        let mut out = Vec::new();
        let mut e = Encoder::new(&mut out);
        for i in 0..INLINE_SUFFIXES + 8 {
            let at = e.position();
            e.put_slice(&[2, b'a' + (i % 26) as u8, b'0' + (i / 26) as u8, 0]);
            e.remember_suffix(at, 3);
        }
        // The last name written is only in the spilled part of the table.
        let last = INLINE_SUFFIXES + 7;
        let suffix = [2, b'a' + (last % 26) as u8, b'0' + (last / 26) as u8];
        assert_eq!(e.lookup_suffix(&suffix), Some(4 * last as u16));
        assert_eq!(e.lookup_suffix(&[2, b'z', b'9']), None);
    }

    #[test]
    fn size_limit() {
        let mut out = Vec::new();
        let mut e = Encoder::new(&mut out);
        e.put_slice(&vec![0u8; MAX_MESSAGE_SIZE + 1]);
        assert!(matches!(e.finish(), Err(WireError::TooBig(_))));
    }
}
