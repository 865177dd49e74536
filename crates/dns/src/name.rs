//! Wire-format domain names with compression.

use crate::wire::{Decoder, Encoder, WireError};
use ruwhere_types::DomainName;
use std::fmt;
use std::str::FromStr;

/// Maximum total wire length of a name (RFC 1035 §2.3.4).
const MAX_WIRE_LEN: usize = 255;
/// Maximum label length.
const MAX_LABEL_LEN: usize = 63;
/// Safety cap on compression-pointer hops while decoding.
const MAX_POINTER_HOPS: usize = 64;

/// A DNS name in wire form: a sequence of lowercase labels. The root name
/// has zero labels.
///
/// ```
/// use ruwhere_dns::Name;
/// let n: Name = "www.example.ru".parse().unwrap();
/// assert_eq!(n.label_count(), 3);
/// assert_eq!(n.to_string(), "www.example.ru.");
/// assert!(n.is_subdomain_of(&"example.ru".parse().unwrap()));
/// assert!(Name::root().is_root());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Name {
    labels: Vec<Box<[u8]>>,
}

impl Name {
    /// The root name (`.`).
    pub fn root() -> Self {
        Name { labels: Vec::new() }
    }

    /// Whether this is the root name.
    pub fn is_root(&self) -> bool {
        self.labels.is_empty()
    }

    /// Build a name from presentation labels. Each label is lowercased and
    /// validated for length and ASCII content.
    pub fn from_labels<I, S>(labels: I) -> Result<Self, WireError>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<[u8]>,
    {
        let mut out = Vec::new();
        let mut wire_len = 1usize; // terminal zero octet
        for l in labels {
            let l = l.as_ref();
            if l.is_empty() || l.len() > MAX_LABEL_LEN {
                return Err(WireError::NameTooLong);
            }
            if !l.iter().all(|b| b.is_ascii() && *b != b'.') {
                return Err(WireError::BadLabel);
            }
            wire_len += 1 + l.len();
            out.push(l.to_ascii_lowercase().into_boxed_slice());
        }
        if wire_len > MAX_WIRE_LEN {
            return Err(WireError::NameTooLong);
        }
        Ok(Name { labels: out })
    }

    /// Number of labels.
    pub fn label_count(&self) -> usize {
        self.labels.len()
    }

    /// Iterate over labels (leftmost first).
    pub fn labels(&self) -> impl Iterator<Item = &[u8]> {
        self.labels.iter().map(|l| l.as_ref())
    }

    /// The parent name (one label removed from the left), or `None` at root.
    pub fn parent(&self) -> Option<Name> {
        if self.is_root() {
            None
        } else {
            Some(Name {
                labels: self.labels[1..].to_vec(),
            })
        }
    }

    /// Whether `self` is equal to or a subdomain of `ancestor`.
    pub fn is_subdomain_of(&self, ancestor: &Name) -> bool {
        let n = ancestor.labels.len();
        if self.labels.len() < n {
            return false;
        }
        self.labels[self.labels.len() - n..] == ancestor.labels[..]
    }

    /// Wire length of this name when encoded without compression.
    pub fn wire_len(&self) -> usize {
        1 + self.labels.iter().map(|l| 1 + l.len()).sum::<usize>()
    }

    /// Encode into `enc`, compressing against (and registering with) the
    /// encoder's suffix table.
    pub fn encode(&self, enc: &mut Encoder) {
        // Walk suffixes from the full name down; at the first suffix already
        // present in the table, emit a pointer and stop.
        for i in 0..self.labels.len() {
            let key = Self::suffix_key(&self.labels[i..]);
            if let Some(off) = enc.lookup_suffix(&key) {
                enc.put_u16(0xC000 | off);
                return;
            }
            enc.remember_suffix(key, enc.position());
            let label = &self.labels[i];
            enc.put_u8(label.len() as u8);
            enc.put_slice(label);
        }
        enc.put_u8(0);
    }

    fn suffix_key(labels: &[Box<[u8]>]) -> Vec<u8> {
        let mut key = Vec::new();
        for l in labels {
            key.push(l.len() as u8);
            key.extend_from_slice(l);
        }
        key
    }

    /// Decode a (possibly compressed) name at the decoder's cursor. The
    /// cursor ends just past the name's in-place encoding; pointer targets
    /// are followed via random access without moving the cursor there.
    pub fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        let msg = dec.message();
        let mut labels = Vec::new();
        let mut wire_len = 1usize;
        let mut pos = dec.position();
        let mut jumped = false;
        let mut hops = 0usize;
        let mut end_pos = None;

        loop {
            if pos >= msg.len() {
                return Err(WireError::Truncated);
            }
            let len = msg[pos];
            match len & 0xC0 {
                0x00 => {
                    pos += 1;
                    if len == 0 {
                        if end_pos.is_none() {
                            end_pos = Some(pos);
                        }
                        break;
                    }
                    let len = len as usize;
                    if pos + len > msg.len() {
                        return Err(WireError::Truncated);
                    }
                    wire_len += 1 + len;
                    if wire_len > MAX_WIRE_LEN {
                        return Err(WireError::NameTooLong);
                    }
                    labels.push(msg[pos..pos + len].to_ascii_lowercase().into_boxed_slice());
                    pos += len;
                }
                0xC0 => {
                    if pos + 1 >= msg.len() {
                        return Err(WireError::Truncated);
                    }
                    let target = (((len & 0x3F) as usize) << 8) | msg[pos + 1] as usize;
                    if end_pos.is_none() {
                        end_pos = Some(pos + 2);
                    }
                    // Pointers must point strictly backwards to prevent loops.
                    if target >= pos {
                        return Err(WireError::BadPointer);
                    }
                    hops += 1;
                    if hops > MAX_POINTER_HOPS {
                        return Err(WireError::BadPointer);
                    }
                    pos = target;
                    jumped = true;
                }
                other => return Err(WireError::BadLabelType(other)),
            }
            let _ = jumped;
        }

        dec.seek(end_pos.expect("loop sets end_pos before breaking"))?;
        Ok(Name { labels })
    }

    /// Convert to the analysis-level [`DomainName`] (fails for the root name
    /// or names with labels that are not valid hostnames).
    pub fn to_domain_name(&self) -> Option<DomainName> {
        if self.is_root() {
            return None;
        }
        DomainName::parse(&self.to_string()).ok()
    }
}

impl fmt::Display for Name {
    /// Presentation form with trailing dot; the root displays as `"."`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_root() {
            return f.write_str(".");
        }
        for l in &self.labels {
            for &b in l.iter() {
                if b.is_ascii_graphic() && b != b'.' {
                    write!(f, "{}", b as char)?;
                } else {
                    write!(f, "\\{:03}", b)?;
                }
            }
            f.write_str(".")?;
        }
        Ok(())
    }
}

impl FromStr for Name {
    type Err = WireError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s == "." || s.is_empty() {
            return Ok(Name::root());
        }
        let s = s.strip_suffix('.').unwrap_or(s);
        Name::from_labels(s.split('.'))
    }
}

impl From<&DomainName> for Name {
    fn from(d: &DomainName) -> Name {
        Name::from_labels(d.labels()).expect("DomainName invariants imply valid wire name")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enc_dec(n: &Name) -> Name {
        let mut e = Encoder::new();
        n.encode(&mut e);
        let buf = e.finish().unwrap();
        let mut d = Decoder::new(&buf);
        Name::decode(&mut d).unwrap()
    }

    #[test]
    fn roundtrip_simple() {
        for s in [
            "example.ru.",
            "www.example.ru.",
            "xn--e1afmkfd.xn--p1ai.",
            ".",
        ] {
            let n: Name = s.parse().unwrap();
            assert_eq!(enc_dec(&n), n);
            assert_eq!(n.to_string(), s);
        }
    }

    #[test]
    fn compression_shares_suffixes() {
        let a: Name = "ns1.example.ru.".parse().unwrap();
        let b: Name = "ns2.example.ru.".parse().unwrap();
        let mut e = Encoder::new();
        a.encode(&mut e);
        let after_a = e.position();
        b.encode(&mut e);
        let buf = e.finish().unwrap();
        // Second name must be shorter than its uncompressed form thanks to
        // the shared "example.ru." suffix: 1+3 + pointer(2) = 6 bytes.
        assert_eq!(buf.len() - after_a, 6);

        let mut d = Decoder::new(&buf);
        assert_eq!(Name::decode(&mut d).unwrap(), a);
        assert_eq!(Name::decode(&mut d).unwrap(), b);
        assert_eq!(d.remaining(), 0);
    }

    #[test]
    fn identical_name_is_a_single_pointer() {
        let a: Name = "example.ru.".parse().unwrap();
        let mut e = Encoder::new();
        a.encode(&mut e);
        let after_first = e.position();
        a.encode(&mut e);
        let buf = e.finish().unwrap();
        assert_eq!(buf.len() - after_first, 2);
        let mut d = Decoder::new(&buf);
        assert_eq!(Name::decode(&mut d).unwrap(), a);
        assert_eq!(Name::decode(&mut d).unwrap(), a);
    }

    #[test]
    fn decode_rejects_forward_pointer() {
        // Pointer at offset 0 pointing to itself.
        let buf = [0xC0, 0x00];
        let mut d = Decoder::new(&buf);
        assert_eq!(Name::decode(&mut d), Err(WireError::BadPointer));
    }

    #[test]
    fn decode_rejects_reserved_label_types() {
        let buf = [0x40, 0x00];
        let mut d = Decoder::new(&buf);
        assert_eq!(Name::decode(&mut d), Err(WireError::BadLabelType(0x40)));
    }

    #[test]
    fn decode_rejects_truncation() {
        let buf = [3, b'a', b'b']; // label promises 3 bytes, only 2 present
        let mut d = Decoder::new(&buf);
        assert_eq!(Name::decode(&mut d), Err(WireError::Truncated));
        let buf = [1, b'a']; // missing terminal zero
        let mut d = Decoder::new(&buf);
        assert_eq!(Name::decode(&mut d), Err(WireError::Truncated));
    }

    #[test]
    fn name_length_limits() {
        assert!(Name::from_labels([&b"a".repeat(64)[..]]).is_err());
        assert!(Name::from_labels([&b"a".repeat(63)[..]]).is_ok());
        // 4 * (63+1) + 1 = 257 > 255.
        let l = b"a".repeat(63);
        assert!(Name::from_labels([&l[..], &l[..], &l[..], &l[..]]).is_err());
        assert!(Name::from_labels([b"".as_slice()]).is_err());
    }

    #[test]
    fn case_insensitive() {
        let a: Name = "ExAmPlE.RU".parse().unwrap();
        let b: Name = "example.ru".parse().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn subdomain_relation() {
        let apex: Name = "example.ru".parse().unwrap();
        let sub: Name = "a.b.example.ru".parse().unwrap();
        let other: Name = "example.com".parse().unwrap();
        assert!(sub.is_subdomain_of(&apex));
        assert!(apex.is_subdomain_of(&apex));
        assert!(apex.is_subdomain_of(&Name::root()));
        assert!(!apex.is_subdomain_of(&sub));
        assert!(!other.is_subdomain_of(&apex));
    }

    #[test]
    fn parent_chain() {
        let n: Name = "a.b.ru".parse().unwrap();
        let p = n.parent().unwrap();
        assert_eq!(p.to_string(), "b.ru.");
        assert_eq!(p.parent().unwrap().to_string(), "ru.");
        assert!(p.parent().unwrap().parent().unwrap().is_root());
        assert!(Name::root().parent().is_none());
    }

    #[test]
    fn domain_name_interop() {
        let d = DomainName::parse("пример.рф").unwrap();
        let n = Name::from(&d);
        assert_eq!(n.to_string(), "xn--e1afmkfd.xn--p1ai.");
        assert_eq!(n.to_domain_name().unwrap(), d);
        assert!(Name::root().to_domain_name().is_none());
    }

    #[test]
    fn pointer_chain_depth_limited() {
        // Build a long chain of backward pointers: p_i points to p_{i-1},
        // terminating at a real name at offset 0.
        let mut buf = vec![0u8]; // root name at offset 0
        for i in 0..100u16 {
            let target = if i == 0 { 0 } else { 1 + 2 * (i - 1) };
            buf.push(0xC0 | (target >> 8) as u8);
            buf.push((target & 0xFF) as u8);
        }
        let start = buf.len() - 2;
        let mut d = Decoder::new(&buf);
        d.seek(start).unwrap();
        assert_eq!(Name::decode(&mut d), Err(WireError::BadPointer));
    }
}
