//! Wire-format domain names with compression.

use crate::wire::{Decoder, Encoder, WireError, MAX_POINTER_HOPS};
use ruwhere_types::DomainName;
use std::cmp::Ordering;
use std::fmt;
use std::str::FromStr;

/// Maximum total wire length of a name (RFC 1035 §2.3.4).
const MAX_WIRE_LEN: usize = 255;
/// Maximum label length.
const MAX_LABEL_LEN: usize = 63;

/// A DNS name in wire form: a sequence of lowercase labels. The root name
/// has zero labels.
///
/// Stored flat, as one buffer of length-prefixed labels (the RFC 1035
/// wire encoding without the terminal zero octet), so cloning, decoding
/// and [`parent`](Self::parent) each cost a single allocation. Equality
/// and hashing work on those bytes; ordering is label by label, the same
/// order as comparing the label sequences.
///
/// ```
/// use ruwhere_dns::Name;
/// let n: Name = "www.example.ru".parse().unwrap();
/// assert_eq!(n.label_count(), 3);
/// assert_eq!(n.to_string(), "www.example.ru.");
/// assert!(n.is_subdomain_of(&"example.ru".parse().unwrap()));
/// assert!(Name::root().is_root());
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Name {
    /// Length-prefixed lowercase labels, leftmost first, no terminal zero.
    wire: Box<[u8]>,
}

impl Name {
    /// The root name (`.`).
    pub fn root() -> Self {
        Name {
            wire: Box::default(),
        }
    }

    /// Whether this is the root name.
    pub fn is_root(&self) -> bool {
        self.wire.is_empty()
    }

    /// Build a name from presentation labels. Each label is lowercased and
    /// validated for length and ASCII content.
    pub fn from_labels<I, S>(labels: I) -> Result<Self, WireError>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<[u8]>,
    {
        let mut out = [0u8; MAX_WIRE_LEN];
        let mut wire_len = 1usize; // terminal zero octet
        for l in labels {
            let l = l.as_ref();
            if l.is_empty() || l.len() > MAX_LABEL_LEN {
                return Err(WireError::NameTooLong);
            }
            if !l.iter().all(|b| b.is_ascii() && *b != b'.') {
                return Err(WireError::BadLabel);
            }
            // Past the limit, keep validating (a later bad label still
            // decides the error) but stop writing.
            let at = wire_len - 1;
            wire_len += 1 + l.len();
            if wire_len <= MAX_WIRE_LEN {
                out[at] = l.len() as u8;
                out[at + 1..wire_len - 1].copy_from_slice(l);
                out[at + 1..wire_len - 1].make_ascii_lowercase();
            }
        }
        if wire_len > MAX_WIRE_LEN {
            return Err(WireError::NameTooLong);
        }
        Ok(Name {
            wire: out[..wire_len - 1].into(),
        })
    }

    /// Number of labels.
    pub fn label_count(&self) -> usize {
        self.label_offsets().count()
    }

    /// Iterate over labels (leftmost first).
    pub fn labels(&self) -> impl Iterator<Item = &[u8]> {
        self.label_offsets()
            .map(|at| &self.wire[at + 1..at + 1 + self.wire[at] as usize])
    }

    /// Offsets of each label's length octet in the wire buffer, leftmost
    /// first. Every offset starts a suffix of the name.
    pub(crate) fn label_offsets(&self) -> impl Iterator<Item = usize> + '_ {
        let mut at = 0;
        std::iter::from_fn(move || {
            let here = at;
            let len = *self.wire.get(here)?;
            at += 1 + len as usize;
            Some(here)
        })
    }

    /// The name formed by the labels from wire offset `at` on (a value
    /// from [`label_offsets`](Self::label_offsets), or the buffer length
    /// for the root).
    pub(crate) fn suffix_at(&self, at: usize) -> Name {
        Name {
            wire: self.wire[at..].into(),
        }
    }

    /// The parent name (one label removed from the left), or `None` at root.
    pub fn parent(&self) -> Option<Name> {
        let len = *self.wire.first()?;
        Some(self.suffix_at(1 + len as usize))
    }

    /// Whether `self` is equal to or a subdomain of `ancestor`.
    pub fn is_subdomain_of(&self, ancestor: &Name) -> bool {
        let Some(at) = self.wire.len().checked_sub(ancestor.wire.len()) else {
            return false;
        };
        // The byte suffix must also start on a label boundary.
        self.wire[at..] == ancestor.wire[..]
            && (at == self.wire.len() || self.label_offsets().any(|o| o == at))
    }

    /// Wire length of this name when encoded without compression.
    pub fn wire_len(&self) -> usize {
        self.wire.len() + 1
    }

    /// Encode into `enc`, compressing against (and registering with) the
    /// encoder's suffix table.
    pub fn encode(&self, enc: &mut Encoder) {
        // The longest suffix already in the table ends the name with a
        // pointer; every label before it is written verbatim and its
        // suffix remembered. The table only ever holds complete names, so
        // looking all suffixes up before writing finds exactly what
        // looking each up just before writing its label would.
        let (written, pointer) = self
            .label_offsets()
            .find_map(|at| {
                enc.lookup_suffix(&self.wire[at..])
                    .map(|off| (at, Some(off)))
            })
            .unwrap_or((self.wire.len(), None));
        let base = enc.position();
        for at in self.label_offsets().take_while(|&at| at < written) {
            enc.remember_suffix(base + at);
        }
        enc.put_slice(&self.wire[..written]);
        match pointer {
            Some(off) => enc.put_u16(0xC000 | off),
            None => enc.put_u8(0),
        }
    }

    /// Decode a (possibly compressed) name at the decoder's cursor. The
    /// cursor ends just past the name's in-place encoding; pointer targets
    /// are followed via random access without moving the cursor there.
    pub fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        let msg = dec.message();
        let mut out = [0u8; MAX_WIRE_LEN];
        let mut wire_len = 1usize;
        let mut pos = dec.position();
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
                    let at = wire_len - 1;
                    wire_len += 1 + len;
                    if wire_len > MAX_WIRE_LEN {
                        return Err(WireError::NameTooLong);
                    }
                    out[at] = len as u8;
                    out[at + 1..wire_len - 1].copy_from_slice(&msg[pos..pos + len]);
                    out[at + 1..wire_len - 1].make_ascii_lowercase();
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
                }
                other => return Err(WireError::BadLabelType(other)),
            }
        }

        dec.seek(end_pos.expect("loop sets end_pos before breaking"))?;
        Ok(Name {
            wire: out[..wire_len - 1].into(),
        })
    }

    /// Convert to the analysis-level [`DomainName`] (fails for the root name
    /// or names with labels that are not valid hostnames).
    pub fn to_domain_name(&self) -> Option<DomainName> {
        if self.is_root() {
            return None;
        }
        // Join the labels with dots in place of the length octets. A
        // non-ASCII byte or a dot inside a label has no hostname spelling
        // (the presentation form escapes it), so either rejects the name;
        // `DomainName::parse` rejects every other non-hostname byte.
        let mut joined = [0u8; MAX_WIRE_LEN];
        let joined = &mut joined[..self.wire.len() - 1];
        for at in self.label_offsets() {
            let len = self.wire[at] as usize;
            let label = &self.wire[at + 1..at + 1 + len];
            if !label.iter().all(|&b| b.is_ascii() && b != b'.') {
                return None;
            }
            if at > 0 {
                joined[at - 1] = b'.';
            }
            joined[at..at + len].copy_from_slice(label);
        }
        let joined = std::str::from_utf8(joined).expect("checked ASCII");
        DomainName::parse(joined).ok()
    }
}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Name {
    /// Label by label, leftmost first — the order of the label sequences,
    /// which is what zone snapshots and everything derived from them are
    /// sorted by. (The wire bytes would sort differently: the length
    /// octet makes `b.` sort before `aa.`.)
    fn cmp(&self, other: &Self) -> Ordering {
        self.labels().cmp(other.labels())
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Name")
            .field("labels", &self.labels().collect::<Vec<_>>())
            .finish()
    }
}

impl fmt::Display for Name {
    /// Presentation form with trailing dot; the root displays as `"."`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_root() {
            return f.write_str(".");
        }
        for l in self.labels() {
            for &b in l {
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
