//! Wire-format domain names with compression.

use crate::wire::{Encoder, WireError};
use ruwhere_types::DomainName;
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::str::FromStr;

/// Maximum total wire length of a name, terminal zero included (RFC 1035
/// §2.3.4): a buffer this long holds the flat labels of any name.
pub const MAX_NAME_LEN: usize = 255;
/// Maximum label length.
const MAX_LABEL_LEN: usize = 63;

/// A DNS name in wire form: a sequence of lowercase labels. The root name
/// has zero labels.
///
/// Stored flat, as one buffer of length-prefixed labels (the RFC 1035
/// wire encoding without the terminal zero octet), so cloning and decoding
/// each cost a single allocation. A `Name` dereferences to its borrowed
/// form, [`NameSlice`], which carries every read-only operation; hash maps
/// keyed by `Name` can be probed with a `&NameSlice` (a parent, a suffix,
/// or a name copied out of a message onto the stack) without allocating.
///
/// ```
/// use ruwhere_dns::Name;
/// let n: Name = "www.example.ru".parse().unwrap();
/// assert_eq!(n.label_count(), 3);
/// assert_eq!(n.to_string(), "www.example.ru.");
/// let apex: Name = "example.ru".parse().unwrap();
/// assert!(n.is_subdomain_of(&apex));
/// assert_eq!(n.parent().unwrap(), &*apex);
/// assert!(Name::root().is_root());
/// ```
#[derive(Clone)]
pub struct Name {
    /// Length-prefixed lowercase labels, leftmost first, no terminal zero.
    wire: Box<[u8]>,
}

/// The borrowed form of a [`Name`], as `str` is of `String`: its flat
/// wire labels.
///
/// Equality and hashing work on those bytes, exactly as for `Name`, so a
/// `HashMap<Name, _>` can be probed with a `&NameSlice`. Ordering is label
/// by label, the same order as comparing the label sequences — which is
/// why maps borrow a `Name` as this type and not as `[u8]`, whose
/// bytewise order differs.
#[derive(PartialEq, Eq, Hash)]
#[repr(transparent)]
pub struct NameSlice([u8]);

impl NameSlice {
    /// View flat wire labels (lowercase, length-prefixed, no terminal
    /// zero) as a name. Callers pass a `Name`'s buffer, a suffix of one
    /// that starts on a label boundary, or labels a message decoder has
    /// validated and lowercased.
    #[allow(unsafe_code)]
    pub(crate) fn from_wire(wire: &[u8]) -> &NameSlice {
        // SAFETY: `NameSlice` is a `#[repr(transparent)]` wrapper around
        // `[u8]`, so a pointer to one is a valid pointer to the other with
        // the same length metadata, and the lifetime is carried over.
        unsafe { &*(wire as *const [u8] as *const NameSlice) }
    }

    /// Borrow flat wire labels (length-prefixed, lowercase, leftmost
    /// first, no terminal zero octet) as a name, after checking that they
    /// are exactly that: `None` for a label of length 0 or over 63, an
    /// uppercase byte, a length octet that runs past the end, or a name
    /// over [`MAX_NAME_LEN`]. [`wire`](Self::wire) gives such bytes back.
    pub fn try_from_wire(wire: &[u8]) -> Option<&NameSlice> {
        if wire.len() >= MAX_NAME_LEN || wire.iter().any(u8::is_ascii_uppercase) {
            return None;
        }
        let mut at = 0;
        while at < wire.len() {
            let len = wire[at] as usize;
            if len == 0 || len > MAX_LABEL_LEN {
                return None;
            }
            at += 1 + len;
        }
        (at == wire.len()).then(|| NameSlice::from_wire(wire))
    }

    /// Build a name from presentation labels into `buf` and borrow it from
    /// there: [`Name::from_labels`] without the allocation. Each label is
    /// lowercased and validated for length and ASCII content.
    pub fn from_labels_into<I, S>(
        labels: I,
        buf: &mut [u8; MAX_NAME_LEN],
    ) -> Result<&NameSlice, WireError>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<[u8]>,
    {
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
            if wire_len <= MAX_NAME_LEN {
                buf[at] = l.len() as u8;
                buf[at + 1..wire_len - 1].copy_from_slice(l);
                buf[at + 1..wire_len - 1].make_ascii_lowercase();
            }
        }
        if wire_len > MAX_NAME_LEN {
            return Err(WireError::NameTooLong);
        }
        Ok(NameSlice::from_wire(&buf[..wire_len - 1]))
    }

    /// The flat wire labels: length-prefixed, lowercase, leftmost first,
    /// without the terminal zero octet.
    pub fn wire(&self) -> &[u8] {
        &self.0
    }

    /// Whether this is the root name.
    pub fn is_root(&self) -> bool {
        self.0.is_empty()
    }

    /// Number of labels.
    pub fn label_count(&self) -> usize {
        self.label_offsets().count()
    }

    /// Iterate over labels (leftmost first).
    pub fn labels(&self) -> impl Iterator<Item = &[u8]> {
        self.label_offsets()
            .map(|at| &self.0[at + 1..at + 1 + self.0[at] as usize])
    }

    /// Offsets of each label's length octet in the wire buffer, leftmost
    /// first. Every offset starts a suffix of the name.
    pub(crate) fn label_offsets(&self) -> impl Iterator<Item = usize> + '_ {
        let mut at = 0;
        std::iter::from_fn(move || {
            let here = at;
            let len = *self.0.get(here)?;
            at += 1 + len as usize;
            Some(here)
        })
    }

    /// The name formed by the labels from wire offset `at` on (a value
    /// from [`label_offsets`](Self::label_offsets), or the buffer length
    /// for the root).
    pub(crate) fn suffix(&self, at: usize) -> &NameSlice {
        NameSlice::from_wire(&self.0[at..])
    }

    /// The parent name (one label removed from the left), or `None` at
    /// root. Borrowed: no allocation.
    pub fn parent(&self) -> Option<&NameSlice> {
        let len = *self.0.first()?;
        Some(self.suffix(1 + len as usize))
    }

    /// This name and each of its ancestors, ending with the root.
    pub fn suffixes(&self) -> impl Iterator<Item = &NameSlice> {
        std::iter::successors(Some(self), |n| n.parent())
    }

    /// Whether `self` is equal to or a subdomain of `ancestor`.
    pub fn is_subdomain_of(&self, ancestor: &NameSlice) -> bool {
        let Some(at) = self.0.len().checked_sub(ancestor.0.len()) else {
            return false;
        };
        // The byte suffix must also start on a label boundary.
        self.0[at..] == ancestor.0[..]
            && (at == self.0.len() || self.label_offsets().any(|o| o == at))
    }

    /// Wire length of this name when encoded without compression.
    pub fn wire_len(&self) -> usize {
        self.0.len() + 1
    }

    /// Encode into `enc`, compressing against (and registering with) the
    /// encoder's suffix table.
    pub fn encode(&self, enc: &mut Encoder<'_>) {
        // The longest suffix already in the table ends the name with a
        // pointer; every label before it is written verbatim and its
        // suffix remembered. The table only ever holds complete names, so
        // looking all suffixes up before writing finds exactly what
        // looking each up just before writing its label would.
        let (written, pointer) = self
            .label_offsets()
            .find_map(|at| enc.lookup_suffix(&self.0[at..]).map(|off| (at, Some(off))))
            .unwrap_or((self.0.len(), None));
        let base = enc.position();
        for at in self.label_offsets().take_while(|&at| at < written) {
            enc.remember_suffix(base + at, self.0.len() - at);
        }
        enc.put_slice(&self.0[..written]);
        match pointer {
            Some(off) => enc.put_u16(0xC000 | off),
            None => enc.put_u8(0),
        }
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
        let mut joined = [0u8; MAX_NAME_LEN];
        let joined = &mut joined[..self.0.len() - 1];
        for at in self.label_offsets() {
            let len = self.0[at] as usize;
            let label = &self.0[at + 1..at + 1 + len];
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

impl Name {
    /// The root name (`.`).
    pub fn root() -> Self {
        Name {
            wire: Box::default(),
        }
    }

    /// Build a name from presentation labels. Each label is lowercased and
    /// validated for length and ASCII content.
    pub fn from_labels<I, S>(labels: I) -> Result<Self, WireError>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<[u8]>,
    {
        let mut buf = [0u8; MAX_NAME_LEN];
        NameSlice::from_labels_into(labels, &mut buf).map(ToOwned::to_owned)
    }

    /// Take ownership of flat wire labels a decoder has validated and
    /// lowercased.
    pub(crate) fn from_wire(wire: Box<[u8]>) -> Name {
        Name { wire }
    }
}

impl Deref for Name {
    type Target = NameSlice;

    fn deref(&self) -> &NameSlice {
        NameSlice::from_wire(&self.wire)
    }
}

impl Borrow<NameSlice> for Name {
    fn borrow(&self) -> &NameSlice {
        self
    }
}

impl ToOwned for NameSlice {
    type Owned = Name;

    fn to_owned(&self) -> Name {
        Name {
            wire: self.0.into(),
        }
    }
}

// `Name` compares, hashes and orders exactly as its `NameSlice` does, which
// is what makes `Borrow<NameSlice>` sound for hash maps and ordered maps.
impl PartialEq for Name {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for Name {}

impl Hash for Name {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state);
    }
}

impl PartialOrd for NameSlice {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for NameSlice {
    /// Label by label, leftmost first — the order of the label sequences,
    /// which is what zone snapshots and everything derived from them are
    /// sorted by. (The wire bytes would sort differently: the length
    /// octet makes `b.` sort before `aa.`.)
    fn cmp(&self, other: &Self) -> Ordering {
        self.labels().cmp(other.labels())
    }
}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Name {
    fn cmp(&self, other: &Self) -> Ordering {
        (**self).cmp(&**other)
    }
}

impl fmt::Debug for NameSlice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Name")
            .field("labels", &self.labels().collect::<Vec<_>>())
            .finish()
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl fmt::Display for NameSlice {
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

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&**self, f)
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
    use crate::view::NameView;

    /// Read the name at `pos`: the name and the offset just past it.
    fn decode_at(buf: &[u8], pos: usize) -> Result<(Name, usize), WireError> {
        NameView::parse_at(buf, pos).map(|(n, end)| (n.to_name(), end))
    }

    fn decode(buf: &[u8]) -> Result<Name, WireError> {
        decode_at(buf, 0).map(|(n, _)| n)
    }

    fn enc_dec(n: &Name) -> Name {
        let mut buf = Vec::new();
        let mut e = Encoder::new(&mut buf);
        n.encode(&mut e);
        e.finish().unwrap();
        decode(&buf).unwrap()
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
        let mut buf = Vec::new();
        let mut e = Encoder::new(&mut buf);
        a.encode(&mut e);
        let after_a = e.position();
        b.encode(&mut e);
        e.finish().unwrap();
        // Second name must be shorter than its uncompressed form thanks to
        // the shared "example.ru." suffix: 1+3 + pointer(2) = 6 bytes.
        assert_eq!(buf.len() - after_a, 6);

        let (first, end) = decode_at(&buf, 0).unwrap();
        assert_eq!((first, end), (a, after_a));
        assert_eq!(decode_at(&buf, end).unwrap(), (b, buf.len()));
    }

    #[test]
    fn identical_name_is_a_single_pointer() {
        let a: Name = "example.ru.".parse().unwrap();
        let mut buf = Vec::new();
        let mut e = Encoder::new(&mut buf);
        a.encode(&mut e);
        let after_first = e.position();
        a.encode(&mut e);
        e.finish().unwrap();
        assert_eq!(buf.len() - after_first, 2);
        assert_eq!(decode(&buf).unwrap(), a);
        assert_eq!(decode_at(&buf, after_first).unwrap(), (a, buf.len()));
    }

    #[test]
    fn decode_rejects_forward_pointer() {
        // Pointer at offset 0 pointing to itself.
        let buf = [0xC0, 0x00];
        assert_eq!(decode(&buf), Err(WireError::BadPointer));
    }

    #[test]
    fn decode_rejects_reserved_label_types() {
        let buf = [0x40, 0x00];
        assert_eq!(decode(&buf), Err(WireError::BadLabelType(0x40)));
    }

    #[test]
    fn decode_rejects_truncation() {
        let buf = [3, b'a', b'b']; // label promises 3 bytes, only 2 present
        assert_eq!(decode(&buf), Err(WireError::Truncated));
        let buf = [1, b'a']; // missing terminal zero
        assert_eq!(decode(&buf), Err(WireError::Truncated));
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
    fn labels_build_on_the_stack_as_they_build_owned() {
        let mut buf = [0u8; MAX_NAME_LEN];
        let slice = NameSlice::from_labels_into(["Www", "Example", "RU"], &mut buf).unwrap();
        assert_eq!(
            slice,
            &*Name::from_labels(["www", "example", "ru"]).unwrap()
        );
        let l = b"a".repeat(63);
        let mut buf = [0u8; MAX_NAME_LEN];
        assert_eq!(
            NameSlice::from_labels_into([&l[..], &l[..], &l[..], &l[..]], &mut buf),
            Err(WireError::NameTooLong)
        );
        let mut buf = [0u8; MAX_NAME_LEN];
        assert!(
            NameSlice::from_labels_into(std::iter::empty::<&str>(), &mut buf)
                .unwrap()
                .is_root()
        );
    }

    #[test]
    fn only_flat_lowercase_labels_borrow_as_a_name() {
        let n: Name = "ns1.example.ru".parse().unwrap();
        assert_eq!(NameSlice::try_from_wire(n.wire()), Some(&*n));
        assert!(NameSlice::try_from_wire(&[]).unwrap().is_root());
        for bad in [&b"\x03NS1\x02ru"[..], b"\x00", b"\x04abc", b"\x40"] {
            assert_eq!(NameSlice::try_from_wire(bad), None, "{bad:?}");
        }
        let long = [&[63u8][..], &[b'a'; 63]].concat().repeat(4);
        assert_eq!(NameSlice::try_from_wire(&long), None);
        assert!(NameSlice::try_from_wire(&long[..192]).is_some());
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
        let chain: Vec<String> = n.suffixes().map(|s| s.to_string()).collect();
        assert_eq!(chain, ["a.b.ru.", "b.ru.", "ru.", "."]);
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
        assert_eq!(decode_at(&buf, start), Err(WireError::BadPointer));
    }

    #[test]
    fn borrowed_probes_agree_with_owned_keys() {
        use std::collections::hash_map::DefaultHasher;
        use std::collections::{BTreeMap, HashMap};
        let hash_of = |h: &dyn Fn(&mut DefaultHasher)| {
            let mut s = DefaultHasher::new();
            h(&mut s);
            s.finish()
        };
        let names: Vec<Name> = ["b", "aa", "a.b.ru", "ru", "."]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        let hashed: HashMap<Name, usize> = names.iter().cloned().zip(0..).collect();
        let ordered: BTreeMap<Name, usize> = names.iter().cloned().zip(0..).collect();
        for (i, n) in names.iter().enumerate() {
            let slice: &NameSlice = n;
            assert_eq!(hash_of(&|s| n.hash(s)), hash_of(&|s| slice.hash(s)));
            assert_eq!(hashed.get(slice), Some(&i));
            assert_eq!(ordered.get(slice), Some(&i));
        }
        // Label order, not byte order: `b.` sorts after `aa.`.
        let sorted: Vec<String> = ordered.keys().map(|n| n.to_string()).collect();
        assert_eq!(sorted, [".", "a.b.ru.", "aa.", "b.", "ru."]);
        let deep: Name = "x.a.b.ru".parse().unwrap();
        let found: Vec<usize> = deep
            .suffixes()
            .filter_map(|s| hashed.get(s))
            .copied()
            .collect();
        assert_eq!(found, [2, 3, 4]);
    }
}
