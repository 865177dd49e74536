//! Equivalence oracle for [`MessageView`], the one decoder.
//!
//! `reference` below is the cursor-based decoder `Message::decode` used to
//! be: names copied label by label into a scratch buffer, records decoded
//! field by field. `MessageView::parse(b).map(|v| v.to_message())` must
//! agree with it on every input — the same message, or the same
//! `WireError` — for arbitrary bytes and for real replies mutated the ways
//! a broken or hostile server would: truncation at every offset, forward,
//! looping and over-long pointer chains, trailing bytes, unknown types,
//! RDLENGTH lies, uppercase labels and names past the length limit.

use proptest::prelude::*;
use ruwhere_dns::{
    Flags, Message, MessageView, Name, Opcode, Question, RData, RType, Rcode, Record, SoaData,
    WireError,
};
use std::net::{Ipv4Addr, Ipv6Addr};

/// The decoder `MessageView` replaced, kept verbatim in behaviour.
mod reference {
    use super::*;

    pub const MAX_POINTER_HOPS: usize = 64;

    pub struct Decoder<'a> {
        pub msg: &'a [u8],
        pub pos: usize,
    }

    impl Decoder<'_> {
        fn remaining(&self) -> usize {
            self.msg.len() - self.pos
        }

        pub fn u8(&mut self) -> Result<u8, WireError> {
            let v = *self.msg.get(self.pos).ok_or(WireError::Truncated)?;
            self.pos += 1;
            Ok(v)
        }

        pub fn u16(&mut self) -> Result<u16, WireError> {
            Ok(u16::from_be_bytes([self.u8()?, self.u8()?]))
        }

        fn u32(&mut self) -> Result<u32, WireError> {
            if self.remaining() < 4 {
                return Err(WireError::Truncated);
            }
            Ok(u32::from(self.u16()?) << 16 | u32::from(self.u16()?))
        }

        fn slice(&mut self, n: usize) -> Result<&[u8], WireError> {
            if self.remaining() < n {
                return Err(WireError::Truncated);
            }
            self.pos += n;
            Ok(&self.msg[self.pos - n..self.pos])
        }
    }

    pub fn name(d: &mut Decoder<'_>) -> Result<Name, WireError> {
        let msg = d.msg;
        let mut labels: Vec<Vec<u8>> = Vec::new();
        let mut wire_len = 1usize;
        let mut pos = d.pos;
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
                        end_pos.get_or_insert(pos);
                        break;
                    }
                    let len = len as usize;
                    if pos + len > msg.len() {
                        return Err(WireError::Truncated);
                    }
                    wire_len += 1 + len;
                    if wire_len > 255 {
                        return Err(WireError::NameTooLong);
                    }
                    labels.push(msg[pos..pos + len].to_ascii_lowercase());
                    pos += len;
                }
                0xC0 => {
                    if pos + 1 >= msg.len() {
                        return Err(WireError::Truncated);
                    }
                    let target = (((len & 0x3F) as usize) << 8) | msg[pos + 1] as usize;
                    end_pos.get_or_insert(pos + 2);
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
        d.pos = end_pos.expect("set before breaking");
        // Labels that came off the wire may hold bytes `from_labels`
        // rejects (dots, non-ASCII); build those through the wire form.
        Ok(Name::from_labels(&labels).unwrap_or_else(|_| via_wire(&labels)))
    }

    /// A name from labels `from_labels` refuses (a dot or a non-ASCII
    /// byte), which only a decoder builds: here the code under test, on a
    /// one-question message with one uncompressed name.
    fn via_wire(labels: &[Vec<u8>]) -> Name {
        let mut buf = vec![0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0];
        for l in labels {
            buf.push(l.len() as u8);
            buf.extend_from_slice(l);
        }
        buf.extend_from_slice(&[0, 0, 1, 0, 1]);
        Message::decode(&buf).expect("a plain name").questions[0]
            .name
            .clone()
    }

    fn rdata(d: &mut Decoder<'_>, rtype: RType, rdlen: usize) -> Result<RData, WireError> {
        let end = d.pos + rdlen;
        if end > d.msg.len() {
            return Err(WireError::Truncated);
        }
        let data = match rtype {
            RType::A => {
                if rdlen != 4 {
                    return Err(WireError::BadRdataLength);
                }
                let o = d.slice(4)?;
                RData::A(Ipv4Addr::new(o[0], o[1], o[2], o[3]))
            }
            RType::Aaaa => {
                if rdlen != 16 {
                    return Err(WireError::BadRdataLength);
                }
                let mut a = [0u8; 16];
                a.copy_from_slice(d.slice(16)?);
                RData::Aaaa(Ipv6Addr::from(a))
            }
            RType::Ns => RData::Ns(name(d)?),
            RType::Cname => RData::Cname(name(d)?),
            RType::Soa => RData::Soa(SoaData {
                mname: name(d)?,
                rname: name(d)?,
                serial: d.u32()?,
                refresh: d.u32()?,
                retry: d.u32()?,
                expire: d.u32()?,
                minimum: d.u32()?,
            }),
            RType::Mx => RData::Mx(d.u16()?, name(d)?),
            RType::Txt => {
                let mut strings = Vec::new();
                while d.pos < end {
                    let len = d.u8()? as usize;
                    if d.pos + len > end {
                        return Err(WireError::BadRdataLength);
                    }
                    strings.push(d.slice(len)?.to_vec());
                }
                RData::Txt(strings)
            }
            RType::Ds => {
                if rdlen < 4 {
                    return Err(WireError::BadRdataLength);
                }
                let tag = d.u16()?;
                let alg = d.u8()?;
                let dt = d.u8()?;
                RData::Ds(tag, alg, dt, d.slice(rdlen - 4)?.to_vec())
            }
        };
        if d.pos != end {
            return Err(WireError::BadRdataLength);
        }
        Ok(data)
    }

    fn rtype(d: &mut Decoder<'_>) -> Result<RType, WireError> {
        let code = d.u16()?;
        RType::from_code(code).ok_or(WireError::UnknownType(code))
    }

    pub fn record(d: &mut Decoder<'_>) -> Result<Record, WireError> {
        let owner = name(d)?;
        let rtype = rtype(d)?;
        let _class = d.u16()?;
        let ttl = d.u32()?;
        let rdlen = d.u16()? as usize;
        Ok(Record::new(owner, ttl, rdata(d, rtype, rdlen)?))
    }

    pub fn decode(buf: &[u8]) -> Result<Message, WireError> {
        let mut d = Decoder { msg: buf, pos: 0 };
        let id = d.u16()?;
        let bits = d.u16()?;
        let counts = [d.u16()?, d.u16()?, d.u16()?, d.u16()?];
        let mut questions = Vec::new();
        for _ in 0..counts[0] {
            let name = name(&mut d)?;
            let rtype = rtype(&mut d)?;
            let _class = d.u16()?;
            questions.push(Question::new(name, rtype));
        }
        let mut sections: [Vec<Record>; 3] = Default::default();
        for (section, &n) in sections.iter_mut().zip(&counts[1..]) {
            for _ in 0..n {
                section.push(record(&mut d)?);
            }
        }
        if d.remaining() != 0 {
            return Err(WireError::TrailingBytes(d.remaining()));
        }
        let [answers, authorities, additionals] = sections;
        Ok(Message {
            id,
            flags: flags(bits),
            questions,
            answers,
            authorities,
            additionals,
        })
    }

    /// Header flags, read back through a decode of a bare header.
    fn flags(bits: u16) -> Flags {
        let [hi, lo] = bits.to_be_bytes();
        let bare = [0, 0, hi, lo, 0, 0, 0, 0, 0, 0, 0, 0];
        Message::decode(&bare).expect("a bare header").flags
    }

    /// Offsets of the fields a mutation targets: every name start, every
    /// record's type code and every RDLENGTH.
    #[derive(Default, Debug)]
    pub struct Fields {
        pub names: Vec<usize>,
        pub types: Vec<usize>,
        pub rdlens: Vec<usize>,
    }

    pub fn fields(buf: &[u8]) -> Fields {
        let mut f = Fields::default();
        let mut d = Decoder { msg: buf, pos: 12 };
        let count = |i: usize| u16::from_be_bytes([buf[4 + 2 * i], buf[5 + 2 * i]]);
        for _ in 0..count(0) {
            f.names.push(d.pos);
            name(&mut d).expect("a valid message");
            f.types.push(d.pos);
            d.pos += 4;
        }
        for _ in 0..count(1) + count(2) + count(3) {
            f.names.push(d.pos);
            name(&mut d).expect("a valid message");
            f.types.push(d.pos);
            f.rdlens.push(d.pos + 8);
            let rdlen = u16::from_be_bytes([buf[d.pos + 8], buf[d.pos + 9]]) as usize;
            let rdata = d.pos + 10;
            // Names inside RDATA are mutation targets too.
            let rtype = RType::from_code(u16::from_be_bytes([buf[d.pos], buf[d.pos + 1]]));
            match rtype {
                Some(RType::Ns | RType::Cname | RType::Soa) => f.names.push(rdata),
                Some(RType::Mx) => f.names.push(rdata + 2),
                _ => {}
            }
            d.pos = rdata + rdlen;
        }
        f
    }
}

/// Both decoders' verdicts on `buf` agree.
fn check(buf: &[u8]) -> Result<(), TestCaseError> {
    let got = MessageView::parse(buf).map(|v| v.to_message());
    let want = reference::decode(buf);
    prop_assert_eq!(got, want, "input {:02x?}", buf);
    Ok(())
}

/// In-wire name comparison agrees with comparing the decoded names, for
/// every pair of owners and targets in a valid message.
fn check_comparisons(buf: &[u8]) -> Result<(), TestCaseError> {
    let Ok(view) = MessageView::parse(buf) else {
        return Ok(());
    };
    let mut names = Vec::new();
    for r in view
        .answers()
        .chain(view.authorities())
        .chain(view.additionals())
    {
        names.push(r.owner());
        names.extend(r.target());
    }
    names.extend(view.questions().map(|q| q.name));
    for a in &names {
        for b in &names {
            prop_assert_eq!(a == b, a.to_name() == b.to_name());
            prop_assert_eq!(*a == *b.to_name(), a.to_name() == b.to_name());
        }
    }
    Ok(())
}

fn arb_label() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-zA-Z0-9]([a-zA-Z0-9-]{0,10}[a-zA-Z0-9])?").unwrap()
}

/// Names drawn from a small pool of suffixes, so replies compress.
fn arb_name() -> impl Strategy<Value = Name> {
    let suffix = prop_oneof![
        Just(vec![]),
        Just(vec!["ru".to_owned()]),
        Just(vec!["reg".to_owned(), "ru".to_owned()]),
        Just(vec!["example".to_owned(), "RU".to_owned()]),
    ];
    (proptest::collection::vec(arb_label(), 0..3), suffix).prop_map(|(mut head, tail)| {
        head.extend(tail);
        Name::from_labels(head).expect("generated labels are valid")
    })
}

fn arb_rdata() -> impl Strategy<Value = RData> {
    prop_oneof![
        any::<[u8; 4]>().prop_map(|o| RData::A(Ipv4Addr::from(o))),
        any::<[u8; 16]>().prop_map(|o| RData::Aaaa(Ipv6Addr::from(o))),
        arb_name().prop_map(RData::Ns),
        arb_name().prop_map(RData::Cname),
        (arb_name(), arb_name(), any::<u32>()).prop_map(|(mname, rname, serial)| {
            RData::Soa(SoaData {
                mname,
                rname,
                serial,
                refresh: 3600,
                retry: 600,
                expire: 86_400,
                minimum: 300,
            })
        }),
        (any::<u16>(), arb_name()).prop_map(|(p, n)| RData::Mx(p, n)),
        proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..12), 0..3)
            .prop_map(RData::Txt),
        (any::<u16>(), proptest::collection::vec(any::<u8>(), 0..12))
            .prop_map(|(t, dg)| RData::Ds(t, 8, 2, dg)),
    ]
}

fn arb_record() -> impl Strategy<Value = Record> {
    (arb_name(), any::<u32>(), arb_rdata())
        .prop_map(|(name, ttl, data)| Record::new(name, ttl, data))
}

/// A reply as a server sends it: one question, records in every section.
fn arb_reply() -> impl Strategy<Value = Vec<u8>> {
    (
        any::<u16>(),
        any::<bool>(),
        arb_name(),
        proptest::collection::vec(arb_record(), 0..3),
        proptest::collection::vec(arb_record(), 0..3),
        proptest::collection::vec(arb_record(), 0..3),
    )
        .prop_map(|(id, aa, qname, answers, authorities, additionals)| {
            let flags = Flags {
                qr: true,
                opcode: Opcode::Query,
                aa,
                rcode: Rcode::NoError,
                ..Flags::default()
            };
            Message {
                id,
                flags,
                questions: vec![Question::new(qname, RType::A)],
                answers,
                authorities,
                additionals,
            }
            .encode()
            .expect("small replies fit")
        })
}

/// One targeted corruption of a valid reply.
#[derive(Debug, Clone)]
enum Mutation {
    /// Overwrite a name start with a pointer to `target` (forward, to
    /// itself, or backward).
    Pointer { which: usize, target: u16 },
    /// Replace a record's type code.
    Type { which: usize, code: u16 },
    /// Add `delta` to an RDLENGTH.
    Rdlen { which: usize, delta: i16 },
    /// Append bytes.
    Trailing(Vec<u8>),
    /// Uppercase every ASCII letter.
    Uppercase,
    /// Overwrite one byte.
    Byte { at: usize, value: u8 },
}

fn arb_mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        (any::<usize>(), any::<u16>()).prop_map(|(which, target)| Mutation::Pointer {
            which,
            target: target % 600
        }),
        (
            any::<usize>(),
            prop_oneof![any::<u16>(), Just(0u16), Just(99u16), Just(255u16)]
        )
            .prop_map(|(which, code)| Mutation::Type { which, code }),
        (any::<usize>(), -4i16..=4).prop_map(|(which, delta)| Mutation::Rdlen { which, delta }),
        proptest::collection::vec(any::<u8>(), 1..4).prop_map(Mutation::Trailing),
        Just(Mutation::Uppercase),
        (any::<usize>(), any::<u8>()).prop_map(|(at, value)| Mutation::Byte { at, value }),
    ]
}

fn mutate(mut buf: Vec<u8>, m: &Mutation) -> Vec<u8> {
    let f = reference::fields(&buf);
    let pick = |v: &[usize], which: usize| (!v.is_empty()).then(|| v[which % v.len()]);
    match m {
        Mutation::Pointer { which, target } => {
            // A root name ending the message has one byte to overwrite.
            if let Some(at) = pick(&f.names, *which).filter(|&at| at + 2 <= buf.len()) {
                buf[at..at + 2].copy_from_slice(&(0xC000 | target).to_be_bytes());
            }
        }
        Mutation::Type { which, code } => {
            if let Some(at) = pick(&f.types, *which) {
                buf[at..at + 2].copy_from_slice(&code.to_be_bytes());
            }
        }
        Mutation::Rdlen { which, delta } => {
            if let Some(at) = pick(&f.rdlens, *which) {
                let old = u16::from_be_bytes([buf[at], buf[at + 1]]);
                let new = old.wrapping_add_signed(*delta);
                buf[at..at + 2].copy_from_slice(&new.to_be_bytes());
            }
        }
        Mutation::Trailing(extra) => buf.extend_from_slice(extra),
        Mutation::Uppercase => buf[12..].make_ascii_uppercase(),
        Mutation::Byte { at, value } => {
            let at = at % buf.len();
            buf[at] = *value;
        }
    }
    buf
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_decode_alike(data in proptest::collection::vec(any::<u8>(), 0..200)) {
        check(&data)?;
    }

    #[test]
    fn arbitrary_bodies_behind_a_plausible_header_decode_alike(
        counts in any::<[u8; 4]>(),
        body in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        let mut buf = vec![0x12, 0x34, 0x84, 0x00];
        for c in counts {
            buf.extend_from_slice(&[0, c % 4]);
        }
        buf.extend_from_slice(&body);
        check(&buf)?;
    }

    #[test]
    fn replies_and_their_truncations_decode_alike(reply in arb_reply()) {
        check(&reply)?;
        check_comparisons(&reply)?;
        for cut in 0..reply.len() {
            check(&reply[..cut])?;
        }
    }

    #[test]
    fn mutated_replies_decode_alike(
        reply in arb_reply(),
        mutations in proptest::collection::vec(arb_mutation(), 1..3),
    ) {
        let mut buf = reply;
        for m in &mutations {
            // Field offsets come from a valid message; stop once a
            // mutation has broken it.
            if reference::decode(&buf).is_err() {
                break;
            }
            buf = mutate(buf, m);
        }
        check(&buf)?;
        check_comparisons(&buf)?;
        for cut in 0..buf.len() {
            check(&buf[..cut])?;
        }
    }
}

#[test]
fn pointer_chains_at_and_past_the_hop_cap_decode_alike() {
    let cap = reference::MAX_POINTER_HOPS;
    for links in [cap - 2, cap - 1, cap, 100] {
        // Question: the root name at offset 12. Answer 1: a DS record
        // whose digest holds `links` pointers, each to the one before,
        // the first to the question's root. Answer 2: an A record whose
        // owner points at the last link, `links + 1` hops from the root.
        let mut buf = vec![0, 1, 0x84, 0, 0, 1, 0, 2, 0, 0, 0, 0];
        buf.extend_from_slice(&[0, 0, 1, 0, 1]);
        buf.extend_from_slice(&[0, 0, 43, 0, 1, 0, 0, 0, 60]);
        buf.extend_from_slice(&(4 + 2 * links as u16).to_be_bytes());
        buf.extend_from_slice(&[0, 1, 8, 2]);
        let first = buf.len() as u16;
        let mut target = 12u16;
        for i in 0..links as u16 {
            buf.extend_from_slice(&(0xC000 | target).to_be_bytes());
            target = first + 2 * i;
        }
        buf.extend_from_slice(&(0xC000 | target).to_be_bytes());
        buf.extend_from_slice(&[0, 1, 0, 1, 0, 0, 0, 60, 0, 4, 192, 0, 2, 1]);
        let got = MessageView::parse(&buf).map(|v| v.to_message());
        assert_eq!(got, reference::decode(&buf), "{links} links");
        assert_eq!(got.is_ok(), links < cap, "{links} links");
    }
}

#[test]
fn over_long_names_are_rejected_alike() {
    // Four 63-octet labels: 4 * 64 + 1 = 257 > 255.
    let mut buf = vec![0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0];
    for _ in 0..4 {
        buf.push(63);
        buf.extend_from_slice(&[b'a'; 63]);
    }
    buf.extend_from_slice(&[0, 0, 1, 0, 1]);
    assert_eq!(MessageView::parse(&buf).err(), Some(WireError::NameTooLong));
    assert_eq!(reference::decode(&buf).err(), Some(WireError::NameTooLong));
}
