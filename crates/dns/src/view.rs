//! Borrowed reading of DNS messages: validate once, then read in place.
//!
//! [`MessageView::parse`] checks a whole message in one pass with the
//! decoding rules of RFC 1035 as this crate applies them: truncation,
//! backward-only compression pointers with a hop cap, the name length
//! limit, unknown record types, RDATA bounds and trailing bytes. It
//! allocates nothing. The section iterators then walk the validated bytes
//! and hand out [`RecordView`]s, whose owners and targets are
//! [`NameView`]s still inside the message; only
//! [`to_name`](NameView::to_name), [`to_record`](RecordView::to_record)
//! and [`to_message`](MessageView::to_message) copy anything out, one
//! allocation per name or buffer they keep. [`Message::decode`] is
//! `parse` followed by `to_message`.

use crate::message::{encode_message, put_question, Flags, Message, Question};
use crate::name::{Name, NameSlice, MAX_NAME_LEN};
use crate::rdata::{RData, RType, Record, SoaData};
use crate::wire::{Encoder, WireError, MAX_POINTER_HOPS};
use std::borrow::Borrow;
use std::net::{Ipv4Addr, Ipv6Addr};

/// Length of the fixed message header.
const HEADER_LEN: usize = 12;

/// A validated DNS message, read in place.
#[derive(Debug, Clone, Copy)]
pub struct MessageView<'a> {
    msg: &'a [u8],
    id: u16,
    flags: Flags,
    /// Question, answer, authority and additional counts.
    counts: [u16; 4],
    /// Offset of the first entry of each section, in the same order.
    starts: [usize; 4],
}

impl<'a> MessageView<'a> {
    /// Validate `msg` as one complete message. Fails with the first
    /// [`WireError`] a front-to-back read meets; nothing is allocated.
    pub fn parse(msg: &'a [u8]) -> Result<Self, WireError> {
        let header = msg.get(..HEADER_LEN).ok_or(WireError::Truncated)?;
        let word = |i: usize| u16::from_be_bytes([header[2 * i], header[2 * i + 1]]);
        let counts = [word(2), word(3), word(4), word(5)];
        let mut starts = [HEADER_LEN; 4];
        let mut pos = HEADER_LEN;
        for _ in 0..counts[0] {
            pos = check_name(msg, pos)?;
            read_type(msg, pos)?;
            pos = need(msg, pos + 2, 2)?;
        }
        for section in 1..4 {
            starts[section] = pos;
            for _ in 0..counts[section] {
                pos = check_record(msg, pos)?;
            }
        }
        if pos != msg.len() {
            return Err(WireError::TrailingBytes(msg.len() - pos));
        }
        Ok(MessageView {
            msg,
            id: word(0),
            flags: Flags::decode(word(1)),
            counts,
            starts,
        })
    }

    /// Transaction id.
    pub fn id(&self) -> u16 {
        self.id
    }

    /// Header flags.
    pub fn flags(&self) -> Flags {
        self.flags
    }

    /// Whether this message is a response.
    pub fn is_response(&self) -> bool {
        self.flags.qr
    }

    /// The question section.
    pub fn questions(&self) -> Questions<'a> {
        Questions {
            msg: self.msg,
            pos: self.starts[0],
            left: self.counts[0],
        }
    }

    /// The answer section.
    pub fn answers(&self) -> Records<'a> {
        self.section(1)
    }

    /// The authority section.
    pub fn authorities(&self) -> Records<'a> {
        self.section(2)
    }

    /// The additional section.
    pub fn additionals(&self) -> Records<'a> {
        self.section(3)
    }

    fn section(&self, i: usize) -> Records<'a> {
        Records {
            msg: self.msg,
            pos: self.starts[i],
            left: self.counts[i],
        }
    }

    /// Copy the whole message out into an owned [`Message`].
    pub fn to_message(&self) -> Message {
        Message {
            id: self.id,
            flags: self.flags,
            questions: self
                .questions()
                .map(|q| Question::new(q.name.to_name(), q.rtype))
                .collect(),
            answers: self.answers().map(|r| r.to_record()).collect(),
            authorities: self.authorities().map(|r| r.to_record()).collect(),
            additionals: self.additionals().map(|r| r.to_record()).collect(),
        }
    }

    /// Encode a reply to this message into `out`: its id and its
    /// questions (names lowercased), with `flags` and the answer,
    /// authority and additional sections. The sections may hold records
    /// or references to records, so a server can answer straight from
    /// the zone it holds. On `Err` the contents of `out` are unspecified.
    pub fn encode_reply<R: Borrow<Record>>(
        &self,
        flags: Flags,
        sections: [&[R]; 3],
        out: &mut Vec<u8>,
    ) -> Result<(), WireError> {
        self.encode_reply_with(flags, sections.map(<[R]>::len), out, |enc| {
            for r in sections.into_iter().flatten() {
                r.borrow().encode(enc);
            }
        })
    }

    /// [`encode_reply`](Self::encode_reply) for a server that holds no
    /// [`Record`]s: `records` writes the answer, authority and additional
    /// records itself (with [`encode_record`](crate::encode_record)),
    /// exactly `counts` of them, section by section.
    pub fn encode_reply_with(
        &self,
        flags: Flags,
        counts: [usize; 3],
        out: &mut Vec<u8>,
        records: impl FnOnce(&mut Encoder<'_>),
    ) -> Result<(), WireError> {
        let questions = self.questions();
        let [an, ns, ar] = counts;
        encode_message(out, self.id, flags, [questions.len(), an, ns, ar], |enc| {
            let mut buf = [0u8; MAX_NAME_LEN];
            for q in questions {
                put_question(enc, q.name.lowercase_into(&mut buf), q.rtype);
            }
            records(enc);
        })
    }
}

/// One entry of a [`MessageView`]'s question section.
#[derive(Debug, Clone, Copy)]
pub struct QuestionView<'a> {
    /// Queried name.
    pub name: NameView<'a>,
    /// Queried type.
    pub rtype: RType,
}

/// Iterator over a [`MessageView`]'s question section.
#[derive(Debug, Clone)]
pub struct Questions<'a> {
    msg: &'a [u8],
    pos: usize,
    left: u16,
}

impl<'a> Iterator for Questions<'a> {
    type Item = QuestionView<'a>;

    fn next(&mut self) -> Option<QuestionView<'a>> {
        self.left = self.left.checked_sub(1)?;
        let name = NameView {
            msg: self.msg,
            pos: self.pos,
        };
        let at = skip_name(self.msg, self.pos);
        self.pos = at + 4;
        Some(QuestionView {
            name,
            rtype: known_type(self.msg, at),
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left as usize, Some(self.left as usize))
    }
}

impl ExactSizeIterator for Questions<'_> {}

/// Iterator over one record section of a [`MessageView`].
#[derive(Debug, Clone)]
pub struct Records<'a> {
    msg: &'a [u8],
    pos: usize,
    left: u16,
}

impl<'a> Iterator for Records<'a> {
    type Item = RecordView<'a>;

    fn next(&mut self) -> Option<RecordView<'a>> {
        self.left = self.left.checked_sub(1)?;
        let owner = self.pos;
        let at = skip_name(self.msg, owner);
        let rdata = at + 10;
        let rdlen = u16_at(self.msg, at + 8) as usize;
        self.pos = rdata + rdlen;
        Some(RecordView {
            msg: self.msg,
            owner,
            rtype: known_type(self.msg, at),
            ttl: u32::from_be_bytes([
                self.msg[at + 4],
                self.msg[at + 5],
                self.msg[at + 6],
                self.msg[at + 7],
            ]),
            rdata,
            rdlen,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left as usize, Some(self.left as usize))
    }
}

impl ExactSizeIterator for Records<'_> {}

/// A resource record inside a validated message.
#[derive(Debug, Clone, Copy)]
pub struct RecordView<'a> {
    msg: &'a [u8],
    owner: usize,
    rtype: RType,
    ttl: u32,
    rdata: usize,
    rdlen: usize,
}

impl<'a> RecordView<'a> {
    /// Owner name.
    pub fn owner(&self) -> NameView<'a> {
        self.name_at(self.owner)
    }

    /// Record type.
    pub fn rtype(&self) -> RType {
        self.rtype
    }

    /// The address of an A record.
    pub fn a(&self) -> Option<Ipv4Addr> {
        (self.rtype == RType::A).then(|| {
            let o = &self.msg[self.rdata..self.rdata + 4];
            Ipv4Addr::new(o[0], o[1], o[2], o[3])
        })
    }

    /// The target name of an NS or CNAME record.
    pub fn target(&self) -> Option<NameView<'a>> {
        matches!(self.rtype, RType::Ns | RType::Cname).then(|| self.name_at(self.rdata))
    }

    /// Copy the record out into an owned [`Record`].
    pub fn to_record(&self) -> Record {
        let rdata = self.rdata;
        let end = rdata + self.rdlen;
        let msg = self.msg;
        let data = match self.rtype {
            RType::A => RData::A(self.a().expect("an A record")),
            RType::Aaaa => {
                let mut a = [0u8; 16];
                a.copy_from_slice(&msg[rdata..end]);
                RData::Aaaa(Ipv6Addr::from(a))
            }
            RType::Ns => RData::Ns(self.name_at(rdata).to_name()),
            RType::Cname => RData::Cname(self.name_at(rdata).to_name()),
            RType::Soa => {
                let rname = skip_name(msg, rdata);
                let at = skip_name(msg, rname);
                let field = |i: usize| {
                    let p = at + 4 * i;
                    u32::from_be_bytes([msg[p], msg[p + 1], msg[p + 2], msg[p + 3]])
                };
                RData::Soa(SoaData {
                    mname: self.name_at(rdata).to_name(),
                    rname: self.name_at(rname).to_name(),
                    serial: field(0),
                    refresh: field(1),
                    retry: field(2),
                    expire: field(3),
                    minimum: field(4),
                })
            }
            RType::Mx => RData::Mx(u16_at(msg, rdata), self.name_at(rdata + 2).to_name()),
            RType::Txt => {
                let mut strings = Vec::new();
                let mut p = rdata;
                while p < end {
                    let len = msg[p] as usize;
                    strings.push(msg[p + 1..p + 1 + len].to_vec());
                    p += 1 + len;
                }
                RData::Txt(strings)
            }
            RType::Ds => RData::Ds(
                u16_at(msg, rdata),
                msg[rdata + 2],
                msg[rdata + 3],
                msg[rdata + 4..end].to_vec(),
            ),
        };
        Record::new(self.owner().to_name(), self.ttl, data)
    }

    fn name_at(&self, pos: usize) -> NameView<'a> {
        NameView { msg: self.msg, pos }
    }
}

/// A validated, possibly compressed name inside a message.
///
/// Compares case-insensitively, label by label, with other in-message
/// names and with [`NameSlice`]s, as the decoded (lowercased) names would.
#[derive(Debug, Clone, Copy)]
pub struct NameView<'a> {
    msg: &'a [u8],
    pos: usize,
}

impl<'a> NameView<'a> {
    /// Validate the name starting at `pos` in `msg` and return it with the
    /// offset just past its in-place encoding.
    #[cfg(test)]
    pub(crate) fn parse_at(msg: &'a [u8], pos: usize) -> Result<(Self, usize), WireError> {
        let end = check_name(msg, pos)?;
        Ok((NameView { msg, pos }, end))
    }

    /// The labels as they appear on the wire (case preserved), leftmost
    /// first, following compression pointers.
    fn labels(&self) -> impl Iterator<Item = &'a [u8]> {
        let msg = self.msg;
        let mut pos = self.pos;
        std::iter::from_fn(move || loop {
            let len = msg[pos];
            if len & 0xC0 == 0xC0 {
                pos = (((len & 0x3F) as usize) << 8) | msg[pos + 1] as usize;
                continue;
            }
            if len == 0 {
                return None;
            }
            let label = &msg[pos + 1..pos + 1 + len as usize];
            pos += 1 + len as usize;
            return Some(label);
        })
    }

    /// Copy the name out, lowercased, with a single allocation (none for
    /// the root).
    pub fn to_name(&self) -> Name {
        let len = self.labels().map(|l| 1 + l.len()).sum();
        let mut wire = Vec::with_capacity(len);
        for label in self.labels() {
            wire.push(label.len() as u8);
            wire.extend(label.iter().map(u8::to_ascii_lowercase));
        }
        Name::from_wire(wire.into_boxed_slice())
    }

    /// Copy the name, lowercased, into `buf` and borrow it from there as a
    /// [`NameSlice`]: a name to probe maps or encode with, no allocation.
    pub fn lowercase_into<'b>(&self, buf: &'b mut [u8; MAX_NAME_LEN]) -> &'b NameSlice {
        let mut len = 0;
        for label in self.labels() {
            buf[len] = label.len() as u8;
            for (dst, src) in buf[len + 1..].iter_mut().zip(label) {
                *dst = src.to_ascii_lowercase();
            }
            len += 1 + label.len();
        }
        NameSlice::from_wire(&buf[..len])
    }
}

/// Label-wise comparison ignoring ASCII case.
fn labels_eq<'x, 'y>(
    mut a: impl Iterator<Item = &'x [u8]>,
    mut b: impl Iterator<Item = &'y [u8]>,
) -> bool {
    loop {
        match (a.next(), b.next()) {
            (None, None) => return true,
            (Some(x), Some(y)) if x.eq_ignore_ascii_case(y) => {}
            _ => return false,
        }
    }
}

impl PartialEq for NameView<'_> {
    fn eq(&self, other: &Self) -> bool {
        labels_eq(self.labels(), other.labels())
    }
}

impl PartialEq<NameSlice> for NameView<'_> {
    fn eq(&self, other: &NameSlice) -> bool {
        labels_eq(self.labels(), other.labels())
    }
}

/// `pos + n` if `msg` holds `n` bytes at `pos`.
fn need(msg: &[u8], pos: usize, n: usize) -> Result<usize, WireError> {
    let end = pos + n;
    if end > msg.len() {
        return Err(WireError::Truncated);
    }
    Ok(end)
}

fn u16_at(msg: &[u8], pos: usize) -> u16 {
    u16::from_be_bytes([msg[pos], msg[pos + 1]])
}

/// The record type whose code is at `pos`, if known.
fn read_type(msg: &[u8], pos: usize) -> Result<RType, WireError> {
    need(msg, pos, 2)?;
    let code = u16_at(msg, pos);
    RType::from_code(code).ok_or(WireError::UnknownType(code))
}

/// The type code at `pos` of a validated message.
fn known_type(msg: &[u8], pos: usize) -> RType {
    RType::from_code(u16_at(msg, pos)).expect("validated by MessageView::parse")
}

/// Validate the name at `start`; return the offset just past its in-place
/// encoding (its terminal zero, or its first pointer).
fn check_name(msg: &[u8], start: usize) -> Result<usize, WireError> {
    let mut pos = start;
    let mut wire_len = 1usize; // terminal zero octet
    let mut hops = 0usize;
    let mut end = None;
    loop {
        let &len = msg.get(pos).ok_or(WireError::Truncated)?;
        match len & 0xC0 {
            0x00 => {
                pos += 1;
                if len == 0 {
                    return Ok(end.unwrap_or(pos));
                }
                let len = len as usize;
                if pos + len > msg.len() {
                    return Err(WireError::Truncated);
                }
                wire_len += 1 + len;
                if wire_len > MAX_NAME_LEN {
                    return Err(WireError::NameTooLong);
                }
                pos += len;
            }
            0xC0 => {
                if pos + 1 >= msg.len() {
                    return Err(WireError::Truncated);
                }
                let target = (((len & 0x3F) as usize) << 8) | msg[pos + 1] as usize;
                end.get_or_insert(pos + 2);
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
}

/// The offset just past the in-place encoding of a validated name.
fn skip_name(msg: &[u8], mut pos: usize) -> usize {
    loop {
        let len = msg[pos];
        if len == 0 {
            return pos + 1;
        }
        if len & 0xC0 == 0xC0 {
            return pos + 2;
        }
        pos += 1 + len as usize;
    }
}

/// Validate the record at `pos`; return the offset just past it.
fn check_record(msg: &[u8], pos: usize) -> Result<usize, WireError> {
    let pos = check_name(msg, pos)?;
    let rtype = read_type(msg, pos)?;
    // Class and TTL are read but not checked.
    let rdata = need(msg, pos + 2, 8)?;
    let rdlen = u16_at(msg, rdata - 2) as usize;
    check_rdata(msg, rdata, rtype, rdlen)
}

/// Validate `rdlen` bytes of `rtype` RDATA at `pos`; return its end.
fn check_rdata(msg: &[u8], pos: usize, rtype: RType, rdlen: usize) -> Result<usize, WireError> {
    let end = need(msg, pos, rdlen)?;
    let read_to = match rtype {
        RType::A | RType::Aaaa => {
            let want = if rtype == RType::A { 4 } else { 16 };
            if rdlen != want {
                return Err(WireError::BadRdataLength);
            }
            end
        }
        // Names in RDATA may point anywhere earlier in the message, so
        // they are bounded by the message, then checked against `end`.
        RType::Ns | RType::Cname => check_name(msg, pos)?,
        RType::Soa => {
            let rname = check_name(msg, pos)?;
            let serial = check_name(msg, rname)?;
            need(msg, serial, 20)?
        }
        RType::Mx => check_name(msg, need(msg, pos, 2)?)?,
        // Character strings must end exactly at `end`.
        RType::Txt => {
            let mut p = pos;
            while p < end {
                p += 1 + msg[p] as usize;
            }
            p
        }
        RType::Ds => {
            if rdlen < 4 {
                return Err(WireError::BadRdataLength);
            }
            end
        }
    };
    if read_to != end {
        return Err(WireError::BadRdataLength);
    }
    Ok(end)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> Name {
        s.parse().unwrap()
    }

    /// A referral with an uppercase, compressed owner in every section.
    fn referral() -> Vec<u8> {
        let q = Message::query(7, name("Www.Example.RU"), RType::A);
        let mut r = q.clone();
        r.flags.qr = true;
        r.authorities.push(Record::new(
            name("example.ru"),
            3600,
            RData::Ns(name("ns1.example.ru")),
        ));
        r.additionals.push(Record::new(
            name("ns1.example.ru"),
            3600,
            RData::A("192.0.2.53".parse().unwrap()),
        ));
        let mut buf = r.encode().unwrap();
        // Uppercase the first label of the question name in place.
        buf[13..16].copy_from_slice(b"WWW");
        buf
    }

    #[test]
    fn sections_read_in_place() {
        let buf = referral();
        let v = MessageView::parse(&buf).unwrap();
        assert_eq!(v.id(), 7);
        assert!(v.is_response());
        let q = v.questions().next().unwrap();
        assert_eq!(q.rtype, RType::A);
        assert_eq!(q.name.to_name(), name("www.example.ru"));
        assert!(q.name == *name("WWW.example.ru"));
        assert_eq!(v.answers().len(), 0);
        let ns = v.authorities().next().unwrap();
        let glue = v.additionals().next().unwrap();
        assert_eq!(ns.rtype(), RType::Ns);
        assert!(ns.target().unwrap() == glue.owner());
        assert!(ns.owner() != glue.owner());
        assert_eq!(glue.a(), Some("192.0.2.53".parse().unwrap()));
        assert_eq!(ns.a(), None);
        assert_eq!(glue.target(), None);
        assert_eq!(v.to_message(), Message::decode(&buf).unwrap());
    }

    #[test]
    fn lowercase_into_borrows_a_probe_name() {
        let buf = referral();
        let v = MessageView::parse(&buf).unwrap();
        let mut scratch = [0u8; MAX_NAME_LEN];
        let q = v.questions().next().unwrap();
        let slice = q.name.lowercase_into(&mut scratch);
        assert_eq!(slice, &*name("www.example.ru"));
        let mut map = std::collections::HashMap::new();
        map.insert(name("example.ru"), 1);
        assert_eq!(map.get(slice.parent().unwrap()), Some(&1));
    }

    #[test]
    fn reply_echoes_lowercased_questions() {
        let buf = referral();
        let v = MessageView::parse(&buf).unwrap();
        let mut out = Vec::new();
        v.encode_reply(v.flags(), [&[] as &[Record], &[], &[]], &mut out)
            .unwrap();
        let back = Message::decode(&out).unwrap();
        assert_eq!(back.id, 7);
        assert_eq!(
            back.questions,
            vec![Question::new(name("www.example.ru"), RType::A)]
        );
        assert!(back.answers.is_empty() && back.authorities.is_empty());
    }
}
