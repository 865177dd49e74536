//! DNS messages: header, question, and record sections.

use crate::name::{Name, NameSlice};
use crate::rdata::{RType, Record, CLASS_IN};
use crate::view::MessageView;
use crate::wire::{Encoder, WireError};
use std::fmt;

/// Operation code (header OPCODE field). We only speak standard queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Opcode {
    /// Standard query.
    #[default]
    Query,
    /// Anything else, preserved numerically.
    Other(u8),
}

impl Opcode {
    fn code(self) -> u8 {
        match self {
            Opcode::Query => 0,
            Opcode::Other(c) => c & 0x0F,
        }
    }

    fn from_code(c: u8) -> Self {
        match c & 0x0F {
            0 => Opcode::Query,
            other => Opcode::Other(other),
        }
    }
}

/// Response code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Rcode {
    /// No error.
    #[default]
    NoError,
    /// Format error.
    FormErr,
    /// Server failure.
    ServFail,
    /// Name does not exist (authoritative).
    NxDomain,
    /// Not implemented.
    NotImp,
    /// Refused (e.g. a provider that has terminated service — this is the
    /// rcode our simulated post-sanctions providers return).
    Refused,
    /// Any other code, preserved numerically.
    Other(u8),
}

impl Rcode {
    fn code(self) -> u8 {
        match self {
            Rcode::NoError => 0,
            Rcode::FormErr => 1,
            Rcode::ServFail => 2,
            Rcode::NxDomain => 3,
            Rcode::NotImp => 4,
            Rcode::Refused => 5,
            Rcode::Other(c) => c & 0x0F,
        }
    }

    fn from_code(c: u8) -> Self {
        match c & 0x0F {
            0 => Rcode::NoError,
            1 => Rcode::FormErr,
            2 => Rcode::ServFail,
            3 => Rcode::NxDomain,
            4 => Rcode::NotImp,
            5 => Rcode::Refused,
            other => Rcode::Other(other),
        }
    }
}

impl fmt::Display for Rcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rcode::NoError => write!(f, "NOERROR"),
            Rcode::FormErr => write!(f, "FORMERR"),
            Rcode::ServFail => write!(f, "SERVFAIL"),
            Rcode::NxDomain => write!(f, "NXDOMAIN"),
            Rcode::NotImp => write!(f, "NOTIMP"),
            Rcode::Refused => write!(f, "REFUSED"),
            Rcode::Other(c) => write!(f, "RCODE{c}"),
        }
    }
}

/// Header flag bits (QR, AA, TC, RD, RA) plus opcode and rcode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Flags {
    /// Response (vs query).
    pub qr: bool,
    /// Operation code.
    pub opcode: Opcode,
    /// Authoritative answer.
    pub aa: bool,
    /// Truncated.
    pub tc: bool,
    /// Recursion desired.
    pub rd: bool,
    /// Recursion available.
    pub ra: bool,
    /// Response code.
    pub rcode: Rcode,
}

impl Flags {
    /// Flags of a standard recursive query: RD set, every other bit clear.
    fn query() -> Self {
        Flags {
            rd: true,
            ..Flags::default()
        }
    }

    /// Response flags for `query`: QR set, opcode and RD copied, `rcode`,
    /// every other bit clear.
    pub fn response_to(query: Flags, rcode: Rcode) -> Self {
        Flags {
            qr: true,
            opcode: query.opcode,
            rd: query.rd,
            rcode,
            ..Flags::default()
        }
    }

    fn encode(self) -> u16 {
        (u16::from(self.qr) << 15)
            | (u16::from(self.opcode.code()) << 11)
            | (u16::from(self.aa) << 10)
            | (u16::from(self.tc) << 9)
            | (u16::from(self.rd) << 8)
            | (u16::from(self.ra) << 7)
            | u16::from(self.rcode.code())
    }

    pub(crate) fn decode(bits: u16) -> Self {
        Flags {
            qr: bits & 0x8000 != 0,
            opcode: Opcode::from_code((bits >> 11) as u8),
            aa: bits & 0x0400 != 0,
            tc: bits & 0x0200 != 0,
            rd: bits & 0x0100 != 0,
            ra: bits & 0x0080 != 0,
            rcode: Rcode::from_code(bits as u8),
        }
    }
}

/// A question section entry.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Question {
    /// Queried name.
    pub name: Name,
    /// Queried type.
    pub rtype: RType,
}

impl Question {
    /// Convenience constructor.
    pub fn new(name: Name, rtype: RType) -> Self {
        Question { name, rtype }
    }
}

impl fmt::Display for Question {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} IN {}", self.name, self.rtype)
    }
}

/// A complete DNS message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Transaction id.
    pub id: u16,
    /// Header flags.
    pub flags: Flags,
    /// Question section.
    pub questions: Vec<Question>,
    /// Answer section.
    pub answers: Vec<Record>,
    /// Authority section (NS records of the delegated zone on referral).
    pub authorities: Vec<Record>,
    /// Additional section (glue).
    pub additionals: Vec<Record>,
}

impl Message {
    /// Build a standard recursive query for `name`/`rtype`.
    pub fn query(id: u16, name: Name, rtype: RType) -> Self {
        Message {
            id,
            flags: Flags::query(),
            questions: vec![Question::new(name, rtype)],
            answers: Vec::new(),
            authorities: Vec::new(),
            additionals: Vec::new(),
        }
    }

    /// Build a response skeleton mirroring a query's id and question.
    pub fn response_to(query: &Message, rcode: Rcode) -> Self {
        Message {
            id: query.id,
            flags: Flags::response_to(query.flags, rcode),
            questions: query.questions.clone(),
            answers: Vec::new(),
            authorities: Vec::new(),
            additionals: Vec::new(),
        }
    }

    /// Encode to wire bytes.
    pub fn encode(&self) -> Result<Vec<u8>, WireError> {
        let mut out = Vec::new();
        let sections = [&self.answers, &self.authorities, &self.additionals];
        let [an, ns, ar] = sections.map(Vec::len);
        encode_message(
            &mut out,
            self.id,
            self.flags,
            [self.questions.len(), an, ns, ar],
            |enc| {
                for q in &self.questions {
                    put_question(enc, &q.name, q.rtype);
                }
                for r in sections.into_iter().flatten() {
                    r.encode(enc);
                }
            },
        )?;
        Ok(out)
    }

    /// Encode the standard recursive query [`Message::query`] builds,
    /// straight into `out`, without building the [`Message`].
    pub fn encode_query(
        id: u16,
        name: &NameSlice,
        rtype: RType,
        out: &mut Vec<u8>,
    ) -> Result<(), WireError> {
        encode_message(out, id, Flags::query(), [1, 0, 0, 0], |enc| {
            put_question(enc, name, rtype)
        })
    }

    /// Decode from wire bytes; rejects trailing garbage.
    pub fn decode(buf: &[u8]) -> Result<Self, WireError> {
        Ok(MessageView::parse(buf)?.to_message())
    }

    /// Whether this message is a response.
    pub fn is_response(&self) -> bool {
        self.flags.qr
    }
}

/// Encode a message into `out`: the header, whose question, answer,
/// authority and additional counts are `counts`, then the entries `body`
/// writes, which must be that many, in that order.
pub(crate) fn encode_message(
    out: &mut Vec<u8>,
    id: u16,
    flags: Flags,
    counts: [usize; 4],
    body: impl FnOnce(&mut Encoder<'_>),
) -> Result<(), WireError> {
    let mut e = Encoder::new(out);
    e.put_u16(id);
    e.put_u16(flags.encode());
    for count in counts {
        e.put_u16(count as u16);
    }
    body(&mut e);
    e.finish()
}

/// Write one question entry.
pub(crate) fn put_question(enc: &mut Encoder<'_>, name: &NameSlice, rtype: RType) {
    name.encode(enc);
    enc.put_u16(rtype.code());
    enc.put_u16(CLASS_IN);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rdata::RData;

    fn name(s: &str) -> Name {
        s.parse().unwrap()
    }

    #[test]
    fn query_roundtrip() {
        let q = Message::query(0x1234, name("example.ru"), RType::Ns);
        let buf = q.encode().unwrap();
        assert_eq!(Message::decode(&buf).unwrap(), q);
        assert!(!q.is_response());
        assert!(q.flags.rd);
        let mut direct = vec![0xAA; 100];
        Message::encode_query(0x1234, &name("example.ru"), RType::Ns, &mut direct).unwrap();
        assert_eq!(direct, buf);
    }

    #[test]
    fn response_roundtrip_with_all_sections() {
        let q = Message::query(7, name("example.ru"), RType::A);
        let mut r = Message::response_to(&q, Rcode::NoError);
        r.flags.aa = true;
        r.answers.push(Record::new(
            name("example.ru"),
            300,
            RData::A("198.51.100.9".parse().unwrap()),
        ));
        r.authorities.push(Record::new(
            name("example.ru"),
            3600,
            RData::Ns(name("ns1.example.ru")),
        ));
        r.additionals.push(Record::new(
            name("ns1.example.ru"),
            3600,
            RData::A("198.51.100.53".parse().unwrap()),
        ));
        let buf = r.encode().unwrap();
        let back = Message::decode(&buf).unwrap();
        assert_eq!(back, r);
        assert!(back.is_response());
        assert_eq!(back.flags.rcode, Rcode::NoError);
    }

    #[test]
    fn response_mirrors_query() {
        let q = Message::query(42, name("a.ru"), RType::Aaaa);
        let r = Message::response_to(&q, Rcode::NxDomain);
        assert_eq!(r.id, 42);
        assert_eq!(r.questions, q.questions);
        assert_eq!(r.flags.rcode, Rcode::NxDomain);
        assert!(r.flags.qr);
    }

    #[test]
    fn flag_bits_roundtrip() {
        for qr in [false, true] {
            for aa in [false, true] {
                for tc in [false, true] {
                    for rd in [false, true] {
                        for ra in [false, true] {
                            let f = Flags {
                                qr,
                                opcode: Opcode::Query,
                                aa,
                                tc,
                                rd,
                                ra,
                                rcode: Rcode::Refused,
                            };
                            assert_eq!(Flags::decode(f.encode()), f);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn rcode_roundtrip() {
        for c in 0..16u8 {
            assert_eq!(Rcode::from_code(c).code(), c);
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let q = Message::query(1, name("x.ru"), RType::A);
        let mut buf = q.encode().unwrap();
        buf.push(0);
        assert_eq!(Message::decode(&buf), Err(WireError::TrailingBytes(1)));
    }

    #[test]
    fn truncated_header_rejected() {
        assert_eq!(Message::decode(&[0, 1, 2]), Err(WireError::Truncated));
        assert_eq!(Message::decode(&[]), Err(WireError::Truncated));
    }

    #[test]
    fn section_count_lies_rejected() {
        // Header claims one question but provides none.
        let buf = [0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0];
        assert_eq!(Message::decode(&buf), Err(WireError::Truncated));
    }

    #[test]
    fn compression_across_sections() {
        // All records share the owner suffix; the encoded message must be
        // smaller than the sum of uncompressed parts.
        let q = Message::query(
            9,
            name("verylonglabel-for-compression.example.ru"),
            RType::Ns,
        );
        let mut r = Message::response_to(&q, Rcode::NoError);
        for i in 0..4 {
            r.answers.push(Record::new(
                name("verylonglabel-for-compression.example.ru"),
                300,
                RData::Ns(name(&format!("ns{i}.example.ru"))),
            ));
        }
        let buf = r.encode().unwrap();
        let uncompressed: usize = 12
            + r.questions[0].name.wire_len()
            + 4
            + r.answers
                .iter()
                .map(
                    |rec| rec.name.wire_len() + 10 + 16, /* ns name approx */
                )
                .sum::<usize>();
        assert!(
            buf.len() < uncompressed,
            "{} !< {}",
            buf.len(),
            uncompressed
        );
        assert_eq!(Message::decode(&buf).unwrap(), r);
    }
}
