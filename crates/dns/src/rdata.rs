//! Resource records and RDATA.

use crate::name::{Name, NameSlice};
use crate::wire::Encoder;
use std::fmt;
use std::net::{Ipv4Addr, Ipv6Addr};

/// The only class we implement: IN (Internet).
pub const CLASS_IN: u16 = 1;

/// Resource-record types we understand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RType {
    /// IPv4 address (RFC 1035).
    A,
    /// Authoritative name server (RFC 1035).
    Ns,
    /// Canonical name alias (RFC 1035).
    Cname,
    /// Start of authority (RFC 1035).
    Soa,
    /// Mail exchanger (RFC 1035).
    Mx,
    /// Free-form text (RFC 1035).
    Txt,
    /// IPv6 address (RFC 3596).
    Aaaa,
    /// Delegation signer (RFC 4034) — present so that zones can model
    /// DNSSEC delegations; we do not validate signatures.
    Ds,
}

impl RType {
    /// The IANA type code.
    pub const fn code(self) -> u16 {
        match self {
            RType::A => 1,
            RType::Ns => 2,
            RType::Cname => 5,
            RType::Soa => 6,
            RType::Mx => 15,
            RType::Txt => 16,
            RType::Aaaa => 28,
            RType::Ds => 43,
        }
    }

    /// Parse an IANA type code.
    pub const fn from_code(code: u16) -> Option<RType> {
        Some(match code {
            1 => RType::A,
            2 => RType::Ns,
            5 => RType::Cname,
            6 => RType::Soa,
            15 => RType::Mx,
            16 => RType::Txt,
            28 => RType::Aaaa,
            43 => RType::Ds,
            _ => return None,
        })
    }

    /// Mnemonic, as used in zone files.
    pub const fn mnemonic(self) -> &'static str {
        match self {
            RType::A => "A",
            RType::Ns => "NS",
            RType::Cname => "CNAME",
            RType::Soa => "SOA",
            RType::Mx => "MX",
            RType::Txt => "TXT",
            RType::Aaaa => "AAAA",
            RType::Ds => "DS",
        }
    }
}

impl fmt::Display for RType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// SOA RDATA fields.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SoaData {
    /// Primary name server.
    pub mname: Name,
    /// Responsible mailbox (encoded as a name).
    pub rname: Name,
    /// Zone serial number; the registry bumps this on every daily publish.
    pub serial: u32,
    /// Refresh interval (seconds).
    pub refresh: u32,
    /// Retry interval (seconds).
    pub retry: u32,
    /// Expiry (seconds).
    pub expire: u32,
    /// Negative-caching TTL (seconds).
    pub minimum: u32,
}

impl SoaData {
    /// Encode as SOA RDATA, compressing both names.
    pub fn encode(&self, enc: &mut Encoder<'_>) {
        self.mname.encode(enc);
        self.rname.encode(enc);
        enc.put_u32(self.serial);
        enc.put_u32(self.refresh);
        enc.put_u32(self.retry);
        enc.put_u32(self.expire);
        enc.put_u32(self.minimum);
    }
}

/// Typed RDATA.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum RData {
    /// IPv4 address.
    A(Ipv4Addr),
    /// IPv6 address.
    Aaaa(Ipv6Addr),
    /// Name-server target.
    Ns(Name),
    /// Alias target.
    Cname(Name),
    /// Start of authority.
    Soa(SoaData),
    /// Mail exchanger: preference + target.
    Mx(u16, Name),
    /// Text strings (each at most 255 bytes on the wire).
    Txt(Vec<Vec<u8>>),
    /// Delegation signer: key tag, algorithm, digest type, digest.
    Ds(u16, u8, u8, Vec<u8>),
}

impl RData {
    /// The record type of this RDATA.
    pub const fn rtype(&self) -> RType {
        match self {
            RData::A(_) => RType::A,
            RData::Aaaa(_) => RType::Aaaa,
            RData::Ns(_) => RType::Ns,
            RData::Cname(_) => RType::Cname,
            RData::Soa(_) => RType::Soa,
            RData::Mx(_, _) => RType::Mx,
            RData::Txt(_) => RType::Txt,
            RData::Ds(_, _, _, _) => RType::Ds,
        }
    }

    /// Encode this RDATA (without the RDLENGTH prefix) into `enc`.
    ///
    /// Names inside RDATA are encoded with compression for NS/CNAME/SOA/MX,
    /// matching common server behaviour.
    pub fn encode(&self, enc: &mut Encoder<'_>) {
        match self {
            RData::A(ip) => enc.put_slice(&ip.octets()),
            RData::Aaaa(ip) => enc.put_slice(&ip.octets()),
            RData::Ns(n) | RData::Cname(n) => n.encode(enc),
            RData::Soa(soa) => soa.encode(enc),
            RData::Mx(pref, n) => {
                enc.put_u16(*pref);
                n.encode(enc);
            }
            RData::Txt(strings) => {
                for s in strings {
                    // Truncation to 255 is the caller's responsibility; we
                    // clamp defensively rather than corrupt the wire format.
                    let len = s.len().min(255);
                    enc.put_u8(len as u8);
                    enc.put_slice(&s[..len]);
                }
            }
            RData::Ds(tag, alg, dt, digest) => {
                enc.put_u16(*tag);
                enc.put_u8(*alg);
                enc.put_u8(*dt);
                enc.put_slice(digest);
            }
        }
    }
}

/// A complete resource record.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Record {
    /// Owner name.
    pub name: Name,
    /// Time to live, seconds.
    pub ttl: u32,
    /// Typed record data (class is always IN).
    pub data: RData,
}

impl Record {
    /// Convenience constructor.
    pub fn new(name: Name, ttl: u32, data: RData) -> Self {
        Record { name, ttl, data }
    }

    /// Encode the full record (owner, type, class, TTL, RDLENGTH, RDATA).
    pub fn encode(&self, enc: &mut Encoder<'_>) {
        encode_record(enc, &self.name, self.ttl, self.data.rtype(), |enc| {
            self.data.encode(enc)
        });
    }
}

/// Encode one record from its parts: `owner`, `rtype`, class IN, `ttl`,
/// then the RDLENGTH of the RDATA `rdata` writes, and that RDATA.
/// [`Record::encode`] is this over a record's fields; a server holding
/// its data in another shape encodes the same bytes without building a
/// [`Record`].
pub fn encode_record(
    enc: &mut Encoder<'_>,
    owner: &NameSlice,
    ttl: u32,
    rtype: RType,
    rdata: impl FnOnce(&mut Encoder<'_>),
) {
    owner.encode(enc);
    enc.put_u16(rtype.code());
    enc.put_u16(CLASS_IN);
    enc.put_u32(ttl);
    let len_at = enc.position();
    enc.put_u16(0);
    let start = enc.position();
    rdata(enc);
    let rdlen = enc.position() - start;
    enc.patch_u16(len_at, rdlen as u16);
}

impl fmt::Display for Record {
    /// Zone-file presentation, e.g. `example.ru. 3600 IN NS ns1.host.ru.`
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} IN {} ", self.name, self.ttl, self.data.rtype())?;
        match &self.data {
            RData::A(ip) => write!(f, "{ip}"),
            RData::Aaaa(ip) => write!(f, "{ip}"),
            RData::Ns(n) | RData::Cname(n) => write!(f, "{n}"),
            RData::Soa(s) => write!(
                f,
                "{} {} {} {} {} {} {}",
                s.mname, s.rname, s.serial, s.refresh, s.retry, s.expire, s.minimum
            ),
            RData::Mx(p, n) => write!(f, "{p} {n}"),
            RData::Txt(strings) => {
                let mut first = true;
                for s in strings {
                    if !first {
                        write!(f, " ")?;
                    }
                    first = false;
                    write!(f, "\"{}\"", String::from_utf8_lossy(s))?;
                }
                Ok(())
            }
            RData::Ds(tag, alg, dt, digest) => {
                write!(f, "{tag} {alg} {dt} ")?;
                for b in digest {
                    write!(f, "{b:02X}")?;
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Message, WireError};

    /// `buf` holding one answer record, behind a header that says so.
    fn as_answer(record: &[u8]) -> Vec<u8> {
        let mut buf = vec![0, 0, 0x80, 0, 0, 0, 0, 1, 0, 0, 0, 0];
        buf.extend_from_slice(record);
        buf
    }

    /// The bytes `build` writes into a fresh encoder.
    fn encode(build: impl FnOnce(&mut Encoder<'_>)) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut e = Encoder::new(&mut buf);
        build(&mut e);
        e.finish().unwrap();
        buf
    }

    fn decode_one(record: &[u8]) -> Result<Record, WireError> {
        Message::decode(&as_answer(record)).map(|m| m.answers[0].clone())
    }

    fn roundtrip(r: &Record) -> Record {
        let msg = Message {
            answers: vec![r.clone()],
            ..Message::query(0, Name::root(), RType::A)
        };
        let mut back = Message::decode(&msg.encode().unwrap()).unwrap();
        back.answers.pop().unwrap()
    }

    fn name(s: &str) -> Name {
        s.parse().unwrap()
    }

    #[test]
    fn roundtrip_all_types() {
        let records = [
            Record::new(
                name("example.ru"),
                300,
                RData::A("192.0.2.1".parse().unwrap()),
            ),
            Record::new(
                name("example.ru"),
                300,
                RData::Aaaa("2001:db8::1".parse().unwrap()),
            ),
            Record::new(name("example.ru"), 3600, RData::Ns(name("ns1.hoster.ru"))),
            Record::new(name("www.example.ru"), 60, RData::Cname(name("example.ru"))),
            Record::new(
                name("ru"),
                86400,
                RData::Soa(SoaData {
                    mname: name("a.dns.ripn.net"),
                    rname: name("hostmaster.ripn.net"),
                    serial: 4_049_000,
                    refresh: 86400,
                    retry: 14400,
                    expire: 2_592_000,
                    minimum: 3600,
                }),
            ),
            Record::new(
                name("example.ru"),
                300,
                RData::Mx(10, name("mx.example.ru")),
            ),
            Record::new(
                name("example.ru"),
                300,
                RData::Txt(vec![b"v=spf1 -all".to_vec(), b"second".to_vec()]),
            ),
            Record::new(
                name("example.ru"),
                3600,
                RData::Ds(12345, 8, 2, vec![0xAB; 32]),
            ),
        ];
        for r in &records {
            assert_eq!(&roundtrip(r), r, "roundtrip failed for {r}");
        }
    }

    #[test]
    fn rdata_length_validation() {
        // A record claiming 5 bytes of A RDATA.
        let buf = encode(|e| {
            name("x.ru").encode(e);
            e.put_u16(RType::A.code());
            e.put_u16(CLASS_IN);
            e.put_u32(60);
            e.put_u16(5);
            e.put_slice(&[1, 2, 3, 4, 5]);
        });
        assert_eq!(decode_one(&buf), Err(WireError::BadRdataLength));
    }

    #[test]
    fn unknown_type_is_error() {
        let buf = encode(|e| {
            name("x.ru").encode(e);
            e.put_u16(99);
            e.put_u16(CLASS_IN);
            e.put_u32(60);
            e.put_u16(0);
        });
        assert_eq!(decode_one(&buf), Err(WireError::UnknownType(99)));
    }

    #[test]
    fn txt_inner_length_checked() {
        // TXT rdlen 3 but inner string claims 10 bytes.
        let buf = encode(|e| {
            name("x.ru").encode(e);
            e.put_u16(RType::Txt.code());
            e.put_u16(CLASS_IN);
            e.put_u32(60);
            e.put_u16(3);
            e.put_slice(&[10, b'a', b'b']);
        });
        assert_eq!(decode_one(&buf), Err(WireError::BadRdataLength));
    }

    #[test]
    fn type_code_roundtrip() {
        for t in [
            RType::A,
            RType::Ns,
            RType::Cname,
            RType::Soa,
            RType::Mx,
            RType::Txt,
            RType::Aaaa,
            RType::Ds,
        ] {
            assert_eq!(RType::from_code(t.code()), Some(t));
        }
        assert_eq!(RType::from_code(0), None);
    }

    #[test]
    fn display_forms() {
        let r = Record::new(
            name("example.ru"),
            300,
            RData::Mx(10, name("mx.example.ru")),
        );
        assert_eq!(r.to_string(), "example.ru. 300 IN MX 10 mx.example.ru.");
        let r = Record::new(
            name("example.ru"),
            60,
            RData::A("192.0.2.7".parse().unwrap()),
        );
        assert_eq!(r.to_string(), "example.ru. 60 IN A 192.0.2.7");
    }

    #[test]
    fn names_in_rdata_compress_against_owner() {
        let r = Record::new(name("example.ru"), 3600, RData::Ns(name("ns1.example.ru")));
        let buf = encode(|e| r.encode(e));
        // ns1.example.ru should encode as "ns1" + pointer: 1+3+2 = 6 bytes.
        // Full record: name(12) + type(2)+class(2)+ttl(4)+rdlen(2) + 6.
        assert_eq!(buf.len(), 12 + 10 + 6);
        // Behind a 12-byte header the pointer targets shift by 12.
        let mut shifted = Vec::new();
        let mut e = Encoder::new(&mut shifted);
        e.put_slice(&[0; 12]);
        r.encode(&mut e);
        e.finish().unwrap();
        assert_eq!(decode_one(&shifted[12..]).unwrap(), r);
    }
}
