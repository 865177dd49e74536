//! Equivalence of the flat-buffer name handling with the label-vector
//! formulation it replaced: wire bytes, name order and the conversion to
//! `DomainName` must not change.

use proptest::prelude::*;
use ruwhere_dns::{Message, Name, Question, RData, RType, Record, SoaData, CLASS_IN};
use ruwhere_types::DomainName;
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Reference encoder: RFC 1035 compression keyed by the suffix bytes in a
/// `HashMap`, first occurrence wins — the table the in-buffer one replaced.
struct RefEncoder {
    buf: Vec<u8>,
    names: HashMap<Vec<u8>, u16>,
}

impl RefEncoder {
    fn name(&mut self, n: &Name) {
        let labels: Vec<&[u8]> = n.labels().collect();
        for i in 0..labels.len() {
            let mut key = Vec::new();
            for l in &labels[i..] {
                key.push(l.len() as u8);
                key.extend_from_slice(l);
            }
            if let Some(&off) = self.names.get(&key) {
                self.u16(0xC000 | off);
                return;
            }
            if self.buf.len() <= 0x3FFF {
                self.names.entry(key).or_insert(self.buf.len() as u16);
            }
            self.buf.push(labels[i].len() as u8);
            self.buf.extend_from_slice(labels[i]);
        }
        self.buf.push(0);
    }

    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    fn record(&mut self, r: &Record) {
        self.name(&r.name);
        self.u16(r.data.rtype().code());
        self.u16(CLASS_IN);
        self.u32(r.ttl);
        let len_at = self.buf.len();
        self.u16(0);
        let start = self.buf.len();
        match &r.data {
            RData::A(ip) => self.buf.extend_from_slice(&ip.octets()),
            RData::Aaaa(ip) => self.buf.extend_from_slice(&ip.octets()),
            RData::Ns(n) | RData::Cname(n) => self.name(n),
            RData::Soa(soa) => {
                self.name(&soa.mname);
                self.name(&soa.rname);
                for v in [soa.serial, soa.refresh, soa.retry, soa.expire, soa.minimum] {
                    self.u32(v);
                }
            }
            RData::Mx(pref, n) => {
                self.u16(*pref);
                self.name(n);
            }
            RData::Txt(_) | RData::Ds(..) => unreachable!("not generated here"),
        }
        let rdlen = (self.buf.len() - start) as u16;
        self.buf[len_at..len_at + 2].copy_from_slice(&rdlen.to_be_bytes());
    }

    /// Encode `msg`; `Err` carries the oversized length like
    /// `WireError::TooBig`.
    fn encode(msg: &Message) -> Result<Vec<u8>, usize> {
        // The 12-byte header holds no names: take it from an encoding of
        // the message with empty sections, then set the real counts.
        let header = Message {
            questions: Vec::new(),
            answers: Vec::new(),
            authorities: Vec::new(),
            additionals: Vec::new(),
            ..msg.clone()
        };
        let mut e = RefEncoder {
            buf: header.encode().expect("a bare header fits"),
            names: HashMap::new(),
        };
        for (i, n) in [
            msg.questions.len(),
            msg.answers.len(),
            msg.authorities.len(),
            msg.additionals.len(),
        ]
        .into_iter()
        .enumerate()
        {
            e.buf[4 + 2 * i..6 + 2 * i].copy_from_slice(&(n as u16).to_be_bytes());
        }
        for q in &msg.questions {
            e.name(&q.name);
            e.u16(q.rtype.code());
            e.u16(CLASS_IN);
        }
        for r in msg
            .answers
            .iter()
            .chain(&msg.authorities)
            .chain(&msg.additionals)
        {
            e.record(r);
        }
        if e.buf.len() > ruwhere_dns::MAX_MESSAGE_SIZE {
            return Err(e.buf.len());
        }
        Ok(e.buf)
    }
}

fn encode_both(msg: &Message) -> (Result<Vec<u8>, usize>, Result<Vec<u8>, usize>) {
    let new = msg.encode().map_err(|e| match e {
        ruwhere_dns::WireError::TooBig(n) => n,
        other => panic!("unexpected encode error {other:?}"),
    });
    (new, RefEncoder::encode(msg))
}

/// Labels from a small alphabet, so names repeat, share suffixes and
/// overlap themselves (`a.a.a`, `aa.a`).
fn arb_overlapping_name() -> impl Strategy<Value = Name> {
    proptest::collection::vec(
        prop_oneof![Just("a"), Just("aa"), Just("b"), Just("ns1"), Just("ru")],
        0..6,
    )
    .prop_map(|labels| Name::from_labels(labels).expect("valid labels"))
}

fn arb_record() -> impl Strategy<Value = Record> {
    (
        arb_overlapping_name(),
        prop_oneof![
            any::<[u8; 4]>().prop_map(|o| RData::A(Ipv4Addr::from(o))),
            arb_overlapping_name().prop_map(RData::Ns),
            arb_overlapping_name().prop_map(RData::Cname),
            (any::<u16>(), arb_overlapping_name()).prop_map(|(p, n)| RData::Mx(p, n)),
            (arb_overlapping_name(), arb_overlapping_name()).prop_map(|(mname, rname)| {
                RData::Soa(SoaData {
                    mname,
                    rname,
                    serial: 1,
                    refresh: 2,
                    retry: 3,
                    expire: 4,
                    minimum: 5,
                })
            }),
        ],
    )
        .prop_map(|(name, data)| Record::new(name, 300, data))
}

fn arb_message(max_records: usize) -> impl Strategy<Value = Message> {
    (
        any::<u16>(),
        proptest::collection::vec(arb_overlapping_name(), 0..3),
        proptest::collection::vec(arb_record(), 0..max_records),
        proptest::collection::vec(arb_record(), 0..max_records),
        proptest::collection::vec(arb_record(), 0..max_records),
    )
        .prop_map(|(id, qs, answers, authorities, additionals)| {
            let mut m = Message::query(id, Name::root(), RType::A);
            m.questions = qs
                .into_iter()
                .map(|n| Question::new(n, RType::Ns))
                .collect();
            m.answers = answers;
            m.authorities = authorities;
            m.additionals = additionals;
            m
        })
}

/// Old conversion: render the presentation form, parse it back.
fn old_to_domain_name(n: &Name) -> Option<DomainName> {
    if n.is_root() {
        return None;
    }
    DomainName::parse(&n.to_string()).ok()
}

/// A hostname-shaped label, half the time with one byte spliced in that
/// stresses the conversion: an uppercase letter, a dot, a backslash, a
/// space or a byte ≥ 0x80.
fn arb_label_bytes() -> impl Strategy<Value = Vec<u8>> {
    const STRESS: [u8; 7] = [b'Z', b'.', b'\\', b' ', 0x80, 0xD1, 0xFF];
    (
        proptest::string::string_regex("[a-z0-9_-]{1,10}").unwrap(),
        0usize..14,
        any::<prop::sample::Index>(),
    )
        .prop_map(|(label, pick, at)| {
            let mut bytes = label.into_bytes();
            if let Some(&b) = STRESS.get(pick) {
                bytes.insert(at.index(bytes.len() + 1), b);
            }
            bytes
        })
}

/// Wire-encode raw labels (no validation) and decode them as a `Name`.
fn decode_raw(labels: &[Vec<u8>]) -> Option<Name> {
    let mut buf = Vec::new();
    for l in labels {
        buf.push(l.len() as u8);
        buf.extend_from_slice(l);
    }
    buf.push(0);
    let msg = {
        // A question section carries exactly one name.
        let mut m = vec![0u8, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0];
        m.extend_from_slice(&buf);
        m.extend_from_slice(&[0, 1, 0, 1]);
        m
    };
    Message::decode(&msg)
        .ok()
        .map(|m| m.questions[0].name.clone())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn encode_matches_suffix_key_encoder(msg in arb_message(8)) {
        let (new, reference) = encode_both(&msg);
        prop_assert_eq!(new, reference);
    }

    #[test]
    fn name_order_is_label_order(a in arb_overlapping_name(), b in arb_overlapping_name()) {
        let la: Vec<&[u8]> = a.labels().collect();
        let lb: Vec<&[u8]> = b.labels().collect();
        prop_assert_eq!(a.cmp(&b), la.cmp(&lb));
        prop_assert_eq!(a == b, la == lb);
    }

    #[test]
    fn to_domain_name_matches_presentation_round_trip(
        labels in proptest::collection::vec(arb_label_bytes(), 0..5)
    ) {
        let n = decode_raw(&labels).expect("short names decode");
        prop_assert_eq!(n.to_domain_name(), old_to_domain_name(&n));
    }
}

#[test]
fn encode_matches_up_to_the_size_limit() {
    // Grow one message record by record until it no longer fits, checking
    // every size on the way; names repeat with a period longer than the
    // label alphabet so compression hits and misses interleave.
    let labels = ["a", "aa", "b", "ns1", "ru", "xn--p1ai", "example"];
    let mut msg = Message::query(7, "a.a.a.".parse().unwrap(), RType::Ns);
    let mut i = 0usize;
    loop {
        let owner =
            Name::from_labels([labels[i % 7], labels[(i / 7) % 7], labels[(i / 3) % 5]]).unwrap();
        let target = Name::from_labels([labels[(i * 5) % 7], labels[i % 3], "ru"]).unwrap();
        msg.authorities
            .push(Record::new(owner, 3600, RData::Ns(target)));
        let (new, reference) = encode_both(&msg);
        assert_eq!(new, reference, "record {i}");
        if new.is_err() {
            break;
        }
        i += 1;
    }
    assert!(i > 100, "limit reached after only {i} records");
}

#[test]
fn to_domain_name_limits_match() {
    let label63 = vec![b'a'; 63];
    let label64_raw = vec![b'a'; 64];
    // 63-octet labels are fine; 64 does not even decode (length byte 0x40
    // is a reserved label type).
    let n = decode_raw(&[label63.clone(), b"ru".to_vec()]).unwrap();
    assert!(n.to_domain_name().is_some());
    assert_eq!(n.to_domain_name(), old_to_domain_name(&n));
    assert!(decode_raw(&[label64_raw]).is_none());
    // 253 presentation characters (255 wire octets) is the longest name.
    let longest = [
        label63.clone(),
        label63.clone(),
        label63.clone(),
        vec![b'b'; 61],
    ];
    let n = decode_raw(&longest).unwrap();
    let d = n.to_domain_name().expect("253 characters are allowed");
    assert_eq!(d.as_str().len(), 253);
    assert_eq!(Some(d), old_to_domain_name(&n));
    // One more octet and the wire name itself is too long.
    let too_long = [label63.clone(), label63.clone(), label63, vec![b'b'; 62]];
    assert!(decode_raw(&too_long).is_none());
    // Uppercase is folded; hyphen rules and escapes reject alike.
    for raw in [
        vec![b"ExAmPle".to_vec(), b"RU".to_vec()],
        vec![b"-bad".to_vec(), b"ru".to_vec()],
        vec![b"a.b".to_vec(), b"ru".to_vec()],
        vec![b"a\\b".to_vec()],
        vec![vec![0xD0, 0xBF], b"ru".to_vec()],
    ] {
        let n = decode_raw(&raw).unwrap();
        assert_eq!(n.to_domain_name(), old_to_domain_name(&n), "{raw:?}");
    }
}
