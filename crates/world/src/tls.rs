//! TLS endpoints: what a Censys-style banner grab sees at port 443.
//!
//! We do not simulate the TLS handshake cryptography — the measurement
//! only needs the certificate chain a server *presents*. The endpoint
//! service answers any probe with a compact textual banner carrying the
//! served certificate's identifying fields ([`write_banner`]);
//! `ruwhere-scan` reads it back in place through [`Banner`].

use ruwhere_ct::{CertId, CertView, SharedCertStore};
use ruwhere_netsim::{Service, SimTime};
use ruwhere_types::sync::read;
use ruwhere_types::{Date, DomainName};
use std::borrow::Cow;
use std::collections::HashMap;
use std::io::Write;
use std::net::Ipv4Addr;
use std::sync::{Arc, RwLock};

/// The port the Censys-style sweep probes.
pub const TLS_PORT: u16 = 443;

/// The banner's first line.
const BANNER_MAGIC: &str = "RUTLS/1";

/// Append `cert`'s banner to `out`: one `key:value` line per field after
/// the magic line, with `\` and newlines escaped in the free-text fields.
pub fn write_banner(cert: CertView<'_>, out: &mut Vec<u8>) {
    let esc = |out: &mut Vec<u8>, key: &str, s: &str| {
        out.extend_from_slice(key.as_bytes());
        for b in s.bytes() {
            match b {
                b'\\' => out.extend_from_slice(b"\\\\"),
                b'\n' => out.extend_from_slice(b"\\n"),
                _ => out.push(b),
            }
        }
        out.push(b'\n');
    };
    out.extend_from_slice(BANNER_MAGIC.as_bytes());
    out.push(b'\n');
    esc(out, "cn:", cert.subject_cn().as_str());
    for s in cert.san() {
        out.extend_from_slice(b"san:");
        for part in s.parts() {
            out.extend_from_slice(part.as_bytes());
        }
        out.push(b'\n');
    }
    esc(out, "issuer:", cert.issuer_org());
    for o in cert.chain_orgs() {
        esc(out, "chain:", o);
    }
    // Writing into a `Vec` cannot fail.
    let _ = write!(
        out,
        "serial:{}\nnb:{}\nna:{}\n",
        cert.serial(),
        cert.not_before(),
        cert.not_after()
    );
}

/// Undo the banner's escaping, borrowing when there is nothing to undo.
fn unescape(s: &str) -> Cow<'_, str> {
    if s.contains('\\') {
        Cow::Owned(s.replace("\\n", "\n").replace("\\\\", "\\"))
    } else {
        Cow::Borrowed(s)
    }
}

/// A banner read in place: [`Banner::parse`] checks every line once, and
/// the accessors hand out the fields from the probe's reply bytes.
#[derive(Debug, Clone, Copy)]
pub struct Banner<'a> {
    /// The whole banner, magic line included.
    text: &'a str,
    subject_cn: &'a str,
    issuer_org: &'a str,
    serial: u64,
}

impl<'a> Banner<'a> {
    /// Parse a banner; `None` for anything malformed: a wrong magic line,
    /// an unknown key, a line without `:`, a SAN that is not a domain
    /// name, an unparsable serial or date, or a missing CN, issuer, serial
    /// or validity date. A repeated single-valued key keeps its last value.
    pub fn parse(data: &'a [u8]) -> Option<Self> {
        let text = std::str::from_utf8(data).ok()?;
        let mut lines = text.lines();
        if lines.next()? != BANNER_MAGIC {
            return None;
        }
        let (mut cn, mut issuer, mut serial) = (None, None, None);
        // The validity dates are checked but not kept: no reader needs them.
        let (mut nb, mut na) = (false, false);
        for line in lines {
            let (key, value) = line.split_once(':')?;
            match key {
                "cn" => cn = Some(value),
                "san" => {
                    DomainName::parse(value).ok()?;
                }
                "issuer" => issuer = Some(value),
                "chain" => {}
                "serial" => serial = Some(value.parse().ok()?),
                "nb" => {
                    value.parse::<Date>().ok()?;
                    nb = true;
                }
                "na" => {
                    value.parse::<Date>().ok()?;
                    na = true;
                }
                _ => return None,
            }
        }
        if !(nb && na) {
            return None;
        }
        Some(Banner {
            text,
            subject_cn: cn?,
            issuer_org: issuer?,
            serial: serial?,
        })
    }

    /// The values of every `key` line, in order, as sent.
    fn values(&self, key: &'static str) -> impl Iterator<Item = &'a str> + 'a {
        self.text.lines().skip(1).filter_map(move |line| {
            let (k, v) = line.split_once(':')?;
            (k == key).then_some(v)
        })
    }

    /// Leaf subject common name.
    pub fn subject_cn(&self) -> Cow<'a, str> {
        unescape(self.subject_cn)
    }

    /// Subject alternative names, in order.
    pub fn san(&self) -> impl Iterator<Item = DomainName> + 'a {
        // `parse` checked that every value is a domain name.
        self.values("san").filter_map(|v| DomainName::parse(v).ok())
    }

    /// Leaf issuer organization.
    pub fn issuer_org(&self) -> Cow<'a, str> {
        unescape(self.issuer_org)
    }

    /// Organizations up the chain (roots last).
    pub fn chain_orgs(&self) -> impl Iterator<Item = Cow<'a, str>> + 'a {
        self.values("chain").map(unescape)
    }

    /// Issuer-scoped serial.
    pub fn serial(&self) -> u64 {
        self.serial
    }
}

/// What the TLS endpoints serve: the world's certificate store and, per
/// endpoint address, the row of the certificate it presents. The world
/// updates the index as domains renew or switch certificates.
#[derive(Debug, Default)]
pub struct Serving {
    /// The store every served certificate is a row of.
    pub(crate) certs: SharedCertStore,
    /// Endpoint address → served certificate, a row of `certs`.
    pub(crate) index: RwLock<HashMap<Ipv4Addr, CertId>>,
}

impl Serving {
    /// Nothing served yet, over `certs`.
    pub fn new(certs: &SharedCertStore) -> Self {
        Serving {
            certs: Arc::clone(certs),
            index: RwLock::default(),
        }
    }
}

/// The serving state, shared by every TLS endpoint.
pub type ServingMap = Arc<Serving>;

/// The per-address TLS banner service.
pub struct TlsEndpoint {
    serving: ServingMap,
    addr: Ipv4Addr,
}

impl TlsEndpoint {
    /// Endpoint at `addr` serving whatever `serving`'s index holds for it.
    pub fn new(serving: ServingMap, addr: Ipv4Addr) -> Self {
        TlsEndpoint { serving, addr }
    }
}

impl Service for TlsEndpoint {
    fn handle(
        &self,
        _payload: &[u8],
        _src: (Ipv4Addr, u16),
        _now: SimTime,
        reply: &mut Vec<u8>,
    ) -> bool {
        // The store first, then the index: the order the world's writers
        // take them in.
        let certs = read(&self.serving.certs);
        match read(&self.serving.index).get(&self.addr) {
            Some(&cert) => {
                write_banner(certs.get(cert), reply);
                true
            }
            None => false,
        }
    }

    fn processing_us(&self) -> u64 {
        500 // handshake-ish
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruwhere_ct::{CertStore, CertificateAuthority};
    use ruwhere_types::sync::write;
    use ruwhere_types::Country;

    /// Issue `example.ru` (SANs: itself and `www.`) from `org` with
    /// `chain` into `certs`, on 2022-01-15 for 90 days.
    fn issue(certs: &mut CertStore, org: &str, chain: &[&str]) -> CertId {
        let mut ca =
            CertificateAuthority::new(org, Country::US, &["R3"], true, 90).with_chain(chain);
        let cn: DomainName = "example.ru".parse().unwrap();
        let san = [cn.clone(), cn.prepend("www").unwrap()];
        ca.issue(certs, &cn, &san, 0, Date::from_ymd(2022, 1, 15))
            .unwrap()
    }

    fn banner(cert: CertView<'_>) -> Vec<u8> {
        let mut out = Vec::new();
        write_banner(cert, &mut out);
        out
    }

    #[test]
    fn banner_bytes_are_pinned() {
        let mut certs = CertStore::new();
        let id = issue(
            &mut certs,
            "Let's Encrypt",
            &["Internet Security Research Group"],
        );
        assert_eq!(
            String::from_utf8(banner(certs.get(id))).unwrap(),
            "RUTLS/1\ncn:example.ru\nsan:example.ru\nsan:www.example.ru\n\
             issuer:Let's Encrypt\nchain:Internet Security Research Group\n\
             serial:1\nnb:2022-01-15\nna:2022-04-15\n"
        );
    }

    #[test]
    fn banner_roundtrip() {
        let mut certs = CertStore::new();
        let id = issue(
            &mut certs,
            "Let's Encrypt",
            &["Internet Security Research Group"],
        );
        let c = certs.get(id);
        let bytes = banner(c);
        let b = Banner::parse(&bytes).unwrap();
        assert_eq!(b.subject_cn(), c.subject_cn().as_str());
        let san: Vec<String> = b.san().map(|d| d.to_string()).collect();
        assert_eq!(san, c.san().map(|n| n.parts().concat()).collect::<Vec<_>>());
        assert_eq!(b.issuer_org(), c.issuer_org());
        assert_eq!(b.chain_orgs().collect::<Vec<_>>(), c.chain_orgs());
        assert_eq!(b.serial(), c.serial());
    }

    #[test]
    fn banner_roundtrip_with_escapes() {
        let mut certs = CertStore::new();
        let id = issue(
            &mut certs,
            "Weird\nOrg\\with stuff",
            &["Org\nWith\nNewlines"],
        );
        let bytes = banner(certs.get(id));
        let b = Banner::parse(&bytes).unwrap();
        assert_eq!(b.issuer_org(), "Weird\nOrg\\with stuff");
        assert_eq!(b.chain_orgs().collect::<Vec<_>>(), ["Org\nWith\nNewlines"]);
    }

    #[test]
    fn malformed_banners_rejected() {
        assert!(Banner::parse(b"").is_none());
        assert!(Banner::parse(b"HTTP/1.1 200 OK\n").is_none());
        assert!(Banner::parse(b"RUTLS/1\ncn:x\n").is_none()); // missing fields
        assert!(Banner::parse(b"RUTLS/1\nbogus:x\n").is_none());
        assert!(Banner::parse(&[0xFF, 0xFE]).is_none());
        let mut certs = CertStore::new();
        let id = issue(&mut certs, "Let's Encrypt", &[]);
        let mut bad_san = banner(certs.get(id));
        bad_san.extend_from_slice(b"san:not..a.name\n");
        assert!(Banner::parse(&bad_san).is_none());
    }

    #[test]
    fn endpoint_serves_current_chain() {
        let serving: ServingMap = Arc::default();
        let addr: Ipv4Addr = "198.51.100.7".parse().unwrap();
        let ep = TlsEndpoint::new(Arc::clone(&serving), addr);
        let src = ("10.0.0.1".parse().unwrap(), 55555);
        let probe = |ep: &TlsEndpoint| {
            let mut banner = Vec::new();
            ep.handle(b"hello", src, SimTime::ZERO, &mut banner)
                .then_some(banner)
        };

        // Nothing served yet: silent (no TLS on this box).
        assert!(probe(&ep).is_none());

        let served = issue(&mut write(&serving.certs), "Let's Encrypt", &[]);
        write(&serving.index).insert(addr, served);
        assert_eq!(
            probe(&ep).unwrap(),
            banner(read(&serving.certs).get(served))
        );

        // Certificate rotation is visible immediately.
        let russian = issue(&mut write(&serving.certs), "Russian Trusted Root CA", &[]);
        write(&serving.index).insert(addr, russian);
        let bytes = probe(&ep).unwrap();
        assert_eq!(
            Banner::parse(&bytes).unwrap().issuer_org(),
            "Russian Trusted Root CA"
        );
    }
}
