//! TLS endpoints: what a Censys-style banner grab sees at port 443.
//!
//! We do not simulate the TLS handshake cryptography — the measurement
//! only needs the certificate chain a server *presents*. The endpoint
//! service answers any probe with a compact textual banner carrying the
//! served certificate's identifying fields; `ruwhere-scan` parses it back
//! into a [`ChainSummary`].

use ruwhere_ct::Certificate;
use ruwhere_netsim::{Service, SimTime};
use ruwhere_types::sync::read;
use ruwhere_types::{Date, DomainName};
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::{Arc, RwLock};

/// The port the Censys-style sweep probes.
pub const TLS_PORT: u16 = 443;

/// The certificate-chain information visible in a banner grab.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainSummary {
    /// Leaf subject common name.
    pub subject_cn: String,
    /// Subject alternative names.
    pub san: Vec<DomainName>,
    /// Leaf issuer organization.
    pub issuer_org: String,
    /// Organizations up the chain (roots last).
    pub chain_orgs: Vec<String>,
    /// Issuer-scoped serial.
    pub serial: u64,
    /// Validity start.
    pub not_before: Date,
    /// Validity end.
    pub not_after: Date,
}

impl ChainSummary {
    /// Build from a full certificate.
    pub fn from_certificate(cert: &Certificate) -> Self {
        ChainSummary {
            subject_cn: cert.subject_cn.clone(),
            san: cert.san.clone(),
            issuer_org: cert.issuer.organization.clone(),
            chain_orgs: cert.chain_orgs.clone(),
            serial: cert.serial,
            not_before: cert.not_before,
            not_after: cert.not_after,
        }
    }

    /// Whether any organization in the presented chain matches `org`.
    pub fn chain_contains_org(&self, org: &str) -> bool {
        self.issuer_org == org || self.chain_orgs.iter().any(|o| o == org)
    }

    /// Serialize to the banner wire format (line-oriented, fields escaped).
    pub fn to_banner(&self) -> Vec<u8> {
        let esc = |s: &str| s.replace('\\', "\\\\").replace('\n', "\\n");
        let mut out = String::from("RUTLS/1\n");
        out.push_str(&format!("cn:{}\n", esc(&self.subject_cn)));
        for s in &self.san {
            out.push_str(&format!("san:{}\n", s));
        }
        out.push_str(&format!("issuer:{}\n", esc(&self.issuer_org)));
        for o in &self.chain_orgs {
            out.push_str(&format!("chain:{}\n", esc(o)));
        }
        out.push_str(&format!("serial:{}\n", self.serial));
        out.push_str(&format!("nb:{}\n", self.not_before));
        out.push_str(&format!("na:{}\n", self.not_after));
        out.into_bytes()
    }

    /// Parse the banner wire format; `None` for anything malformed.
    pub fn from_banner(data: &[u8]) -> Option<Self> {
        let text = std::str::from_utf8(data).ok()?;
        let mut lines = text.lines();
        if lines.next()? != "RUTLS/1" {
            return None;
        }
        let unesc = |s: &str| s.replace("\\n", "\n").replace("\\\\", "\\");
        let mut cn = None;
        let mut san = Vec::new();
        let mut issuer = None;
        let mut chain = Vec::new();
        let mut serial = None;
        let mut nb = None;
        let mut na = None;
        for line in lines {
            let (key, value) = line.split_once(':')?;
            match key {
                "cn" => cn = Some(unesc(value)),
                "san" => san.push(value.parse().ok()?),
                "issuer" => issuer = Some(unesc(value)),
                "chain" => chain.push(unesc(value)),
                "serial" => serial = Some(value.parse().ok()?),
                "nb" => nb = Some(value.parse().ok()?),
                "na" => na = Some(value.parse().ok()?),
                _ => return None,
            }
        }
        Some(ChainSummary {
            subject_cn: cn?,
            san,
            issuer_org: issuer?,
            chain_orgs: chain,
            serial: serial?,
            not_before: nb?,
            not_after: na?,
        })
    }
}

/// Shared map of endpoint address → currently served chain. The world
/// driver updates it as domains renew or switch certificates.
pub type ServingMap = Arc<RwLock<HashMap<Ipv4Addr, ChainSummary>>>;

/// The per-address TLS banner service.
pub struct TlsEndpoint {
    serving: ServingMap,
    addr: Ipv4Addr,
}

impl TlsEndpoint {
    /// Endpoint at `addr` serving whatever `serving[addr]` currently holds.
    pub fn new(serving: ServingMap, addr: Ipv4Addr) -> Self {
        TlsEndpoint { serving, addr }
    }
}

impl Service for TlsEndpoint {
    fn handle(&self, _payload: &[u8], _src: (Ipv4Addr, u16), _now: SimTime) -> Option<Vec<u8>> {
        read(&self.serving).get(&self.addr).map(|c| c.to_banner())
    }

    fn processing_us(&self) -> u64 {
        500 // handshake-ish
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruwhere_types::sync::write;

    fn summary() -> ChainSummary {
        ChainSummary {
            subject_cn: "example.ru".into(),
            san: vec![
                "example.ru".parse().unwrap(),
                "www.example.ru".parse().unwrap(),
            ],
            issuer_org: "Let's Encrypt".into(),
            chain_orgs: vec!["Internet Security Research Group".into()],
            serial: 12345,
            not_before: Date::from_ymd(2022, 1, 15),
            not_after: Date::from_ymd(2022, 4, 15),
        }
    }

    #[test]
    fn banner_roundtrip() {
        let s = summary();
        let banner = s.to_banner();
        assert_eq!(ChainSummary::from_banner(&banner).unwrap(), s);
    }

    #[test]
    fn banner_roundtrip_with_escapes() {
        let mut s = summary();
        s.subject_cn = "weird\nname\\with stuff".into();
        s.chain_orgs = vec!["Org\nWith\nNewlines".into()];
        let banner = s.to_banner();
        assert_eq!(ChainSummary::from_banner(&banner).unwrap(), s);
    }

    #[test]
    fn malformed_banners_rejected() {
        assert!(ChainSummary::from_banner(b"").is_none());
        assert!(ChainSummary::from_banner(b"HTTP/1.1 200 OK\n").is_none());
        assert!(ChainSummary::from_banner(b"RUTLS/1\ncn:x\n").is_none()); // missing fields
        assert!(ChainSummary::from_banner(b"RUTLS/1\nbogus:x\n").is_none());
        assert!(ChainSummary::from_banner(&[0xFF, 0xFE]).is_none());
    }

    #[test]
    fn endpoint_serves_current_chain() {
        let serving: ServingMap = Arc::new(RwLock::new(HashMap::new()));
        let addr: Ipv4Addr = "198.51.100.7".parse().unwrap();
        let ep = TlsEndpoint::new(Arc::clone(&serving), addr);
        let src = ("10.0.0.1".parse().unwrap(), 55555);

        // Nothing served yet: silent (no TLS on this box).
        assert!(ep.handle(b"hello", src, SimTime::ZERO).is_none());

        write(&serving).insert(addr, summary());
        let banner = ep.handle(b"hello", src, SimTime::ZERO).unwrap();
        assert_eq!(
            ChainSummary::from_banner(&banner).unwrap().issuer_org,
            "Let's Encrypt"
        );

        // Certificate rotation is visible immediately.
        let mut rotated = summary();
        rotated.issuer_org = "Russian Trusted Root CA".into();
        write(&serving).insert(addr, rotated);
        let banner = ep.handle(b"hello", src, SimTime::ZERO).unwrap();
        assert_eq!(
            ChainSummary::from_banner(&banner).unwrap().issuer_org,
            "Russian Trusted Root CA"
        );
    }

    #[test]
    fn chain_org_matching() {
        let mut s = summary();
        s.chain_orgs.push("Russian Trusted Root CA".into());
        assert!(s.chain_contains_org("Russian Trusted Root CA"));
        assert!(s.chain_contains_org("Let's Encrypt"));
        assert!(!s.chain_contains_org("DigiCert"));
    }
}
