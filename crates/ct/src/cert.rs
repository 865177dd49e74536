//! X.509-lite certificate model.
//!
//! We keep exactly the fields the paper's analysis reads: the Issuer DN's
//! Organization (the CA behind the brand) and Common Name (the brand, e.g.
//! RapidSSL), the subject CN and SANs (for the "matches a `.ru`/`.рф`
//! domain" test of footnote 6), validity, and whether the issuance was
//! logged to CT (the Russian Trusted Root CA does not log).
//!
//! Each fact has one allocation. A CA builds its issuer names and chain
//! once per brand and every certificate it issues shares them; the subject
//! CN is the same [`DomainName`] as the SAN it names, and the CT logs hold
//! the certificate itself behind an `Arc` (see [`crate::ctlog::CtEntry`]).

use crate::hash::{Digest, Sha256};
use ruwhere_types::{Country, Date, DomainName};
use std::fmt;
use std::sync::Arc;

/// The subset of an X.509 Distinguished Name we model.
///
/// Both strings are shared: cloning a name bumps two reference counts.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DistinguishedName {
    /// Organization (O=) — the paper's "Issuer Organization term from the
    /// Issuer DN field", used to attribute brands to CAs.
    pub organization: Arc<str>,
    /// Common name (CN=) — the issuing brand, e.g. "RapidSSL TLS RSA CA G1".
    pub common_name: Arc<str>,
    /// Country (C=).
    pub country: Country,
}

impl fmt::Display for DistinguishedName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "C={}, O={}, CN={}",
            self.country, self.organization, self.common_name
        )
    }
}

/// A leaf (end-entity) certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate {
    /// Issuer-scoped serial number.
    pub serial: u64,
    /// Issuer distinguished name, shared with every certificate of the
    /// same brand.
    pub issuer: DistinguishedName,
    /// Subject common name: the primary domain.
    pub subject_cn: DomainName,
    /// Subject alternative names.
    pub san: Vec<DomainName>,
    /// First day of validity.
    pub not_before: Date,
    /// Last day of validity.
    pub not_after: Date,
    /// Organizations in the chain above the issuer (for detecting the
    /// Russian Trusted Root CA in a chain, §4.3), shared with every
    /// certificate of the same CA.
    pub chain_orgs: Arc<[String]>,
    /// Whether the issuance was submitted to CT logs.
    pub ct_logged: bool,
}

impl Certificate {
    /// Deterministic certificate fingerprint (stand-in for the SHA-256 of
    /// the DER encoding).
    pub fn fingerprint(&self) -> Digest {
        // These bytes are part of every CT leaf: changing them moves every
        // Merkle root and signed tree head.
        let mut h = Sha256::new();
        h.update(&self.serial.to_be_bytes())
            .update(self.issuer.organization.as_bytes())
            .update(&[0])
            .update(self.issuer.common_name.as_bytes())
            .update(&[0])
            .update(self.subject_cn.as_str().as_bytes());
        for s in &self.san {
            h.update(&[0]).update(s.as_str().as_bytes());
        }
        h.update(&self.not_before.days_since_epoch().to_be_bytes())
            .update(&self.not_after.days_since_epoch().to_be_bytes());
        h.finalize()
    }

    /// The names this certificate covers: the subject CN, then each SAN.
    /// A SAN that repeats the CN (the usual case) appears twice.
    pub fn names(&self) -> impl Iterator<Item = &DomainName> {
        std::iter::once(&self.subject_cn).chain(&self.san)
    }

    /// The paper's match rule (footnote 6): the certificate "matches" if
    /// either CN or any SAN is under `.ru` or `.рф`.
    pub fn matches_russian_tld(&self) -> bool {
        self.names().any(DomainName::is_russian_cctld)
    }

    /// Stricter CN-only matching (used by the ablation bench).
    pub fn matches_russian_tld_cn_only(&self) -> bool {
        self.subject_cn.is_russian_cctld()
    }

    /// Whether `domain` is covered (exact match; no wildcard logic — the
    /// generator does not emit wildcards).
    pub fn covers(&self, domain: &DomainName) -> bool {
        self.subject_cn == *domain || self.san.contains(domain)
    }

    /// Whether the certificate is within validity on `date`.
    pub fn valid_on(&self, date: Date) -> bool {
        self.not_before <= date && date <= self.not_after
    }

    /// Whether any organization in the chain equals `org` (e.g.
    /// "Russian Trusted Root CA").
    pub fn chain_contains_org(&self, org: &str) -> bool {
        &*self.issuer.organization == org || self.chain_orgs.iter().any(|o| o == org)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dn(org: &str) -> DistinguishedName {
        DistinguishedName {
            organization: org.into(),
            common_name: format!("{org} RSA CA").into(),
            country: Country::US,
        }
    }

    fn cert(cn: &str, san: &[&str]) -> Certificate {
        Certificate {
            serial: 1,
            issuer: dn("Let's Encrypt"),
            subject_cn: cn.parse().unwrap(),
            san: san.iter().map(|s| s.parse().unwrap()).collect(),
            not_before: Date::from_ymd(2022, 1, 1),
            not_after: Date::from_ymd(2022, 3, 31),
            chain_orgs: Arc::from(["ISRG".to_owned()]),
            ct_logged: true,
        }
    }

    #[test]
    fn russian_tld_matching() {
        assert!(cert("example.ru", &[]).matches_russian_tld());
        assert!(cert("пример.рф", &[]).matches_russian_tld());
        assert!(cert("example.com", &["shop.example.ru"]).matches_russian_tld());
        assert!(!cert("example.com", &["example.org"]).matches_russian_tld());
        // CN-only rule is stricter: a .com CN with .ru SAN does not match.
        assert!(!cert("example.com", &["shop.example.ru"]).matches_russian_tld_cn_only());
        assert!(cert("example.ru", &[]).matches_russian_tld_cn_only());
    }

    #[test]
    fn names_and_coverage() {
        let c = cert("example.ru", &["example.ru", "www.example.ru"]);
        let names: Vec<&str> = c.names().map(DomainName::as_str).collect();
        assert_eq!(names, ["example.ru", "example.ru", "www.example.ru"]);
        assert!(c.covers(&"example.ru".parse().unwrap()));
        assert!(c.covers(&"www.example.ru".parse().unwrap()));
        assert!(!c.covers(&"other.ru".parse().unwrap()));
    }

    #[test]
    fn validity_window() {
        let c = cert("example.ru", &[]);
        assert!(!c.valid_on(Date::from_ymd(2021, 12, 31)));
        assert!(c.valid_on(Date::from_ymd(2022, 1, 1)));
        assert!(c.valid_on(Date::from_ymd(2022, 3, 31)));
        assert!(!c.valid_on(Date::from_ymd(2022, 4, 1)));
    }

    #[test]
    fn chain_org_detection() {
        let mut c = cert("sanctioned-bank.ru", &[]);
        c.chain_orgs = Arc::from(["Russian Trusted Root CA".to_owned()]);
        assert!(c.chain_contains_org("Russian Trusted Root CA"));
        assert!(!c.chain_contains_org("DigiCert"));
        assert!(
            c.chain_contains_org("Let's Encrypt"),
            "issuer itself counts"
        );
    }

    #[test]
    fn fingerprint_sensitivity() {
        let a = cert("example.ru", &[]);
        let mut b = a.clone();
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.serial = 2;
        assert_ne!(a.fingerprint(), b.fingerprint());
        let mut c = a.clone();
        c.san.push("extra.ru".parse().unwrap());
        assert_ne!(a.fingerprint(), c.fingerprint());
    }
}
