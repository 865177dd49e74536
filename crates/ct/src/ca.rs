//! Certificate authorities and their issuance policies.

use crate::cert::{Certificate, DistinguishedName};
use ruwhere_types::{Country, Date, DomainName};
use std::sync::Arc;

/// A CA's current stance toward a class of customers. The paper observes
/// three policies after the invasion: keep issuing, stop issuing for
/// `.ru`/`.рф`, and stop issuing *and* revoke sanctioned customers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaPolicy {
    /// Business as usual.
    Issuing,
    /// New issuance suspended (existing certificates untouched).
    Suspended,
}

/// A certificate authority.
///
/// The CA builds its issuer names (one per brand) and its chain once;
/// every certificate it issues shares them.
#[derive(Debug, Clone)]
pub struct CertificateAuthority {
    /// Issuer DN per issuing brand. DigiCert issues under RapidSSL and
    /// GeoTrust; isolated post-conflict dots in Figure 8 come from brands
    /// that were not shut off with the main CN. A CA without brands issues
    /// under its organization name.
    issuers: Vec<DistinguishedName>,
    /// Organizations in the chain above the issuer.
    chain_orgs: Arc<[String]>,
    /// Whether issuances are submitted to CT logs. True for all the global
    /// CAs; false for the Russian Trusted Root CA.
    pub logs_to_ct: bool,
    /// Current policy for Russian-TLD customers.
    pub policy: CaPolicy,
    /// Default validity period in days (90 for ACME-style CAs, 365 for the
    /// commercial ones).
    pub validity_days: u32,
    next_serial: u64,
}

impl CertificateAuthority {
    /// New CA with [`CaPolicy::Issuing`] and an empty chain.
    ///
    /// `organization` is the Issuer Organization string as it appears in
    /// the Issuer DN — the key the paper aggregates by ("Let's Encrypt",
    /// "DigiCert", …); `country` is the CA's (Let's Encrypt is a US entity
    /// — the §6 exposure argument); `brands` are the issuing Common Names.
    pub fn new(
        organization: &str,
        country: Country,
        brands: &[&str],
        logs_to_ct: bool,
        validity_days: u32,
    ) -> Self {
        let organization: Arc<str> = Arc::from(organization);
        let issuer = |common_name: Arc<str>| DistinguishedName {
            organization: Arc::clone(&organization),
            common_name,
            country,
        };
        let issuers = if brands.is_empty() {
            vec![issuer(Arc::clone(&organization))]
        } else {
            brands.iter().map(|b| issuer(Arc::from(*b))).collect()
        };
        CertificateAuthority {
            issuers,
            chain_orgs: Arc::from([]),
            logs_to_ct,
            policy: CaPolicy::Issuing,
            validity_days,
            next_serial: 1,
        }
    }

    /// The same CA with `orgs` as the organizations above the issuer in
    /// every chain it presents (roots last).
    pub fn with_chain(mut self, orgs: &[&str]) -> Self {
        self.chain_orgs = orgs.iter().map(|o| (*o).to_owned()).collect();
        self
    }

    /// Issue a certificate for `subject` (CN) with `san`, under brand index
    /// `brand_idx` (wrapped into range), effective `date`.
    ///
    /// Returns `None` if the CA's policy is [`CaPolicy::Suspended`] and the
    /// request names a Russian-TLD domain.
    pub fn issue(
        &mut self,
        subject: &DomainName,
        san: Vec<DomainName>,
        brand_idx: usize,
        date: Date,
    ) -> Option<Certificate> {
        let is_russian = subject.is_russian_cctld() || san.iter().any(|d| d.is_russian_cctld());
        if self.policy == CaPolicy::Suspended && is_russian {
            return None;
        }
        let serial = self.next_serial;
        self.next_serial += 1;
        Some(Certificate {
            serial,
            issuer: self.issuers[brand_idx % self.issuers.len()].clone(),
            subject_cn: subject.clone(),
            san,
            not_before: date,
            not_after: date.add_days(self.validity_days as i32),
            chain_orgs: Arc::clone(&self.chain_orgs),
            ct_logged: self.logs_to_ct,
        })
    }

    /// Serial that will be assigned next (== 1 + number issued).
    pub fn issued_count(&self) -> u64 {
        self.next_serial - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    fn lets_encrypt() -> CertificateAuthority {
        CertificateAuthority::new("Let's Encrypt", Country::US, &["R3", "E1"], true, 90)
    }

    #[test]
    fn issuance_basics() {
        let mut ca = lets_encrypt();
        let c = ca
            .issue(
                &d("example.ru"),
                vec![d("www.example.ru")],
                0,
                Date::from_ymd(2022, 1, 10),
            )
            .unwrap();
        assert_eq!(c.serial, 1);
        assert_eq!(&*c.issuer.organization, "Let's Encrypt");
        assert_eq!(&*c.issuer.common_name, "R3");
        assert_eq!(c.not_after - c.not_before, 90);
        assert!(c.ct_logged);
        assert!(c.matches_russian_tld());
        assert_eq!(ca.issued_count(), 1);

        let c2 = ca
            .issue(&d("example.ru"), vec![], 1, Date::from_ymd(2022, 1, 11))
            .unwrap();
        assert_eq!(c2.serial, 2);
        assert_eq!(&*c2.issuer.common_name, "E1");
    }

    #[test]
    fn suspension_blocks_russian_only() {
        let mut ca = lets_encrypt();
        ca.policy = CaPolicy::Suspended;
        assert!(ca
            .issue(&d("example.ru"), vec![], 0, Date::from_ymd(2022, 3, 1),)
            .is_none());
        // SAN-based Russian match is also blocked.
        assert!(ca
            .issue(
                &d("example.com"),
                vec![d("shop.example.ru")],
                0,
                Date::from_ymd(2022, 3, 1),
            )
            .is_none());
        // Non-Russian issuance continues.
        assert!(ca
            .issue(&d("example.com"), vec![], 0, Date::from_ymd(2022, 3, 1),)
            .is_some());
    }

    #[test]
    fn unlogged_ca() {
        let mut russian_ca = CertificateAuthority::new(
            "Russian Trusted Root CA",
            Country::RU,
            &["Russian Trusted Sub CA"],
            false,
            365,
        )
        .with_chain(&["Russian Trusted Root CA"]);
        let c = russian_ca
            .issue(
                &d("sanctioned-bank.ru"),
                vec![],
                0,
                Date::from_ymd(2022, 3, 10),
            )
            .unwrap();
        assert!(!c.ct_logged);
        assert!(c.chain_contains_org("Russian Trusted Root CA"));
        assert_eq!(c.not_after - c.not_before, 365);
    }

    #[test]
    fn brandless_ca_uses_org() {
        let mut ca = CertificateAuthority::new("cPanel", Country::US, &[], true, 90);
        let c = ca
            .issue(&d("x.ru"), vec![], 7, Date::from_ymd(2022, 1, 1))
            .unwrap();
        assert_eq!(&*c.issuer.common_name, "cPanel");
    }

    #[test]
    fn one_brand_shares_its_issuer_and_chain() {
        let mut ca = lets_encrypt().with_chain(&["ISRG Root X1"]);
        let date = Date::from_ymd(2022, 1, 10);
        let a = ca.issue(&d("a.ru"), vec![], 0, date).unwrap();
        let b = ca.issue(&d("b.ru"), vec![], 2, date).unwrap();
        let other_brand = ca.issue(&d("c.ru"), vec![], 1, date).unwrap();
        // Brand 2 wraps to brand 0: one allocation per issuer string.
        assert!(Arc::ptr_eq(&a.issuer.organization, &b.issuer.organization));
        assert!(Arc::ptr_eq(&a.issuer.common_name, &b.issuer.common_name));
        assert!(Arc::ptr_eq(&a.chain_orgs, &b.chain_orgs));
        // A second brand has its own common name but the CA's organization.
        assert!(!Arc::ptr_eq(
            &a.issuer.common_name,
            &other_brand.issuer.common_name
        ));
        assert!(Arc::ptr_eq(
            &a.issuer.organization,
            &other_brand.issuer.organization
        ));
    }
}
