//! Certificate authorities and their issuance policies.

use crate::cert::{Certificate, DistinguishedName};
use ruwhere_types::{Country, Date, DomainName};

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
#[derive(Debug, Clone)]
pub struct CertificateAuthority {
    /// Issuer Organization string as it appears in the Issuer DN — the key
    /// the paper aggregates by ("Let's Encrypt", "DigiCert", …).
    pub organization: String,
    /// Country of the CA (Let's Encrypt is a US entity — the §6 exposure
    /// argument).
    pub country: Country,
    /// Issuing brands (Common Names). DigiCert issues under RapidSSL and
    /// GeoTrust; isolated post-conflict dots in Figure 8 come from brands
    /// that were not shut off with the main CN.
    pub brands: Vec<String>,
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
    /// New CA with [`CaPolicy::Issuing`].
    pub fn new(
        organization: &str,
        country: Country,
        brands: &[&str],
        logs_to_ct: bool,
        validity_days: u32,
    ) -> Self {
        CertificateAuthority {
            organization: organization.to_owned(),
            country,
            brands: brands.iter().map(|s| (*s).to_owned()).collect(),
            logs_to_ct,
            policy: CaPolicy::Issuing,
            validity_days,
            next_serial: 1,
        }
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
        chain_orgs: Vec<String>,
    ) -> Option<Certificate> {
        let is_russian = subject.is_russian_cctld() || san.iter().any(|d| d.is_russian_cctld());
        if self.policy == CaPolicy::Suspended && is_russian {
            return None;
        }
        let brand = if self.brands.is_empty() {
            self.organization.clone()
        } else {
            self.brands[brand_idx % self.brands.len()].clone()
        };
        let serial = self.next_serial;
        self.next_serial += 1;
        Some(Certificate {
            serial,
            issuer: DistinguishedName {
                organization: self.organization.clone(),
                common_name: brand,
                country: self.country,
            },
            subject_cn: subject.as_str().to_owned(),
            san,
            not_before: date,
            not_after: date.add_days(self.validity_days as i32),
            chain_orgs,
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
                vec!["ISRG".into()],
            )
            .unwrap();
        assert_eq!(c.serial, 1);
        assert_eq!(c.issuer.organization, "Let's Encrypt");
        assert_eq!(c.issuer.common_name, "R3");
        assert_eq!(c.not_after - c.not_before, 90);
        assert!(c.ct_logged);
        assert!(c.matches_russian_tld());
        assert_eq!(ca.issued_count(), 1);

        let c2 = ca
            .issue(
                &d("example.ru"),
                vec![],
                1,
                Date::from_ymd(2022, 1, 11),
                vec![],
            )
            .unwrap();
        assert_eq!(c2.serial, 2);
        assert_eq!(c2.issuer.common_name, "E1");
    }

    #[test]
    fn suspension_blocks_russian_only() {
        let mut ca = lets_encrypt();
        ca.policy = CaPolicy::Suspended;
        assert!(ca
            .issue(
                &d("example.ru"),
                vec![],
                0,
                Date::from_ymd(2022, 3, 1),
                vec![]
            )
            .is_none());
        // SAN-based Russian match is also blocked.
        assert!(ca
            .issue(
                &d("example.com"),
                vec![d("shop.example.ru")],
                0,
                Date::from_ymd(2022, 3, 1),
                vec![]
            )
            .is_none());
        // Non-Russian issuance continues.
        assert!(ca
            .issue(
                &d("example.com"),
                vec![],
                0,
                Date::from_ymd(2022, 3, 1),
                vec![]
            )
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
        );
        let c = russian_ca
            .issue(
                &d("sanctioned-bank.ru"),
                vec![],
                0,
                Date::from_ymd(2022, 3, 10),
                vec!["Russian Trusted Root CA".into()],
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
            .issue(&d("x.ru"), vec![], 7, Date::from_ymd(2022, 1, 1), vec![])
            .unwrap();
        assert_eq!(c.issuer.common_name, "cPanel");
    }
}
