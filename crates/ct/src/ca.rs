//! Certificate authorities and their issuance policies.

use crate::cert::{CertId, CertStore, DistinguishedName, San};
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
/// every certificate it issues shares them, and a [`CertStore`] keeps each
/// brand once.
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

    /// Issue a certificate for `subject` (CN) with `san` into `certs`,
    /// under brand index `brand_idx` (wrapped into range), effective
    /// `date`. A CA that logs to CT submits it too: it gets an entry in
    /// the store's CT entry column, stamped `date`.
    ///
    /// Returns `None` if the CA's policy is [`CaPolicy::Suspended`] and the
    /// request names a Russian-TLD domain.
    pub fn issue(
        &mut self,
        certs: &mut CertStore,
        subject: &DomainName,
        san: &[DomainName],
        brand_idx: usize,
        date: Date,
    ) -> Option<CertId> {
        self.issue_as(certs, subject, San::Names(san), brand_idx, date)
    }

    /// [`issue`](Self::issue) with the SAN list `subject`, then `www.` over
    /// `subject`, without building the `www.` name: the store records
    /// that shape as row flags. The caller makes sure `www.` over
    /// `subject` is short enough to be a name.
    pub fn issue_cn_and_www(
        &mut self,
        certs: &mut CertStore,
        subject: &DomainName,
        brand_idx: usize,
        date: Date,
    ) -> Option<CertId> {
        self.issue_as(certs, subject, San::CnAndWww, brand_idx, date)
    }

    fn issue_as(
        &mut self,
        certs: &mut CertStore,
        subject: &DomainName,
        san: San<'_>,
        brand_idx: usize,
        date: Date,
    ) -> Option<CertId> {
        // `www.` over the CN is Russian exactly when the CN is.
        let is_russian = subject.is_russian_cctld()
            || matches!(san, San::Names(names) if names.iter().any(|d| d.is_russian_cctld()));
        if self.policy == CaPolicy::Suspended && is_russian {
            return None;
        }
        let serial = self.next_serial;
        self.next_serial += 1;
        Some(certs.push(
            serial,
            &self.issuers[brand_idx % self.issuers.len()],
            &self.chain_orgs,
            subject,
            san,
            date,
            date.add_days(self.validity_days as i32),
            self.logs_to_ct,
        ))
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
    fn the_www_shape_issues_what_the_spelled_out_list_does() {
        let day = Date::from_ymd(2022, 1, 10);
        let (mut spelled, mut shaped) = (lets_encrypt(), lets_encrypt());
        let (mut a, mut b) = (CertStore::new(), CertStore::new());
        for name in ["example.ru", "example.com"] {
            let cn = d(name);
            let san = [cn.clone(), cn.prepend("www").unwrap()];
            let x = spelled.issue(&mut a, &cn, &san, 0, day).unwrap();
            let y = shaped.issue_cn_and_www(&mut b, &cn, 0, day).unwrap();
            let (x, y) = (a.get(x), b.get(y));
            assert_eq!(x.fingerprint(), y.fingerprint());
            let names =
                |c: &crate::CertView<'_>| c.san().map(|n| n.parts().concat()).collect::<Vec<_>>();
            assert_eq!(names(&x), names(&y));
            assert_eq!(names(&y), [name.to_string(), format!("www.{name}")]);
        }
        // Suspension sees the `www.` name's TLD through the CN.
        shaped.policy = CaPolicy::Suspended;
        assert!(shaped
            .issue_cn_and_www(&mut b, &d("x.ru"), 0, day)
            .is_none());
        assert!(shaped
            .issue_cn_and_www(&mut b, &d("x.com"), 0, day)
            .is_some());
    }

    #[test]
    fn issuance_basics() {
        let mut ca = lets_encrypt();
        let mut certs = CertStore::new();
        let day = Date::from_ymd(2022, 1, 10);
        let id = ca
            .issue(&mut certs, &d("example.ru"), &[d("www.example.ru")], 0, day)
            .unwrap();
        let c = certs.get(id);
        assert_eq!(c.serial(), 1);
        assert_eq!(c.issuer_org(), "Let's Encrypt");
        assert_eq!(&*c.issuer().common_name, "R3");
        assert_eq!(c.not_before(), day);
        assert_eq!(c.not_after() - c.not_before(), 90);
        assert!(c.ct_logged());
        assert!(c.matches_russian_tld());
        assert_eq!(ca.issued_count(), 1);
        assert_eq!(certs.entries()[0].cert, id);
        assert_eq!(certs.entries()[0].timestamp, day);

        let id2 = ca
            .issue(&mut certs, &d("example.ru"), &[], 1, day.succ())
            .unwrap();
        assert_eq!(certs.get(id2).serial(), 2);
        assert_eq!(&*certs.get(id2).issuer().common_name, "E1");
    }

    #[test]
    fn suspension_blocks_russian_only() {
        let mut ca = lets_encrypt();
        let mut certs = CertStore::new();
        ca.policy = CaPolicy::Suspended;
        let day = Date::from_ymd(2022, 3, 1);
        assert!(ca
            .issue(&mut certs, &d("example.ru"), &[], 0, day)
            .is_none());
        // SAN-based Russian match is also blocked.
        assert!(ca
            .issue(
                &mut certs,
                &d("example.com"),
                &[d("shop.example.ru")],
                0,
                day
            )
            .is_none());
        assert!(certs.is_empty());
        // Non-Russian issuance continues.
        assert!(ca
            .issue(&mut certs, &d("example.com"), &[], 0, day)
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
        let mut certs = CertStore::new();
        let id = russian_ca
            .issue(
                &mut certs,
                &d("sanctioned-bank.ru"),
                &[],
                0,
                Date::from_ymd(2022, 3, 10),
            )
            .unwrap();
        let c = certs.get(id);
        assert!(!c.ct_logged());
        assert!(certs.entries().is_empty(), "nothing submitted to CT");
        assert!(c.chain_contains_org("Russian Trusted Root CA"));
        assert_eq!(c.not_after() - c.not_before(), 365);
    }

    #[test]
    fn brandless_ca_uses_org() {
        let mut ca = CertificateAuthority::new("cPanel", Country::US, &[], true, 90);
        let mut certs = CertStore::new();
        let id = ca
            .issue(&mut certs, &d("x.ru"), &[], 7, Date::from_ymd(2022, 1, 1))
            .unwrap();
        assert_eq!(&*certs.get(id).issuer().common_name, "cPanel");
    }

    #[test]
    fn one_brand_shares_its_issuer_and_chain() {
        let mut ca = lets_encrypt().with_chain(&["ISRG Root X1"]);
        let mut certs = CertStore::new();
        let date = Date::from_ymd(2022, 1, 10);
        let mut issue = |name, brand| ca.issue(&mut certs, &d(name), &[], brand, date).unwrap();
        let (a, b, other_brand) = (issue("a.ru", 0), issue("b.ru", 2), issue("c.ru", 1));
        let (a, b, other_brand) = (certs.get(a), certs.get(b), certs.get(other_brand));
        // Brand 2 wraps to brand 0: one DN and chain per brand.
        assert!(std::ptr::eq(a.issuer(), b.issuer()));
        assert!(std::ptr::eq(a.chain_orgs(), b.chain_orgs()));
        // A second brand has its own common name but the CA's organization.
        assert!(!Arc::ptr_eq(
            &a.issuer().common_name,
            &other_brand.issuer().common_name
        ));
        assert!(Arc::ptr_eq(
            &a.issuer().organization,
            &other_brand.issuer().organization
        ));
    }
}
