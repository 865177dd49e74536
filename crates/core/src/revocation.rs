//! Revocation analysis (Table 2).
//!
//! > "we tallied the revocations for certificates securing .ru and .рф
//! > domains across all CAs whose validity ended after February 25, 2022
//! > … all CAs have significantly higher revocation rates for sanctioned
//! > domains than other .ru and .рф domains." — §4.2

use ruwhere_ct::{CertName, OcspResponder};
use ruwhere_registry::SanctionsList;
use ruwhere_scan::CertDataset;
use ruwhere_types::Date;
use std::collections::{BTreeMap, BTreeSet};

/// Validity cutoff: certificates whose validity ended on or before this
/// date are excluded (paper: February 25, 2022).
pub const VALIDITY_CUTOFF: Date = Date::from_ymd(2022, 2, 25);

/// One CA's row in the Table 2 layout.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RevocationRow {
    /// Issuer organization.
    pub org: String,
    /// Certificates issued (validity ending after the cutoff).
    pub issued: u64,
    /// Of those, revoked.
    pub revoked: u64,
    /// Certificates covering sanctioned domains.
    pub sanctioned_issued: u64,
    /// Of those, revoked.
    pub sanctioned_revoked: u64,
}

impl RevocationRow {
    /// Overall revocation rate (%).
    pub fn rate(&self) -> f64 {
        100.0 * self.revoked as f64 / self.issued.max(1) as f64
    }

    /// Sanctioned revocation rate (%).
    pub fn sanctioned_rate(&self) -> f64 {
        100.0 * self.sanctioned_revoked as f64 / self.sanctioned_issued.max(1) as f64
    }

    /// Count one certificate of this CA.
    fn count(&mut self, sanctioned: bool, revoked: bool) {
        self.issued += 1;
        if revoked {
            self.revoked += 1;
        }
        if sanctioned {
            self.sanctioned_issued += 1;
            if revoked {
                self.sanctioned_revoked += 1;
            }
        }
    }
}

/// The full revocation analysis.
#[derive(Debug, Clone, Default)]
pub struct RevocationAnalysis {
    rows: BTreeMap<String, RevocationRow>,
}

impl RevocationAnalysis {
    /// Join the certificate dataset with CRL/OCSP state and the sanctions
    /// list, as of `as_of`.
    pub fn new(
        ds: &CertDataset,
        ocsp: &OcspResponder,
        sanctions: &SanctionsList,
        as_of: Date,
    ) -> Self {
        let mut rows: BTreeMap<String, RevocationRow> = BTreeMap::new();
        // A `www.` name over a certificate's CN is not stored: it is
        // sanctioned when its text is listed, that is when the CN is one
        // of these.
        let www_listed: BTreeSet<&str> = sanctions
            .sanctioned_at(as_of)
            .into_iter()
            .filter_map(|d| d.as_str().strip_prefix("www."))
            .collect();
        let certs = ds.certs();
        for r in &ds.records {
            let cert = certs.get(r.cert);
            if cert.not_after() <= VALIDITY_CUTOFF {
                continue;
            }
            let sanctioned = cert.names().any(|n| match n {
                CertName::Name(d) => sanctions.is_sanctioned(d, as_of),
                CertName::Www(cn) => www_listed.contains(cn.as_str()),
            });
            let org = cert.issuer_org();
            let revoked = ocsp
                .crl(org)
                .is_some_and(|crl| crl.is_revoked(cert.serial(), as_of));
            // Probe by `&str` first: an organization's key and row name are
            // allocated once, not once per certificate.
            match rows.get_mut(org) {
                Some(row) => row.count(sanctioned, revoked),
                None => {
                    let mut row = RevocationRow {
                        org: org.to_owned(),
                        ..RevocationRow::default()
                    };
                    row.count(sanctioned, revoked);
                    rows.insert(row.org.clone(), row);
                }
            }
        }
        RevocationAnalysis { rows }
    }

    /// All rows, keyed by organization.
    pub fn rows(&self) -> &BTreeMap<String, RevocationRow> {
        &self.rows
    }

    /// The `n` CAs with the most revocations (Table 2's "top five CAs with
    /// the most revocations").
    pub fn top_by_revocations(&self, n: usize) -> Vec<&RevocationRow> {
        let mut v: Vec<&RevocationRow> = self.rows.values().collect();
        v.sort_by(|a, b| b.revoked.cmp(&a.revoked).then(a.org.cmp(&b.org)));
        v.into_iter().take(n).collect()
    }

    /// CAs that revoked 100 % of their sanctioned-domain certificates
    /// (DigiCert and Sectigo in the paper).
    pub fn full_sanctioned_revokers(&self) -> Vec<&str> {
        self.rows
            .values()
            .filter(|r| r.sanctioned_issued > 0 && r.sanctioned_issued == r.sanctioned_revoked)
            .map(|r| r.org.as_str())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruwhere_ct::revocation::RevocationReason;
    use ruwhere_ct::{CertificateAuthority, CtLog};
    use ruwhere_registry::SanctionSource;
    use ruwhere_scan::MatchRule;
    use ruwhere_types::sync::write;
    use ruwhere_types::{Country, DomainName};

    fn setup() -> (CertDataset, OcspResponder, SanctionsList) {
        let log = CtLog::new("t");
        let mut certs = write(log.store());
        let issued = Date::from_ymd(2022, 1, 10);
        let mut issue = |ca: &mut CertificateAuthority, domain: &str, not_after: Date| {
            let domain: DomainName = domain.parse().unwrap();
            ca.validity_days = (not_after - issued) as u32;
            ca.issue(&mut certs, &domain, &[], 0, issued).unwrap();
        };
        // Serials 1, 2, 3 and 1, 2 in issuance order.
        let mut digicert = CertificateAuthority::new("DigiCert", Country::US, &[], true, 0);
        issue(&mut digicert, "bank.ru", Date::from_ymd(2022, 12, 1));
        issue(&mut digicert, "shop.ru", Date::from_ymd(2022, 12, 1));
        issue(&mut digicert, "old.ru", Date::from_ymd(2022, 2, 1)); // expired: excluded
        let mut le = CertificateAuthority::new("Let's Encrypt", Country::US, &[], true, 0);
        issue(&mut le, "bank.ru", Date::from_ymd(2022, 4, 1));
        issue(&mut le, "blog.ru", Date::from_ymd(2022, 4, 1));
        drop(certs);
        let ds = CertDataset::from_log(&log, issued, issued, MatchRule::CnOrSan);
        let mut ocsp = OcspResponder::new();
        ocsp.register_issuer("DigiCert", 3);
        ocsp.register_issuer("Let's Encrypt", 2);
        ocsp.crl_mut("DigiCert").revoke(
            1,
            Date::from_ymd(2022, 3, 11),
            RevocationReason::PrivilegeWithdrawn,
        );
        let mut sanctions = SanctionsList::new();
        sanctions.add(
            "bank.ru".parse().unwrap(),
            SanctionSource::UsOfacSdn,
            Date::from_ymd(2022, 2, 25),
        );
        (ds, ocsp, sanctions)
    }

    #[test]
    fn table2_joins() {
        let (ds, ocsp, sanctions) = setup();
        let a = RevocationAnalysis::new(&ds, &ocsp, &sanctions, Date::from_ymd(2022, 5, 15));
        let dc = &a.rows()["DigiCert"];
        assert_eq!(dc.issued, 2, "expired cert excluded");
        assert_eq!(dc.revoked, 1);
        assert_eq!(dc.sanctioned_issued, 1);
        assert_eq!(dc.sanctioned_revoked, 1);
        assert!((dc.rate() - 50.0).abs() < 1e-9);
        assert!((dc.sanctioned_rate() - 100.0).abs() < 1e-9);

        let le = &a.rows()["Let's Encrypt"];
        assert_eq!(le.issued, 2);
        assert_eq!(le.revoked, 0);
        assert_eq!(le.sanctioned_issued, 1);
        assert_eq!(le.sanctioned_revoked, 0);
    }

    #[test]
    fn rankings_and_full_revokers() {
        let (ds, ocsp, sanctions) = setup();
        let a = RevocationAnalysis::new(&ds, &ocsp, &sanctions, Date::from_ymd(2022, 5, 15));
        let top = a.top_by_revocations(1);
        assert_eq!(top[0].org, "DigiCert");
        assert_eq!(a.full_sanctioned_revokers(), vec!["DigiCert"]);
    }

    #[test]
    fn as_of_respects_revocation_dates() {
        let (ds, ocsp, sanctions) = setup();
        // Before the revocation date nothing is revoked.
        let a = RevocationAnalysis::new(&ds, &ocsp, &sanctions, Date::from_ymd(2022, 3, 1));
        assert_eq!(a.rows()["DigiCert"].revoked, 0);
    }

    #[test]
    fn a_listed_www_name_marks_its_certificate_sanctioned() {
        let log = CtLog::new("t");
        let day = Date::from_ymd(2022, 3, 1);
        let mut ca = CertificateAuthority::new("Sectigo", Country::US, &[], true, 90);
        for name in ["shop.ru", "bank.ru"] {
            let cn: DomainName = name.parse().unwrap();
            let san = [cn.clone(), cn.prepend("www").unwrap()];
            ca.issue(&mut write(log.store()), &cn, &san, 0, day)
                .unwrap();
        }
        let ds = CertDataset::from_log(&log, day, day, MatchRule::CnOrSan);
        let mut sanctions = SanctionsList::new();
        sanctions.add(
            "www.bank.ru".parse().unwrap(),
            SanctionSource::UkSanctions,
            day,
        );
        let row = |as_of| {
            RevocationAnalysis::new(&ds, &OcspResponder::new(), &sanctions, as_of).rows()["Sectigo"]
                .clone()
        };
        assert_eq!(row(day).sanctioned_issued, 1);
        assert_eq!(row(day.add_days(-1)).sanctioned_issued, 0, "not listed yet");
    }
}
