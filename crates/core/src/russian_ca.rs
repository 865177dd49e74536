//! Russian Trusted Root CA analysis (§4.3).
//!
//! The state CA does not log to CT and is not browser-trusted, so the only
//! way to observe it is IP-wide scanning of *served* chains. This module
//! joins an [`IpScanSnapshot`] with the CT view and the sanctions list to
//! reproduce the §4.3 findings: few certificates in absolute terms, all
//! securing Russian-related entities, about a third of the sanctions list
//! covered.

use ruwhere_registry::SanctionsList;
use ruwhere_scan::{CertDataset, IpScanSnapshot};
use ruwhere_types::{Date, DomainName};
use std::collections::{BTreeMap, BTreeSet};

/// The organization string of the state CA.
pub const RUSSIAN_CA_ORG: &str = "Russian Trusted Root CA";

/// §4.3 summary.
#[derive(Debug, Clone, Default)]
pub struct RussianCaAnalysis {
    /// Unique certificates (by issuer serial) seen in scans with the
    /// Russian CA in their chain.
    pub unique_certs: usize,
    /// Distinct domains covered, by TLD.
    pub domains_by_tld: BTreeMap<String, usize>,
    /// Sanctioned domains among the covered set.
    pub sanctioned_covered: usize,
    /// Size of the sanctions list at analysis time.
    pub sanctions_total: usize,
    /// Certificates from the Russian CA present in the CT dataset (should
    /// be zero — the CA does not log).
    pub in_ct: usize,
    /// Unique certificates from all *other* CAs seen in the same scan, for
    /// the paper's "for context" comparison.
    pub other_ca_certs: usize,
}

impl RussianCaAnalysis {
    /// Run the analysis over one scan snapshot.
    pub fn new(
        scan: &IpScanSnapshot,
        ct: &CertDataset,
        sanctions: &SanctionsList,
        as_of: Date,
    ) -> Self {
        let mut russian_serials: BTreeSet<u64> = BTreeSet::new();
        let mut other_serials: BTreeSet<(&str, u64)> = BTreeSet::new();
        let mut covered: BTreeSet<DomainName> = BTreeSet::new();
        for e in scan.endpoints() {
            if e.chain_contains_org(RUSSIAN_CA_ORG) {
                russian_serials.insert(e.serial());
                // The scan stored each name in normalized form, so every
                // one parses.
                covered.extend(e.names().filter_map(|n| DomainName::parse(n).ok()));
            } else {
                other_serials.insert((e.issuer_org(), e.serial()));
            }
        }

        let mut domains_by_tld: BTreeMap<String, usize> = BTreeMap::new();
        let mut sanctioned_covered = 0;
        for d in &covered {
            *domains_by_tld.entry(d.tld().to_owned()).or_default() += 1;
            if sanctions.is_sanctioned(d, as_of) {
                sanctioned_covered += 1;
            }
        }

        let certs = ct.certs();
        let in_ct = ct
            .records
            .iter()
            .filter(|r| certs.get(r.cert).issuer_org() == RUSSIAN_CA_ORG)
            .count();

        RussianCaAnalysis {
            unique_certs: russian_serials.len(),
            domains_by_tld,
            sanctioned_covered,
            sanctions_total: sanctions.sanctioned_at(as_of).len(),
            in_ct,
            other_ca_certs: other_serials.len(),
        }
    }

    /// Domains under the study ccTLDs.
    pub fn russian_tld_domains(&self) -> usize {
        self.domains_by_tld.get("ru").copied().unwrap_or(0)
            + self.domains_by_tld.get("xn--p1ai").copied().unwrap_or(0)
    }

    /// Fraction of the sanctions list covered (paper: 34 %).
    pub fn sanctioned_coverage(&self) -> f64 {
        self.sanctioned_covered as f64 / self.sanctions_total.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruwhere_ct::{CertStore, CertificateAuthority};
    use ruwhere_registry::SanctionSource;
    use ruwhere_types::Country;

    /// The banner of a certificate for `cn` (also its one SAN).
    fn banner(cn: &str, issuer: &str, chain_orgs: &[&str], serial: u64) -> Vec<u8> {
        let cn: DomainName = cn.parse().unwrap();
        let mut ca =
            CertificateAuthority::new(issuer, Country::RU, &[], false, 365).with_chain(chain_orgs);
        let mut certs = CertStore::new();
        let day = Date::from_ymd(2022, 3, 10);
        // Serials count from 1: issue the ones before `serial` first.
        for _ in 1..serial {
            ca.issue(&mut certs, &cn, &[], 0, day);
        }
        let id = ca
            .issue(&mut certs, &cn, std::slice::from_ref(&cn), 0, day)
            .unwrap();
        let mut out = Vec::new();
        ruwhere_world::write_banner(certs.get(id), &mut out);
        out
    }

    #[test]
    fn analysis_counts() {
        let mut snap = IpScanSnapshot::new(Date::from_ymd(2022, 5, 15));
        for (addr, cn, issuer, chain, serial) in [
            ("10.0.0.1", "bank.ru", RUSSIAN_CA_ORG, RUSSIAN_CA_ORG, 1),
            ("10.0.0.2", "site.ru", RUSSIAN_CA_ORG, RUSSIAN_CA_ORG, 2),
            ("10.0.0.3", "corp.com", RUSSIAN_CA_ORG, RUSSIAN_CA_ORG, 3),
            ("10.0.0.4", "пример.рф", RUSSIAN_CA_ORG, RUSSIAN_CA_ORG, 4),
            ("10.0.0.5", "ord.ru", "Let's Encrypt", "ISRG", 99),
            // Duplicate serial from a second endpoint: counted once.
            ("10.0.0.6", "bank.ru", RUSSIAN_CA_ORG, RUSSIAN_CA_ORG, 1),
        ] {
            let b = banner(cn, issuer, &[chain], serial);
            assert!(snap.push_banner(addr.parse().unwrap(), &b));
        }
        let mut sanctions = SanctionsList::new();
        sanctions.add(
            "bank.ru".parse().unwrap(),
            SanctionSource::UsOfacSdn,
            Date::from_ymd(2022, 2, 25),
        );
        sanctions.add(
            "unseen.ru".parse().unwrap(),
            SanctionSource::UsOfacSdn,
            Date::from_ymd(2022, 2, 25),
        );
        let ct = CertDataset::default();
        let a = RussianCaAnalysis::new(&snap, &ct, &sanctions, Date::from_ymd(2022, 5, 15));

        assert_eq!(a.unique_certs, 4);
        assert_eq!(a.other_ca_certs, 1);
        assert_eq!(a.russian_tld_domains(), 3);
        assert_eq!(a.domains_by_tld.get("com"), Some(&1));
        assert_eq!(a.sanctioned_covered, 1);
        assert_eq!(a.sanctions_total, 2);
        assert!((a.sanctioned_coverage() - 0.5).abs() < 1e-9);
        assert_eq!(a.in_ct, 0);
    }
}
