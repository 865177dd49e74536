//! Revocation state: CRLs and an OCSP-style status oracle.
//!
//! The paper (§4.2) tallies revocations "using the Certificate Revocation
//! Lists (CRLs) and Online Certificate Status Protocol (OCSP) state as
//! indexed by Censys … for certificates securing .ru and .рф domains across
//! all CAs whose validity ended after February 25, 2022."

use ruwhere_types::Date;
use std::collections::BTreeMap;

/// RFC 5280 revocation reasons (the subset that occurs in practice here).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RevocationReason {
    /// No reason given.
    Unspecified,
    /// Subscriber's key compromised.
    KeyCompromise,
    /// Subscriber asked for revocation (e.g. a sanctioned operator
    /// "testing different CAs", §4.2).
    CessationOfOperation,
    /// The CA withdrew service for policy/compliance reasons — the
    /// DigiCert/Sectigo sanctioned-domain revocations.
    PrivilegeWithdrawn,
    /// Superseded by a reissued certificate.
    Superseded,
}

/// A revocation record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RevocationEntry {
    /// Revocation date.
    pub date: Date,
    /// Stated reason.
    pub reason: RevocationReason,
}

/// One CA's certificate revocation list.
#[derive(Debug, Clone, Default)]
pub struct Crl {
    /// Issuer organization this CRL belongs to.
    pub issuer_org: String,
    revoked: BTreeMap<u64, RevocationEntry>,
}

impl Crl {
    /// Empty CRL for `issuer_org`.
    pub fn new(issuer_org: &str) -> Self {
        Crl {
            issuer_org: issuer_org.to_owned(),
            revoked: BTreeMap::new(),
        }
    }

    /// Revoke `serial` on `date`. Idempotent: the first revocation wins.
    pub fn revoke(&mut self, serial: u64, date: Date, reason: RevocationReason) -> bool {
        if self.revoked.contains_key(&serial) {
            return false;
        }
        self.revoked
            .insert(serial, RevocationEntry { date, reason });
        true
    }

    /// The revocation entry for `serial`, if any.
    pub fn entry(&self, serial: u64) -> Option<RevocationEntry> {
        self.revoked.get(&serial).copied()
    }

    /// Whether `serial` was revoked on or before `as_of`.
    pub fn is_revoked(&self, serial: u64, as_of: Date) -> bool {
        self.entry(serial).is_some_and(|e| e.date <= as_of)
    }

    /// Number of revoked serials.
    pub fn len(&self) -> usize {
        self.revoked.len()
    }

    /// Whether the CRL is empty.
    pub fn is_empty(&self) -> bool {
        self.revoked.is_empty()
    }

    /// Iterate `(serial, entry)` in serial order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, RevocationEntry)> + '_ {
        self.revoked.iter().map(|(s, e)| (*s, *e))
    }
}

/// Point-in-time certificate status, as OCSP would report it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CertStatus {
    /// Not revoked (as far as this responder knows).
    Good,
    /// Revoked on the given date.
    Revoked(RevocationEntry),
    /// The responder does not know the serial.
    Unknown,
}

/// An OCSP-style status oracle over a set of per-CA CRLs.
#[derive(Debug, Clone, Default)]
pub struct OcspResponder {
    crls: BTreeMap<String, Crl>,
    /// Serials each CA has actually issued (to distinguish Good from
    /// Unknown).
    known: BTreeMap<String, u64>,
}

impl OcspResponder {
    /// Empty responder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register that `issuer_org` has issued serials `1..=max_serial`.
    pub fn register_issuer(&mut self, issuer_org: &str, max_serial: u64) {
        self.known.insert(issuer_org.to_owned(), max_serial);
        self.crls
            .entry(issuer_org.to_owned())
            .or_insert_with(|| Crl::new(issuer_org));
    }

    /// Mutable access to an issuer's CRL (created on demand; the key is
    /// allocated only then).
    pub fn crl_mut(&mut self, issuer_org: &str) -> &mut Crl {
        if !self.crls.contains_key(issuer_org) {
            self.crls
                .insert(issuer_org.to_owned(), Crl::new(issuer_org));
        }
        self.crls.get_mut(issuer_org).expect("inserted above")
    }

    /// Read access to an issuer's CRL.
    pub fn crl(&self, issuer_org: &str) -> Option<&Crl> {
        self.crls.get(issuer_org)
    }

    /// OCSP status of `(issuer_org, serial)` as of `date`.
    pub fn status(&self, issuer_org: &str, serial: u64, date: Date) -> CertStatus {
        if let Some(crl) = self.crls.get(issuer_org) {
            if let Some(entry) = crl.entry(serial) {
                if entry.date <= date {
                    return CertStatus::Revoked(entry);
                }
            }
        }
        match self.known.get(issuer_org) {
            Some(&max) if serial >= 1 && serial <= max => CertStatus::Good,
            _ => CertStatus::Unknown,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crl_basics() {
        let mut crl = Crl::new("DigiCert");
        assert!(crl.is_empty());
        assert!(crl.revoke(
            7,
            Date::from_ymd(2022, 3, 1),
            RevocationReason::PrivilegeWithdrawn
        ));
        assert!(!crl.revoke(7, Date::from_ymd(2022, 4, 1), RevocationReason::Unspecified));
        assert_eq!(crl.len(), 1);
        let e = crl.entry(7).unwrap();
        assert_eq!(e.date, Date::from_ymd(2022, 3, 1));
        assert_eq!(e.reason, RevocationReason::PrivilegeWithdrawn);
        assert!(!crl.is_revoked(7, Date::from_ymd(2022, 2, 28)));
        assert!(crl.is_revoked(7, Date::from_ymd(2022, 3, 1)));
        assert!(!crl.is_revoked(8, Date::from_ymd(2022, 3, 1)));
    }

    #[test]
    fn ocsp_statuses() {
        let mut ocsp = OcspResponder::new();
        ocsp.register_issuer("Sectigo", 100);
        ocsp.crl_mut("Sectigo").revoke(
            42,
            Date::from_ymd(2022, 3, 10),
            RevocationReason::PrivilegeWithdrawn,
        );

        let d = Date::from_ymd(2022, 4, 1);
        assert_eq!(ocsp.status("Sectigo", 1, d), CertStatus::Good);
        assert!(matches!(
            ocsp.status("Sectigo", 42, d),
            CertStatus::Revoked(_)
        ));
        // Before the revocation date the cert was still good.
        assert_eq!(
            ocsp.status("Sectigo", 42, Date::from_ymd(2022, 3, 9)),
            CertStatus::Good
        );
        assert_eq!(ocsp.status("Sectigo", 101, d), CertStatus::Unknown);
        assert_eq!(ocsp.status("Sectigo", 0, d), CertStatus::Unknown);
        assert_eq!(ocsp.status("NoSuchCA", 1, d), CertStatus::Unknown);
    }

    #[test]
    fn iteration_order() {
        let mut crl = Crl::new("X");
        crl.revoke(9, Date::from_ymd(2022, 3, 1), RevocationReason::Unspecified);
        crl.revoke(3, Date::from_ymd(2022, 3, 2), RevocationReason::Superseded);
        let serials: Vec<u64> = crl.iter().map(|(s, _)| s).collect();
        assert_eq!(serials, vec![3, 9]);
    }
}
