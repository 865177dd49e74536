//! X.509-lite certificates, stored as rows of one append-only store.
//!
//! We keep exactly the fields the paper's analysis reads: the Issuer DN's
//! Organization (the CA behind the brand) and Common Name (the brand, e.g.
//! RapidSSL), the subject CN and SANs (for the "matches a `.ru`/`.рф`
//! domain" test of footnote 6), validity, and whether the issuance was
//! logged to CT (the Russian Trusted Root CA does not log).
//!
//! A [`CertStore`] holds one fixed-width row per issuance: the serial, a
//! brand id into a table that holds each issuer DN and chain once, the
//! validity as day numbers, the `ct_logged` flag and a range into one
//! names column. The names column holds the CN, the same [`DomainName`]
//! the caller passed, and any SAN the two flags below do not cover: a
//! SAN list that starts with the CN and ends with `www.` over the CN, as
//! every certificate the world issues does, stores the CN alone. The CT
//! logs over a store share its one entry column ([`CertStore::entries`]),
//! and everything else refers to a certificate by its [`CertId`].
//! [`CertView`] reads a row back.

use crate::ctlog::CtEntry;
use crate::hash::{Digest, Sha256};
use ruwhere_types::{Country, Date, DomainName};
use std::fmt;
use std::sync::{Arc, RwLock};

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

/// A certificate store shared by the CT logs over it, the endpoints that
/// serve its certificates and the datasets indexed from it.
pub type SharedCertStore = Arc<RwLock<CertStore>>;

/// A certificate's row in its [`CertStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CertId(u32);

/// One issuing brand: the issuer DN and the organizations above it.
#[derive(Debug, Clone)]
struct Brand {
    issuer: DistinguishedName,
    chain_orgs: Arc<[String]>,
}

/// Row flag: the certificate was submitted to CT.
const LOGGED: u8 = 1;
/// Row flag: the SAN list starts with the CN.
const SAN_CN_FIRST: u8 = 2;
/// Row flag: the SAN list ends with `www.` over the CN.
const SAN_WWW_LAST: u8 = 4;

/// A certificate's SAN list, as [`CertStore::push`] takes it.
#[derive(Debug, Clone, Copy)]
pub(crate) enum San<'a> {
    /// These names, in order.
    Names(&'a [DomainName]),
    /// The CN, then `www.` over the CN.
    CnAndWww,
}

/// One issuance, 24 bytes.
#[derive(Debug, Clone, Copy)]
struct Row {
    serial: u64,
    not_before: Date,
    not_after: Date,
    /// The end of this row's names in [`CertStore::names`]; they start
    /// where the previous row's end.
    names_end: u32,
    brand: u16,
    flags: u8,
}

/// Every certificate issued into it, one row each, and the one entry
/// column the CT logs over it share. Append-only: a row, once written,
/// never changes, so a [`CertId`] stays valid for the store's lifetime.
#[derive(Debug, Clone, Default)]
pub struct CertStore {
    rows: Vec<Row>,
    /// Per row: the CN, then the SANs the row's flags do not cover.
    names: Vec<DomainName>,
    brands: Vec<Brand>,
    entries: Vec<CtEntry>,
}

impl CertStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a certificate and return its id; a `logged` one also gets an
    /// entry in the CT entry column, stamped `not_before`.
    ///
    /// The issuer and chain are interned by identity: a CA passes the same
    /// `Arc`s for every certificate of a brand, and they are stored once.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn push(
        &mut self,
        serial: u64,
        issuer: &DistinguishedName,
        chain_orgs: &Arc<[String]>,
        subject: &DomainName,
        san: San<'_>,
        not_before: Date,
        not_after: Date,
        logged: bool,
    ) -> CertId {
        let id =
            CertId(u32::try_from(self.rows.len()).expect("certificate store exceeds u32 rows"));
        let brand = self.brand_id(issuer, chain_orgs);
        let mut flags = if logged { LOGGED } else { 0 };
        let mut rest = match san {
            San::Names(names) => names,
            San::CnAndWww => {
                flags |= SAN_CN_FIRST | SAN_WWW_LAST;
                &[]
            }
        };
        if let Some((first, tail)) = rest.split_first() {
            if first == subject {
                flags |= SAN_CN_FIRST;
                rest = tail;
            }
        }
        if let Some((last, init)) = rest.split_last() {
            if last.as_str().strip_prefix("www.") == Some(subject.as_str()) {
                flags |= SAN_WWW_LAST;
                rest = init;
            }
        }
        self.names.push(subject.clone());
        self.names.extend_from_slice(rest);
        self.rows.push(Row {
            serial,
            not_before,
            not_after,
            names_end: u32::try_from(self.names.len()).expect("names column exceeds u32 offsets"),
            brand,
            flags,
        });
        if logged {
            self.entries.push(CtEntry {
                cert: id,
                timestamp: not_before,
            });
        }
        id
    }

    /// The id of the brand with exactly these `Arc`s, added if new.
    fn brand_id(&mut self, issuer: &DistinguishedName, chain_orgs: &Arc<[String]>) -> u16 {
        let same = |b: &Brand| {
            Arc::ptr_eq(&b.issuer.organization, &issuer.organization)
                && Arc::ptr_eq(&b.issuer.common_name, &issuer.common_name)
                && b.issuer.country == issuer.country
                && Arc::ptr_eq(&b.chain_orgs, chain_orgs)
        };
        let i = match self.brands.iter().position(same) {
            Some(i) => i,
            None => {
                self.brands.push(Brand {
                    issuer: issuer.clone(),
                    chain_orgs: Arc::clone(chain_orgs),
                });
                self.brands.len() - 1
            }
        };
        u16::try_from(i).expect("brand table exceeds u16 ids")
    }

    /// Number of certificates.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no certificate was issued into the store.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The certificate `id`.
    ///
    /// # Panics
    /// If `id` is not a row of this store.
    pub fn get(&self, id: CertId) -> CertView<'_> {
        let i = id.0 as usize;
        let row = &self.rows[i];
        let start = match i {
            0 => 0,
            _ => self.rows[i - 1].names_end as usize,
        };
        CertView {
            row,
            brand: &self.brands[row.brand as usize],
            names: &self.names[start..row.names_end as usize],
        }
    }

    /// Every certificate, in issuance order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = CertView<'_>> {
        (0..self.rows.len()).map(|i| self.get(CertId(i as u32)))
    }

    /// The CT entry column every log over this store shares: one entry per
    /// logged certificate, in submission order.
    pub fn entries(&self) -> &[CtEntry] {
        &self.entries
    }
}

/// One name a certificate covers, read from its row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CertName<'a> {
    /// A stored name.
    Name(&'a DomainName),
    /// `www.` over the certificate's CN, which the row keeps as a flag.
    Www(&'a DomainName),
}

impl<'a> CertName<'a> {
    /// The name's text in two pieces: `"www."` or `""`, then a stored name.
    pub fn parts(&self) -> [&'a str; 2] {
        match self {
            CertName::Name(name) => ["", name.as_str()],
            CertName::Www(cn) => ["www.", cn.as_str()],
        }
    }

    /// Whether the name is under `.ru` or `.рф`; a `www.` label does not
    /// change the TLD.
    pub fn is_russian_cctld(&self) -> bool {
        match self {
            CertName::Name(name) | CertName::Www(name) => name.is_russian_cctld(),
        }
    }
}

/// One certificate, read in place from its [`CertStore`].
#[derive(Debug, Clone, Copy)]
pub struct CertView<'a> {
    row: &'a Row,
    brand: &'a Brand,
    /// The CN, then the SANs the flags do not cover.
    names: &'a [DomainName],
}

impl<'a> CertView<'a> {
    /// Issuer-scoped serial number.
    pub fn serial(&self) -> u64 {
        self.row.serial
    }

    /// Issuer distinguished name, shared with every certificate of the
    /// same brand.
    pub fn issuer(&self) -> &'a DistinguishedName {
        &self.brand.issuer
    }

    /// Issuer Organization from the Issuer DN — the paper's aggregation
    /// key (§4.1).
    pub fn issuer_org(&self) -> &'a str {
        &self.brand.issuer.organization
    }

    /// Organizations in the chain above the issuer (for detecting the
    /// Russian Trusted Root CA in a chain, §4.3).
    pub fn chain_orgs(&self) -> &'a [String] {
        &self.brand.chain_orgs
    }

    /// Subject common name: the primary domain.
    pub fn subject_cn(&self) -> &'a DomainName {
        &self.names[0]
    }

    /// First day of validity.
    pub fn not_before(&self) -> Date {
        self.row.not_before
    }

    /// Last day of validity.
    pub fn not_after(&self) -> Date {
        self.row.not_after
    }

    /// Whether the issuance was submitted to CT logs.
    pub fn ct_logged(&self) -> bool {
        self.row.flags & LOGGED != 0
    }

    /// Subject alternative names, in issuance order.
    pub fn san(&self) -> impl Iterator<Item = CertName<'a>> + 'a {
        let cn = &self.names[0];
        let flags = self.row.flags;
        let first = (flags & SAN_CN_FIRST != 0).then_some(CertName::Name(cn));
        let last = (flags & SAN_WWW_LAST != 0).then_some(CertName::Www(cn));
        first
            .into_iter()
            .chain(self.names[1..].iter().map(CertName::Name))
            .chain(last)
    }

    /// The names this certificate covers: the subject CN, then each SAN.
    /// A SAN that repeats the CN (the usual case) appears twice.
    pub fn names(&self) -> impl Iterator<Item = CertName<'a>> + 'a {
        std::iter::once(CertName::Name(&self.names[0])).chain(self.san())
    }

    /// Deterministic certificate fingerprint (stand-in for the SHA-256 of
    /// the DER encoding).
    pub fn fingerprint(&self) -> Digest {
        // These bytes are part of every CT leaf: changing them moves every
        // Merkle root and signed tree head.
        let issuer = self.issuer();
        let mut h = Sha256::new();
        h.update(&self.serial().to_be_bytes())
            .update(issuer.organization.as_bytes())
            .update(&[0])
            .update(issuer.common_name.as_bytes())
            .update(&[0])
            .update(self.subject_cn().as_str().as_bytes());
        for s in self.san() {
            let [www, name] = s.parts();
            h.update(&[0])
                .update(www.as_bytes())
                .update(name.as_bytes());
        }
        h.update(&self.not_before().days_since_epoch().to_be_bytes())
            .update(&self.not_after().days_since_epoch().to_be_bytes());
        h.finalize()
    }

    /// The paper's match rule (footnote 6): the certificate "matches" if
    /// either CN or any SAN is under `.ru` or `.рф`.
    pub fn matches_russian_tld(&self) -> bool {
        self.names().any(|n| n.is_russian_cctld())
    }

    /// Stricter CN-only matching (used by the ablation bench).
    pub fn matches_russian_tld_cn_only(&self) -> bool {
        self.subject_cn().is_russian_cctld()
    }

    /// Whether the certificate is within validity on `date`.
    pub fn valid_on(&self, date: Date) -> bool {
        self.not_before() <= date && date <= self.not_after()
    }

    /// Whether any organization in the chain equals `org` (e.g.
    /// "Russian Trusted Root CA").
    pub fn chain_contains_org(&self, org: &str) -> bool {
        self.issuer_org() == org || self.chain_orgs().iter().any(|o| o == org)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CertificateAuthority;

    fn d(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    /// A store holding one Let's Encrypt certificate for `cn` with `san`.
    fn one(cn: &str, san: &[&str]) -> CertStore {
        let mut ca = CertificateAuthority::new("Let's Encrypt", Country::US, &["R3"], true, 89)
            .with_chain(&["ISRG"]);
        let san: Vec<DomainName> = san.iter().map(|s| d(s)).collect();
        let mut store = CertStore::new();
        ca.issue(&mut store, &d(cn), &san, 0, Date::from_ymd(2022, 1, 1))
            .unwrap();
        store
    }

    fn names(store: &CertStore) -> Vec<String> {
        store
            .get(CertId(0))
            .names()
            .map(|n| n.parts().concat())
            .collect()
    }

    #[test]
    fn russian_tld_matching() {
        let m = |cn, san: &[&str]| one(cn, san).get(CertId(0)).matches_russian_tld();
        let cn_only = |cn, san: &[&str]| one(cn, san).get(CertId(0)).matches_russian_tld_cn_only();
        assert!(m("example.ru", &[]));
        assert!(m("пример.рф", &[]));
        assert!(m("example.com", &["shop.example.ru"]));
        assert!(m(
            "example.com",
            &["www.example.com", "a.ru", "www.example.com"]
        ));
        assert!(!m("example.com", &["example.org"]));
        assert!(!m("example.com", &["example.com", "www.example.com"]));
        // CN-only rule is stricter: a .com CN with .ru SAN does not match.
        assert!(!cn_only("example.com", &["shop.example.ru"]));
        assert!(cn_only("example.ru", &[]));
    }

    #[test]
    fn names_read_back_in_order() {
        let usual = one("example.ru", &["example.ru", "www.example.ru"]);
        assert_eq!(
            names(&usual),
            ["example.ru", "example.ru", "www.example.ru"]
        );
        // The usual SAN list costs the names column the CN alone.
        assert_eq!(usual.names.len(), 1);
        for san in [
            &[][..],
            &["www.example.ru"],
            &["www.example.ru", "example.ru"],
            &["a.ru", "example.ru", "www.example.ru"],
            &["example.ru", "example.ru"],
            &["example.ru", "www.example.ru", "www.example.ru"],
            &["www.www.example.ru"],
        ] {
            let mut want = vec!["example.ru"];
            want.extend_from_slice(san);
            assert_eq!(names(&one("example.ru", san)), want, "{san:?}");
        }
    }

    #[test]
    fn www_names_read_back_over_the_cn() {
        let store = one("example.ru", &["example.ru", "www.example.ru"]);
        let c = store.get(CertId(0));
        let cn = c.subject_cn();
        let names: Vec<CertName<'_>> = c.names().collect();
        assert_eq!(
            names,
            [CertName::Name(cn), CertName::Name(cn), CertName::Www(cn)]
        );
        assert_eq!(names[2].parts(), ["www.", "example.ru"]);
    }

    #[test]
    fn fields_read_back() {
        let store = one("example.ru", &[]);
        let c = store.get(CertId(0));
        assert_eq!(c.serial(), 1);
        assert_eq!(c.issuer_org(), "Let's Encrypt");
        assert_eq!(&*c.issuer().common_name, "R3");
        assert_eq!(c.chain_orgs(), ["ISRG"]);
        assert_eq!(c.subject_cn().as_str(), "example.ru");
        assert_eq!(c.not_after() - c.not_before(), 89);
        assert!(c.ct_logged());
        assert_eq!(store.entries().len(), 1);
        assert_eq!(store.iter().len(), 1);
    }

    #[test]
    fn validity_window() {
        let store = one("example.ru", &[]);
        let c = store.get(CertId(0));
        assert!(!c.valid_on(Date::from_ymd(2021, 12, 31)));
        assert!(c.valid_on(Date::from_ymd(2022, 1, 1)));
        assert!(c.valid_on(Date::from_ymd(2022, 3, 31)));
        assert!(!c.valid_on(Date::from_ymd(2022, 4, 1)));
    }

    #[test]
    fn chain_org_detection() {
        let mut ca = CertificateAuthority::new("Let's Encrypt", Country::US, &[], true, 90)
            .with_chain(&["Russian Trusted Root CA"]);
        let mut store = CertStore::new();
        let id = ca
            .issue(
                &mut store,
                &d("bank.ru"),
                &[],
                0,
                Date::from_ymd(2022, 1, 1),
            )
            .unwrap();
        let c = store.get(id);
        assert!(c.chain_contains_org("Russian Trusted Root CA"));
        assert!(!c.chain_contains_org("DigiCert"));
        assert!(
            c.chain_contains_org("Let's Encrypt"),
            "issuer itself counts"
        );
    }

    #[test]
    fn fingerprint_sensitivity() {
        let fp = |cn, san: &[&str]| one(cn, san).get(CertId(0)).fingerprint();
        assert_eq!(fp("example.ru", &[]), fp("example.ru", &[]));
        assert_ne!(fp("example.ru", &[]), fp("example.ru", &["extra.ru"]));
        // A `www.` SAN hashes as the name it stands for, whichever way it
        // is stored.
        assert_ne!(
            fp("example.ru", &["www.example.ru"]),
            fp("example.ru", &["example.ru"])
        );
        let mut ca = CertificateAuthority::new("Let's Encrypt", Country::US, &["R3"], true, 89)
            .with_chain(&["ISRG"]);
        let mut store = CertStore::new();
        let day = Date::from_ymd(2022, 1, 1);
        let a = ca.issue(&mut store, &d("example.ru"), &[], 0, day).unwrap();
        let b = ca.issue(&mut store, &d("example.ru"), &[], 0, day).unwrap();
        assert_ne!(store.get(a).fingerprint(), store.get(b).fingerprint());
    }

    use crate::hash::sha256;
    use proptest::prelude::*;

    /// A domain name under `.ru`, `.рф` or `.com` with a label drawn from
    /// `label` (Latin, Cyrillic and digits).
    fn name(label: &str, tld: u8) -> Option<DomainName> {
        let tld = ["ru", "рф", "com"][tld as usize % 3];
        format!("{label}.{tld}").parse().ok()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A row's fingerprint hashes exactly the bytes a certificate's
        /// fields laid end to end always have: serial, organization, brand
        /// name, CN, each SAN, validity. The SAN list mixes the shapes the
        /// row keeps as flags (CN first, `www.` over the CN last) with
        /// names it stores.
        #[test]
        fn fingerprint_matches_the_field_layout(
            serial in any::<u64>(),
            org in "\\PC{1,16}",
            brand in "\\PC{1,16}",
            cn_label in "[a-zа-я0-9]{1,12}",
            cn_tld in any::<u8>(),
            sans in prop::collection::vec((0u8..4, "[a-zа-я0-9]{1,12}", any::<u8>()), 0..=3),
            not_before in 0i32..40_000,
            validity in 0i32..800,
            logged in any::<bool>(),
        ) {
            let Some(cn) = name(&cn_label, cn_tld) else { return Ok(()) };
            let mut san = Vec::new();
            for (kind, label, tld) in &sans {
                let s = match kind {
                    0 => cn.clone(),
                    1 => cn.prepend("www").unwrap(),
                    _ => match name(label, *tld) {
                        Some(n) => n,
                        None => continue,
                    },
                };
                san.push(s);
            }
            let issuer = DistinguishedName {
                organization: org.as_str().into(),
                common_name: brand.as_str().into(),
                country: Country::US,
            };
            let nb = Date::from_ymd(1970, 1, 1).add_days(not_before);
            let na = nb.add_days(validity);
            let mut store = CertStore::new();
            let id = store.push(serial, &issuer, &Arc::from([]), &cn, San::Names(&san), nb, na, logged);

            let mut bytes = serial.to_be_bytes().to_vec();
            bytes.extend_from_slice(org.as_bytes());
            bytes.push(0);
            bytes.extend_from_slice(brand.as_bytes());
            bytes.push(0);
            bytes.extend_from_slice(cn.as_str().as_bytes());
            for s in &san {
                bytes.push(0);
                bytes.extend_from_slice(s.as_str().as_bytes());
            }
            bytes.extend_from_slice(&nb.days_since_epoch().to_be_bytes());
            bytes.extend_from_slice(&na.days_since_epoch().to_be_bytes());
            let c = store.get(id);
            prop_assert_eq!(c.fingerprint(), sha256(&bytes));
            let read: Vec<String> = c.san().map(|n| n.parts().concat()).collect();
            let want: Vec<&str> = san.iter().map(DomainName::as_str).collect();
            prop_assert_eq!(read, want);
            prop_assert_eq!(c.ct_logged(), logged);
            prop_assert_eq!(store.entries().len(), usize::from(logged));
        }
    }
}
