//! WebPKI substrate: certificates, CAs, Certificate Transparency, and
//! revocation.
//!
//! Section 4 of the paper studies how Certificate Authorities reacted to the
//! conflict using three data sources, all reproduced here:
//!
//! * **Certificates** ([`cert`]) — an X.509-lite model stored as rows of
//!   one append-only [`CertStore`]: issuer organization + common-name
//!   brands (DigiCert issues under RapidSSL/GeoTrust, etc.), subject CN and
//!   SANs, validity windows. [`CertView`] reads a row back.
//! * **CAs** ([`ca`]) — issuance policies; a [`CertificateAuthority`]
//!   issues into a store.
//! * **CT logs** ([`CtLog`]) — an RFC 6962 append-only Merkle tree (with a
//!   self-contained SHA-256 in [`hash`]) over a store's entry column;
//!   supports signed tree heads, inclusion proofs, and consistency proofs.
//!   The Russian Trusted Root CA famously does *not* log its certificates,
//!   which is why the paper needs IP-wide scans to see them at all.
//! * **Revocation** ([`revocation`]) — CRL sets and an OCSP-style status
//!   oracle, used for Table 2 (DigiCert and Sectigo revoked 100 % of their
//!   sanctioned-domain certificates).

//! ```
//! use ruwhere_ct::ctlog::verify_inclusion;
//! use ruwhere_ct::{CertificateAuthority, CtLog};
//! use ruwhere_types::{Country, Date};
//!
//! let mut ca = CertificateAuthority::new("Let's Encrypt", Country::US, &["R3"], true, 90);
//! let log = CtLog::new("example-log");
//! let mut certs = log.store().write().unwrap();
//! for i in 0..10u32 {
//!     let d = format!("site{i}.ru").parse().unwrap();
//!     // The CA logs to CT: issuing appends the log entry.
//!     ca.issue(&mut certs, &d, &[], 0, Date::from_ymd(2022, 1, 1)).unwrap();
//! }
//! drop(certs);
//! let sth = log.sth();
//! let proof = log.inclusion_proof(4, sth.tree_size).unwrap();
//! assert!(verify_inclusion(&log.leaf_at(4).unwrap(), &proof, &sth.root));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ca;
pub mod cert;
pub mod ctlog;
pub mod hash;
pub mod revocation;

pub use ca::{CaPolicy, CertificateAuthority};
pub use cert::{CertId, CertName, CertStore, CertView, DistinguishedName, SharedCertStore};
pub use ctlog::{ConsistencyProof, CtEntry, CtLog, InclusionProof, SignedTreeHead};
pub use hash::{sha256, Digest};
pub use revocation::{CertStatus, Crl, OcspResponder, RevocationReason};
