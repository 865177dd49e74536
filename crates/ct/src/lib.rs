//! WebPKI substrate: certificates, CAs, Certificate Transparency, and
//! revocation.
//!
//! Section 4 of the paper studies how Certificate Authorities reacted to the
//! conflict using three data sources, all reproduced here:
//!
//! * **CT logs** ([`CtLog`]) — an RFC 6962 append-only Merkle tree (with a
//!   from-scratch SHA-256 in [`hash`]) recording certificate issuance;
//!   supports signed tree heads, inclusion proofs, and consistency proofs.
//!   The Russian Trusted Root CA famously does *not* log its certificates,
//!   which is why the paper needs IP-wide scans to see them at all.
//! * **Certificates and CAs** ([`cert`], [`ca`]) — an X.509-lite model:
//!   issuer organization + common-name brands (DigiCert issues under
//!   RapidSSL/GeoTrust, etc.), subject CN and SANs, validity windows.
//! * **Revocation** ([`revocation`]) — CRL sets and an OCSP-style status
//!   oracle, used for Table 2 (DigiCert and Sectigo revoked 100 % of their
//!   sanctioned-domain certificates).

//! ```
//! use ruwhere_ct::ctlog::verify_inclusion;
//! use ruwhere_ct::{CertificateAuthority, CtLog};
//! use ruwhere_types::{Country, Date};
//!
//! let mut ca = CertificateAuthority::new("Let's Encrypt", Country::US, &["R3"], true, 90);
//! let mut log = CtLog::new("example-log");
//! for i in 0..10u32 {
//!     let d = format!("site{i}.ru").parse().unwrap();
//!     let cert = ca.issue(&d, vec![], 0, Date::from_ymd(2022, 1, 1)).unwrap();
//!     log.append(cert, Date::from_ymd(2022, 1, 1));
//! }
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
pub use cert::{Certificate, DistinguishedName};
pub use ctlog::{ConsistencyProof, CtLog, InclusionProof, SignedTreeHead};
pub use hash::{sha256, Digest};
pub use revocation::{CertStatus, Crl, OcspResponder, RevocationReason};
