//! Foundation types shared by every crate in the `ruwhere` workspace.
//!
//! This crate deliberately has no heavyweight dependencies: civil-date
//! arithmetic is implemented from first principles (no `chrono`), punycode
//! is implemented from RFC 3492 (no `idna`), and deterministic seeding is a
//! small splitmix-based tree (no `rand_chacha`).
//!
//! The types here model the vocabulary of the IMC 2022 paper
//! *"Where .ru? Assessing the Impact of Conflict on Russian Domain
//! Infrastructure"*:
//!
//! * [`Date`] — civil dates; the study window is
//!   [`STUDY_START`] (2017-06-18) through [`STUDY_END`] (2022-05-25).
//! * [`Period`] — the paper's three analysis phases around the 2022
//!   invasion (pre-conflict / pre-sanctions / post-sanctions).
//! * [`Country`] — ISO 3166-1 alpha-2 codes used for geolocation labels.
//! * [`Asn`] — autonomous-system numbers, with constants for the networks
//!   the paper names (Amazon AS16509, Sedo AS47846, Cloudflare AS13335, …).
//! * [`DomainName`] — validated, lowercased DNS names with TLD helpers and
//!   IDNA awareness (`.рф` ⇄ `xn--p1ai`).
//! * [`SeedTree`] — hierarchical deterministic seed derivation so that every
//!   simulation and measurement run is bit-reproducible.
//! * [`hash`] — the process-seeded fast hasher behind the sweep path's
//!   hash maps ([`FastMap`]).
//! * [`sync`] — poison-tolerant `std::sync` lock acquisition, shared by
//!   every crate that locks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asn;
pub mod country;
pub mod date;
pub mod domain;
pub mod hash;
pub mod period;
pub mod punycode;
pub mod seed;
pub mod sync;

pub use asn::Asn;
pub use country::Country;
pub use date::{Date, DateRange, STUDY_END, STUDY_START};
pub use domain::{DomainName, DomainParseError};
pub use hash::{FastMap, FastSet};
pub use period::{Period, CERT_WINDOW_END, CERT_WINDOW_START, CONFLICT_START, SANCTIONS_EFFECT};
pub use seed::{SeedPrefix, SeedTree};
