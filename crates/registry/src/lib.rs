//! ccTLD registry simulation.
//!
//! The paper's DNS dataset is seeded from daily `.ru` and `.рф` zone-file
//! snapshots. This crate provides the registry side of that pipeline:
//!
//! * [`Registry`] — per-TLD domain lifecycle (registration, renewal,
//!   expiration, deletion) and delegation data (NS sets plus glue).
//! * [`Registry::zone_snapshot`] — the daily zone file, as a
//!   [`ruwhere_dns::Zone`] with a date-derived SOA serial; after the first
//!   publish, [`Registry::publish_changes`] keeps the published zone
//!   current by editing only the names that changed.
//! * [`sanctions`] — dated US OFAC SDN / UK sanctions-list entries
//!   (107 unique domains in the paper, §2).
//! * [`namegen`] — deterministic synthetic domain-name generation for
//!   populating the registry at scale.

//! ```
//! use ruwhere_registry::{Delegation, Registry};
//! use ruwhere_types::Date;
//!
//! let mut ru = Registry::new("ru".parse().unwrap());
//! ru.register("example.ru".parse().unwrap(), Date::from_ymd(2020, 1, 1), 5).unwrap();
//! ru.set_delegation(
//!     &"example.ru".parse().unwrap(),
//!     Delegation {
//!         nameservers: vec!["ns1.reg.ru".parse().unwrap()],
//!         glue: Default::default(),
//!     },
//! )
//! .unwrap();
//! let zone = ru.zone_snapshot(Date::from_ymd(2022, 2, 24));
//! assert_eq!(zone.delegations().count(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod namegen;
pub mod registry;
pub mod sanctions;
pub mod whois;

pub use namegen::NameGenerator;
pub use registry::{Delegation, Registration, Registry, RegistryError};
pub use sanctions::{SanctionSource, SanctionsList};
pub use whois::{WhoisRecord, WHOIS_PORT};
