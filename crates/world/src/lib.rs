//! The scenario engine: a simulated Russian domain ecosystem whose ground
//! truth is calibrated to the paper's reported statistics.
//!
//! The paper measures the real Internet; we cannot. Instead, this crate
//! stands up a miniature Internet — providers with ASNs and prefixes,
//! authoritative DNS, TLS endpoints, CAs, CT logs — populated with a
//! scaled-down `.ru`/`.рф` domain population, and then plays the 2022
//! conflict timeline against it:
//!
//! * [`catalog`] — the cast: hosting/DNS providers (REG.RU, RU-CENTER,
//!   Timeweb, Beget, Amazon AS16509, Sedo AS47846, Cloudflare AS13335,
//!   Google, Netnod, Hetzner, Linode, Serverel, …) and CAs (Let's Encrypt,
//!   DigiCert, Sectigo, GlobalSign, cPanel, ZeroSSL, GoGetSSL, Amazon,
//!   Google, Cloudflare, Russian Trusted Root CA).
//! * [`timeline`] — the dated events of §3.2–§4.3: Netnod's 2022-03-03 IP
//!   reconfiguration, Amazon's 2022-03-08 halt, Sedo's 2022-03-09 plug
//!   pull, Google's 2022-03-10 halt and mid-March intra-Google relocation,
//!   CA issuance stops, the DigiCert/Sectigo revocation sweeps, and the
//!   Russian Trusted Root CA stand-up.
//! * [`config`] — scale factors, cadences and behavioural rates. The
//!   default scale is 1:100 (≈50 k live names against the paper's ≈5 M).
//! * [`World`] — construction plus the daily [`World::advance_to`] driver.
//!
//! The measurement pipeline (`ruwhere-scan`) observes this world only
//! through the network — resolving delegations from zone snapshots, probing
//! TLS endpoints, reading CT logs — exactly as OpenINTEL and Censys observe
//! the real one.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod config;
pub mod domain_state;
pub mod timeline;
pub mod tls;
pub mod world;

pub use catalog::{CaId, ProviderId};
pub use config::WorldConfig;
pub use domain_state::{DnsPlan, DomainState, HostingPlan};
pub use timeline::{ConflictEvent, FaultTarget, InfraFault, Timeline};
pub use tls::{write_banner, Banner, TlsEndpoint, TLS_PORT};
pub use world::World;
