//! A deterministic request/response network simulator.
//!
//! The paper's measurement systems (OpenINTEL-style DNS sweeps, Censys-style
//! TLS scans) are *active* network measurements. To reproduce the mechanism
//! rather than just the arithmetic, this crate provides a small but real
//! packet-level substrate:
//!
//! * [`ip`] — IPv4 CIDR prefixes and address allocation.
//! * [`routing`] — a bit-trie longest-prefix-match table.
//! * [`topology`] — an AS-level topology mapping prefixes to autonomous
//!   systems with countries and deterministic inter-AS latencies.
//! * [`sim`] — the transport core: virtual time, UDP-like services, and
//!   the synchronous request/response exchange the resolver and the
//!   scanners drive, on the global clock or on a parallel sweep's lanes.
//!   The client owns the reply buffer: [`Transport::request`] hands it to
//!   the [`Service`], which writes its reply straight into it, so a client
//!   that keeps one buffer exchanges datagrams without allocating. On
//!   `Ok` the buffer holds the reply; after an `Err` its contents are
//!   unspecified.
//! * [`fault`] — scheduled fault injection: server outages, flapping boxes
//!   and degraded links active during windows of virtual time, replacing
//!   ad-hoc loss knobs with a declarative, deterministic [`FaultPlan`].
//!
//! Everything is deterministic: latency, jitter and loss are pure functions
//! of a [`ruwhere_types::SeedTree`] seed and packet identity, so a scan run
//! twice produces byte-identical datasets.
//!
//! ```
//! use ruwhere_netsim::{AsInfo, Network, Service, SimTime, Topology};
//! use ruwhere_types::{Asn, Country, SeedTree};
//! use std::net::Ipv4Addr;
//!
//! struct Upper;
//! impl Service for Upper {
//!     fn handle(&self, p: &[u8], _src: (Ipv4Addr, u16), _now: SimTime, reply: &mut Vec<u8>) -> bool {
//!         reply.extend(p.iter().map(u8::to_ascii_uppercase));
//!         true
//!     }
//! }
//!
//! let mut topo = Topology::new(SeedTree::new(1).child("topo"));
//! topo.add_as(AsInfo { asn: Asn(64500), org: "CLIENT".into(), country: Country::NL });
//! topo.add_as(AsInfo { asn: Asn(64501), org: "SERVER".into(), country: Country::RU });
//! topo.announce("10.0.0.0/8".parse().unwrap(), Asn(64500));
//! topo.announce("192.0.2.0/24".parse().unwrap(), Asn(64501));
//!
//! let mut net = Network::new(topo, SeedTree::new(1).child("net"));
//! net.bind("192.0.2.7".parse().unwrap(), 7, Box::new(Upper));
//! let mut reply = Vec::new();
//! let (client, server) = ("10.0.0.1".parse().unwrap(), ("192.0.2.7".parse().unwrap(), 7));
//! net.request(client, server, b"ping", 1_000_000, 1, &mut reply).unwrap();
//! assert_eq!(reply, b"PING");
//! assert!(net.now().as_micros() > 0); // latency was paid
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod ip;
pub mod obs;
pub mod routing;
pub mod sim;
pub mod topology;

pub use fault::{FaultPlan, FaultWindow, LinkFault, ServerFault, ServerFaultMode};
pub use ip::{IpAllocator, Ipv4Net, PrefixParseError};
pub use obs::{LinkObs, LinkTable, NetObs};
pub use routing::RoutingTable;
pub use ruwhere_obs::Histogram;
pub use sim::{Lane, LanePrefix, NetError, NetStats, Network, Routes, Service, SimTime, Transport};
pub use topology::{AsInfo, Topology};
