//! AS-level topology: prefixes, origin ASes, countries, latencies.
//!
//! Latency between two ASes is a deterministic function of the pair and the
//! topology seed — stable across a run and across runs with the same seed,
//! like real paths are stable on measurement timescales.

use crate::ip::Ipv4Net;
use crate::routing::RoutingTable;
use ruwhere_types::{Asn, Country, FastMap, SeedTree};
use std::net::Ipv4Addr;

/// Registration facts about one autonomous system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsInfo {
    /// The AS number.
    pub asn: Asn,
    /// Operating organization name (e.g. `"AMAZON-02"`).
    pub org: String,
    /// Country of registration/operation.
    pub country: Country,
}

/// The AS-level map of the simulated Internet.
#[derive(Debug, Clone)]
pub struct Topology {
    seed: SeedTree,
    ases: FastMap<Asn, AsInfo>,
    fib: RoutingTable<Asn>,
    prefixes: Vec<(Ipv4Net, Asn)>,
}

impl Topology {
    /// New topology; `seed` drives latency/jitter derivation.
    pub fn new(seed: SeedTree) -> Self {
        Topology {
            seed,
            ases: FastMap::default(),
            fib: RoutingTable::new(),
            prefixes: Vec::new(),
        }
    }

    /// Register an AS. Returns `false` if it already exists.
    pub fn add_as(&mut self, info: AsInfo) -> bool {
        if self.ases.contains_key(&info.asn) {
            return false;
        }
        self.ases.insert(info.asn, info);
        true
    }

    /// Announce `net` as originated by `asn` (which must be registered).
    /// Re-announcing an existing prefix moves it — this is exactly the
    /// "IP address reconfiguration" mechanism behind the Netnod/RU-CENTER
    /// event of 2022-03-03 (paper §3.2).
    pub fn announce(&mut self, net: Ipv4Net, asn: Asn) -> bool {
        if !self.ases.contains_key(&asn) {
            return false;
        }
        if let Some(old) = self.fib.insert(net, asn) {
            self.prefixes.retain(|(n, a)| !(*n == net && *a == old));
        }
        self.prefixes.push((net, asn));
        true
    }

    /// Withdraw a prefix announcement.
    pub fn withdraw(&mut self, net: Ipv4Net) -> Option<Asn> {
        let old = self.fib.remove(net);
        if let Some(asn) = old {
            self.prefixes.retain(|(n, a)| !(*n == net && *a == asn));
        }
        old
    }

    /// Origin AS of `ip` by longest-prefix match.
    pub fn asn_of(&self, ip: Ipv4Addr) -> Option<Asn> {
        self.fib.lookup(ip).copied()
    }

    /// AS registration info.
    pub fn as_info(&self, asn: Asn) -> Option<&AsInfo> {
        self.ases.get(&asn)
    }

    /// All announced prefixes with their origin AS.
    pub fn prefixes(&self) -> &[(Ipv4Net, Asn)] {
        &self.prefixes
    }

    /// Number of registered ASes.
    pub fn as_count(&self) -> usize {
        self.ases.len()
    }

    /// Deterministic one-way latency between two ASes, in microseconds.
    ///
    /// Intra-AS traffic is fast (0.2-2 ms); international paths are slower
    /// (5-150 ms) with a per-pair fixed draw, symmetric in its arguments.
    pub fn latency_us(&self, a: Asn, b: Asn) -> u64 {
        if a == b {
            let h = self
                .seed
                .child("lat-intra")
                .child_idx(u64::from(a.value()))
                .seed();
            return 200 + h % 1_800;
        }
        let (lo, hi) = if a.value() <= b.value() {
            (a, b)
        } else {
            (b, a)
        };
        let node = self
            .seed
            .child("lat")
            .child_idx(u64::from(lo.value()))
            .child_idx(u64::from(hi.value()));
        let base = 5_000 + node.seed() % 145_000;
        // Same-country pairs are systematically faster.
        let same_country = match (self.as_info(a), self.as_info(b)) {
            (Some(x), Some(y)) => x.country == y.country,
            _ => false,
        };
        if same_country {
            2_000 + base / 10
        } else {
            base
        }
    }

    /// Deterministic per-packet jitter in microseconds, derived from packet
    /// identity so retransmissions of the same logical packet differ.
    pub fn jitter_us(&self, a: Asn, b: Asn, packet_id: u64) -> u64 {
        let node = self
            .seed
            .child("jitter")
            .child_idx(u64::from(a.value()) << 32 | u64::from(b.value()))
            .child_idx(packet_id);
        node.seed() % 2_000
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> Topology {
        let mut t = Topology::new(SeedTree::new(1));
        t.add_as(AsInfo {
            asn: Asn::AMAZON,
            org: "AMAZON-02".into(),
            country: Country::US,
        });
        t.add_as(AsInfo {
            asn: Asn::CLOUDFLARE,
            org: "CLOUDFLARENET".into(),
            country: Country::US,
        });
        t.add_as(AsInfo {
            asn: Asn::RU_CENTER,
            org: "RU-CENTER".into(),
            country: Country::RU,
        });
        t.announce("52.0.0.0/8".parse().unwrap(), Asn::AMAZON);
        t.announce("104.16.0.0/12".parse().unwrap(), Asn::CLOUDFLARE);
        t.announce("194.85.0.0/16".parse().unwrap(), Asn::RU_CENTER);
        t
    }

    #[test]
    fn lpm_origin() {
        let t = topo();
        assert_eq!(t.asn_of("52.1.2.3".parse().unwrap()), Some(Asn::AMAZON));
        assert_eq!(
            t.asn_of("104.16.9.9".parse().unwrap()),
            Some(Asn::CLOUDFLARE)
        );
        assert_eq!(t.asn_of("8.8.8.8".parse().unwrap()), None);
    }

    #[test]
    fn duplicate_as_rejected() {
        let mut t = topo();
        assert!(!t.add_as(AsInfo {
            asn: Asn::AMAZON,
            org: "DUP".into(),
            country: Country::DE,
        }));
        assert_eq!(t.as_count(), 3);
    }

    #[test]
    fn announce_requires_registered_as() {
        let mut t = topo();
        assert!(!t.announce("1.0.0.0/8".parse().unwrap(), Asn(64512)));
    }

    #[test]
    fn reannounce_moves_prefix() {
        let mut t = topo();
        let net: Ipv4Net = "194.85.32.0/24".parse().unwrap();
        t.announce(net, Asn::RU_CENTER);
        assert_eq!(
            t.asn_of("194.85.32.1".parse().unwrap()),
            Some(Asn::RU_CENTER)
        );
        // The Netnod-style move: same prefix, new origin.
        t.announce(net, Asn::CLOUDFLARE);
        assert_eq!(
            t.asn_of("194.85.32.1".parse().unwrap()),
            Some(Asn::CLOUDFLARE)
        );
        assert_eq!(
            t.prefixes().iter().filter(|(n, _)| *n == net).count(),
            1,
            "prefix list must not contain duplicates after a move"
        );
    }

    #[test]
    fn withdraw() {
        let mut t = topo();
        assert_eq!(t.withdraw("52.0.0.0/8".parse().unwrap()), Some(Asn::AMAZON));
        assert_eq!(t.asn_of("52.1.2.3".parse().unwrap()), None);
        assert_eq!(t.withdraw("52.0.0.0/8".parse().unwrap()), None);
    }

    #[test]
    fn latency_properties() {
        let t = topo();
        // Symmetric.
        assert_eq!(
            t.latency_us(Asn::AMAZON, Asn::RU_CENTER),
            t.latency_us(Asn::RU_CENTER, Asn::AMAZON)
        );
        // Intra-AS fast.
        assert!(t.latency_us(Asn::AMAZON, Asn::AMAZON) < 2_000);
        // Inter-AS bounded.
        let l = t.latency_us(Asn::AMAZON, Asn::RU_CENTER);
        assert!((5_000..152_000).contains(&l), "latency {l} out of range");
        // Same-country faster than the raw international draw's floor ceiling.
        let same = t.latency_us(Asn::AMAZON, Asn::CLOUDFLARE);
        assert!(same < 17_000, "same-country latency {same} too high");
        // Deterministic.
        assert_eq!(
            t.latency_us(Asn::AMAZON, Asn::RU_CENTER),
            topo().latency_us(Asn::AMAZON, Asn::RU_CENTER)
        );
    }

    #[test]
    fn jitter_varies_by_packet() {
        let t = topo();
        let j1 = t.jitter_us(Asn::AMAZON, Asn::RU_CENTER, 1);
        let j2 = t.jitter_us(Asn::AMAZON, Asn::RU_CENTER, 2);
        assert!(j1 < 2_000 && j2 < 2_000);
        assert_ne!(j1, j2);
    }
}
