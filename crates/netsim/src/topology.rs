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

/// The constants of the path between two ASes, oriented from the first
/// to the second: what [`Topology::latency_us`] and
/// [`Topology::jitter_us`] derive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PairPath {
    /// The pair's one-way base latency, the same both ways.
    pub base_us: u64,
    /// The node each packet's jitter draw hangs off, this way.
    pub there: SeedTree,
    /// The same for the reverse direction.
    pub back: SeedTree,
}

impl PairPath {
    /// The same path in the other direction.
    pub fn reversed(self) -> PairPath {
        PairPath {
            base_us: self.base_us,
            there: self.back,
            back: self.there,
        }
    }
}

/// The AS-level map of the simulated Internet.
#[derive(Debug, Clone)]
pub struct Topology {
    seed: SeedTree,
    /// Registered ASes, in registration order.
    ases: Vec<AsInfo>,
    /// Each registered AS's position in `ases`.
    index: FastMap<Asn, u32>,
    /// The path constants of every pair of registered ASes, filled as each
    /// registers (registration facts never change after that): row `i`,
    /// from `i * (i + 1) / 2`, holds the pairs `(i, 0..=i)` oriented from
    /// `ases[i]`.
    paths: Vec<PairPath>,
    fib: RoutingTable<Asn>,
    prefixes: Vec<(Ipv4Net, Asn)>,
}

impl Topology {
    /// New topology; `seed` drives latency/jitter derivation.
    pub fn new(seed: SeedTree) -> Self {
        Topology {
            seed,
            ases: Vec::new(),
            index: FastMap::default(),
            paths: Vec::new(),
            fib: RoutingTable::new(),
            prefixes: Vec::new(),
        }
    }

    /// Register an AS. Returns `false` if it already exists.
    pub fn add_as(&mut self, info: AsInfo) -> bool {
        if self.index.contains_key(&info.asn) {
            return false;
        }
        let i = self.ases.len();
        self.index
            .insert(info.asn, u32::try_from(i).expect("AS count fits u32"));
        self.ases.push(info);
        let asn = self.ases[i].asn;
        // Grow by the row alone: the table is sized once per AS, not doubled.
        self.paths.reserve_exact(i + 1);
        for j in 0..=i {
            let other = self.ases[j].asn;
            let path = PairPath {
                base_us: self.latency_us(asn, other),
                there: self.jitter_node(asn, other),
                back: self.jitter_node(other, asn),
            };
            self.paths.push(path);
        }
        true
    }

    /// The position of registered AS `asn`, which [`Topology::path`] takes.
    pub(crate) fn as_index(&self, asn: Asn) -> Option<u32> {
        self.index.get(&asn).copied()
    }

    /// The path constants from the AS at position `a` to the one at `b`.
    pub(crate) fn path(&self, a: u32, b: u32) -> PairPath {
        let (hi, lo) = (a.max(b) as usize, a.min(b) as usize);
        let path = self.paths[hi * (hi + 1) / 2 + lo];
        if a as usize == hi {
            path
        } else {
            path.reversed()
        }
    }

    /// Announce `net` as originated by `asn` (which must be registered).
    /// Re-announcing an existing prefix moves it — this is exactly the
    /// "IP address reconfiguration" mechanism behind the Netnod/RU-CENTER
    /// event of 2022-03-03 (paper §3.2).
    pub fn announce(&mut self, net: Ipv4Net, asn: Asn) -> bool {
        if !self.index.contains_key(&asn) {
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
        self.index.get(&asn).map(|&i| &self.ases[i as usize])
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
        jitter_us(self.jitter_node(a, b), packet_id)
    }

    /// The per-pair node [`jitter_us`](Topology::jitter_us) draws from.
    fn jitter_node(&self, a: Asn, b: Asn) -> SeedTree {
        self.seed
            .child("jitter")
            .child_idx(u64::from(a.value()) << 32 | u64::from(b.value()))
    }
}

/// Packet `packet_id`'s jitter on the path whose jitter node is `node`.
pub(crate) fn jitter_us(node: SeedTree, packet_id: u64) -> u64 {
    node.child_idx(packet_id).seed() % 2_000
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
    fn path_table_matches_the_derivations() {
        let t = topo();
        let ases = [Asn::AMAZON, Asn::CLOUDFLARE, Asn::RU_CENTER];
        // One entry per unordered pair, self-pairs included.
        assert_eq!(t.paths.len(), 6);
        for a in ases {
            for b in ases {
                let (ia, ib) = (t.as_index(a).unwrap(), t.as_index(b).unwrap());
                let path = t.path(ia, ib);
                assert_eq!(path.base_us, t.latency_us(a, b));
                for packet in [0, 1, 77, u64::MAX] {
                    assert_eq!(jitter_us(path.there, packet), t.jitter_us(a, b, packet));
                    assert_eq!(jitter_us(path.back, packet), t.jitter_us(b, a, packet));
                }
            }
        }
        assert_eq!(t.as_index(Asn(64512)), None);
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
