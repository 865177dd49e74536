//! Property tests: LPM trie against brute force; CIDR parsing.

use proptest::prelude::*;
use ruwhere_netsim::{Ipv4Net, RoutingTable};
use std::net::Ipv4Addr;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn trie_matches_bruteforce(
        inserts in proptest::collection::vec((any::<u32>(), 4u8..30), 1..120),
        probes in proptest::collection::vec(any::<u32>(), 64),
    ) {
        let mut trie = RoutingTable::new();
        let mut reference: Vec<(Ipv4Net, usize)> = Vec::new();
        for (i, (addr, len)) in inserts.iter().enumerate() {
            let net = Ipv4Net::new(Ipv4Addr::from(*addr), *len).unwrap();
            trie.insert(net, i);
            reference.retain(|(n, _)| *n != net);
            reference.push((net, i));
        }
        for p in &probes {
            let probe = Ipv4Addr::from(*p);
            let expected = reference
                .iter()
                .filter(|(n, _)| n.contains(probe))
                .max_by_key(|(n, _)| n.prefix_len())
                .map(|(_, v)| v);
            prop_assert_eq!(trie.lookup(probe), expected);
        }
    }

    #[test]
    fn trie_removal_matches_bruteforce(
        inserts in proptest::collection::vec((any::<u32>(), 4u8..24), 2..60),
        remove_idx in proptest::collection::vec(any::<prop::sample::Index>(), 1..10),
        probes in proptest::collection::vec(any::<u32>(), 32),
    ) {
        let mut trie = RoutingTable::new();
        let mut reference: Vec<(Ipv4Net, usize)> = Vec::new();
        for (i, (addr, len)) in inserts.iter().enumerate() {
            let net = Ipv4Net::new(Ipv4Addr::from(*addr), *len).unwrap();
            trie.insert(net, i);
            reference.retain(|(n, _)| *n != net);
            reference.push((net, i));
        }
        for idx in &remove_idx {
            if reference.is_empty() { break; }
            let k = idx.index(reference.len());
            let (net, _) = reference.remove(k);
            prop_assert!(trie.remove(net).is_some());
        }
        prop_assert_eq!(trie.len(), reference.len());
        for p in &probes {
            let probe = Ipv4Addr::from(*p);
            let expected = reference
                .iter()
                .filter(|(n, _)| n.contains(probe))
                .max_by_key(|(n, _)| n.prefix_len())
                .map(|(_, v)| v);
            prop_assert_eq!(trie.lookup(probe), expected);
        }
    }

    #[test]
    fn cidr_display_parse_roundtrip(addr in any::<u32>(), len in 0u8..=32) {
        let net = Ipv4Net::new(Ipv4Addr::from(addr), len).unwrap();
        let s = net.to_string();
        prop_assert_eq!(s.parse::<Ipv4Net>().unwrap(), net);
    }

    #[test]
    fn containment_is_consistent(addr in any::<u32>(), len in 0u8..=32, probe in any::<u32>()) {
        let net = Ipv4Net::new(Ipv4Addr::from(addr), len).unwrap();
        let p = Ipv4Addr::from(probe);
        // An address is contained iff its top `len` bits match.
        let mask = if len == 0 { 0 } else { u32::MAX << (32 - len) };
        prop_assert_eq!(net.contains(p), probe & mask == net.bits());
        // The network address itself is always contained.
        prop_assert!(net.contains(net.network()));
    }

    #[test]
    fn nth_stays_inside(addr in any::<u32>(), len in 8u8..=32, i in any::<u64>()) {
        let net = Ipv4Net::new(Ipv4Addr::from(addr), len).unwrap();
        match net.nth(i) {
            Some(ip) => prop_assert!(net.contains(ip)),
            None => prop_assert!(i >= net.size()),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The reply leg of an exchange reuses the request leg's base latency,
    /// which is sound only because the AS-pair latency is symmetric.
    #[test]
    fn latency_is_symmetric(
        seed in any::<u64>(),
        ases in proptest::collection::vec((any::<u32>(), any::<bool>()), 1..8),
        registered in proptest::collection::vec(any::<bool>(), 8),
    ) {
        use ruwhere_netsim::{AsInfo, Topology};
        use ruwhere_types::{Asn, Country, SeedTree};
        let mut topo = Topology::new(SeedTree::new(seed));
        for (i, &(asn, ru)) in ases.iter().enumerate() {
            // Some ASes stay unregistered: latency must not need them to be.
            if registered[i] {
                topo.add_as(AsInfo {
                    asn: Asn(asn),
                    org: format!("AS{asn}"),
                    country: if ru { Country::RU } else { Country::NL },
                });
            }
        }
        for &(a, _) in &ases {
            for &(b, _) in &ases {
                prop_assert_eq!(
                    topo.latency_us(Asn(a), Asn(b)),
                    topo.latency_us(Asn(b), Asn(a))
                );
            }
        }
    }
}
