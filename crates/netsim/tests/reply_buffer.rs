//! The reply-buffer contract of [`Transport::request`]: a client may keep
//! one buffer for every exchange. Reusing it must not change anything a
//! fresh buffer per call would see — the reply bytes of every successful
//! exchange, every error, the clock and the counters — through a mix of
//! replies of different lengths, loss, a silent server, a reply that
//! lands past its deadline, an unbound port and an unrouted source.

use ruwhere_netsim::{AsInfo, NetError, Network, Service, SimTime, Topology, Transport};
use ruwhere_types::{Asn, Country, SeedTree};
use std::net::Ipv4Addr;

/// Replies with the payload repeated `payload[0]` times, so consecutive
/// replies differ in length and a stale tail would show.
struct Repeat;
impl Service for Repeat {
    fn handle(&self, p: &[u8], _s: (Ipv4Addr, u16), _n: SimTime, out: &mut Vec<u8>) -> bool {
        for _ in 0..p.first().copied().unwrap_or(1) {
            out.extend_from_slice(p);
        }
        true
    }
}

/// Writes a reply, then stays silent: a transport must not deliver it.
struct Silent;
impl Service for Silent {
    fn handle(&self, p: &[u8], _s: (Ipv4Addr, u16), _n: SimTime, out: &mut Vec<u8>) -> bool {
        out.extend_from_slice(p);
        false
    }
}

/// Answers after longer than any attempt waits.
struct Slow;
impl Service for Slow {
    fn handle(&self, p: &[u8], _s: (Ipv4Addr, u16), _n: SimTime, out: &mut Vec<u8>) -> bool {
        out.extend_from_slice(p);
        true
    }
    fn processing_us(&self) -> u64 {
        5_000_000
    }
}

const CLIENT: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const UNROUTED: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 9);
const TARGETS: [(Ipv4Addr, u16); 4] = [
    (Ipv4Addr::new(192, 0, 2, 1), 53),
    (Ipv4Addr::new(192, 0, 2, 2), 53),
    (Ipv4Addr::new(192, 0, 2, 3), 53),
    (Ipv4Addr::new(192, 0, 2, 1), 80),
];

fn network() -> Network {
    let mut topo = Topology::new(SeedTree::new(4).child("topo"));
    for (asn, country, prefix) in [
        (100, Country::NL, "10.0.0.0/8"),
        (200, Country::RU, "192.0.2.0/24"),
    ] {
        topo.add_as(AsInfo {
            asn: Asn(asn),
            org: format!("AS{asn}"),
            country,
        });
        topo.announce(prefix.parse().unwrap(), Asn(asn));
    }
    let mut net = Network::new(topo, SeedTree::new(4).child("net"));
    net.loss_rate = 0.25;
    net.bind(TARGETS[0].0, TARGETS[0].1, Box::new(Repeat));
    net.bind(TARGETS[1].0, TARGETS[1].1, Box::new(Silent));
    net.bind(TARGETS[2].0, TARGETS[2].1, Box::new(Slow));
    net
}

/// The request mix: (source, target, payload).
fn calls() -> Vec<(Ipv4Addr, (Ipv4Addr, u16), Vec<u8>)> {
    (0..120u8)
        .map(|i| {
            let src = if i % 11 == 5 { UNROUTED } else { CLIENT };
            // Every other call goes to the answering service.
            let target = TARGETS[if i % 2 == 0 {
                0
            } else {
                usize::from(i / 2) % 4
            }];
            (src, target, vec![1 + i % 5, i])
        })
        .collect()
}

/// One exchange's observable outcome.
type Outcome = (Result<Vec<u8>, NetError>, SimTime);

fn run<T: Transport>(net: &mut T, reuse: bool) -> Vec<Outcome> {
    let mut shared = Vec::new();
    calls()
        .into_iter()
        .map(|(src, dst, payload)| {
            let mut fresh = Vec::new();
            let buf = if reuse { &mut shared } else { &mut fresh };
            let result = net
                .request(src, dst, &payload, 1_000_000, 2, buf)
                .map(|()| buf.clone());
            (result, net.now())
        })
        .collect()
}

#[test]
fn a_reused_reply_buffer_matches_a_fresh_one_per_call() {
    let (mut a, mut b) = (network(), network());
    let reused = run(&mut a, true);
    let fresh = run(&mut b, false);
    assert_eq!(reused, fresh);
    assert_eq!(a.stats(), b.stats());
    // The mix exercised every outcome.
    let stats = a.stats();
    assert!(stats.dropped > 0 && stats.unreachable > 0 && stats.delivered > 0);
    assert!(reused.iter().any(|(r, _)| r == &Err(NetError::NoRoute)));
    assert!(reused.iter().any(|(r, _)| r == &Err(NetError::Timeout)));
    let lengths: std::collections::BTreeSet<usize> = reused
        .iter()
        .filter_map(|(r, _)| r.as_ref().ok().map(Vec::len))
        .collect();
    assert!(lengths.len() > 2, "replies of one length only: {lengths:?}");
}

#[test]
fn a_reused_reply_buffer_matches_a_fresh_one_on_a_lane() {
    let net = network();
    let (mut a, mut b) = (net.lane(format_args!("k")), net.lane(format_args!("k")));
    assert_eq!(run(&mut a, true), run(&mut b, false));
    assert_eq!(a.stats(), b.stats());
}
