//! Bailiwick hardening: the resolver must discard additional-section
//! records that do not belong to the referral's NS targets (the classic
//! cache-poisoning vector) — and the trace facility must expose what
//! happened.

use ruwhere_authdns::{AuthServer, IterativeResolver, RootHint, TraceEvent, ZoneSet};
use ruwhere_dns::{Message, Name, RData, RType, Rcode, Record, SoaData, Zone};
use ruwhere_netsim::{AsInfo, Network, Service, SimTime, Topology};
use ruwhere_types::sync::{read, write};
use ruwhere_types::{Asn, Country, SeedTree};
use std::net::Ipv4Addr;
use std::sync::{Arc, RwLock};

const ROOT_IP: Ipv4Addr = Ipv4Addr::new(198, 41, 0, 4);
const POISONER_IP: Ipv4Addr = Ipv4Addr::new(193, 232, 128, 6);
const REAL_NS_IP: Ipv4Addr = Ipv4Addr::new(194, 85, 61, 20);
const HONEYPOT_IP: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 66);
const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(130, 89, 1, 1);

fn name(s: &str) -> Name {
    s.parse().unwrap()
}

fn soa() -> SoaData {
    SoaData {
        mname: name("ns.op.invalid"),
        rname: name("host.op.invalid"),
        serial: 1,
        refresh: 1,
        retry: 1,
        expire: 1,
        minimum: 60,
    }
}

/// A TLD server whose referrals carry a poisoned additional section: the
/// legitimate glue for `ns1.example.ru` plus an unrelated A record that
/// tries to draw the resolver to a honeypot address.
struct PoisoningTld;

impl Service for PoisoningTld {
    fn handle(&self, payload: &[u8], _s: (Ipv4Addr, u16), _n: SimTime, out: &mut Vec<u8>) -> bool {
        let Ok(query) = Message::decode(payload) else {
            return false;
        };
        let mut resp = Message::response_to(&query, Rcode::NoError);
        resp.flags.aa = false;
        resp.authorities.push(Record::new(
            name("example.ru"),
            3600,
            RData::Ns(name("ns1.example.ru")),
        ));
        // Legitimate in-bailiwick glue.
        resp.additionals.push(Record::new(
            name("ns1.example.ru"),
            3600,
            RData::A(REAL_NS_IP),
        ));
        // Poison: an additional record for a name that is NOT an NS target.
        resp.additionals.push(Record::new(
            name("www.victim-bank.ru"),
            3600,
            RData::A(HONEYPOT_IP),
        ));
        // Poison variant: extra A record for an unrelated host name.
        resp.additionals.push(Record::new(
            name("evil.attacker.com"),
            3600,
            RData::A(HONEYPOT_IP),
        ));
        match resp.encode() {
            Ok(bytes) => {
                out.extend_from_slice(&bytes);
                true
            }
            Err(_) => false,
        }
    }
}

/// Records whether anyone ever talks to the honeypot.
struct Honeypot(Arc<RwLock<u64>>);

impl Service for Honeypot {
    fn handle(&self, _p: &[u8], _s: (Ipv4Addr, u16), _n: SimTime, _o: &mut Vec<u8>) -> bool {
        *write(&self.0) += 1;
        false
    }
}

fn build() -> (Network, IterativeResolver, Arc<RwLock<u64>>) {
    let mut topo = Topology::new(SeedTree::new(3).child("topo"));
    for (asn, cc, net) in [
        (Asn(1), Country::US, "198.41.0.0/24"),
        (Asn(2), Country::RU, "193.232.128.0/24"),
        (Asn(3), Country::RU, "194.85.0.0/16"),
        (Asn(4), Country::US, "203.0.113.0/24"),
        (Asn(5), Country::NL, "130.89.0.0/16"),
    ] {
        topo.add_as(AsInfo {
            asn,
            org: format!("AS{}", asn.value()),
            country: cc,
        });
        topo.announce(net.parse().unwrap(), asn);
    }
    let mut net = Network::new(topo, SeedTree::new(3).child("net"));

    // Root delegating .ru to the poisoning TLD server.
    let mut root = Zone::new(Name::root(), soa(), 86400);
    root.add(Record::new(
        name("ru"),
        86400,
        RData::Ns(name("a.dns.ripn.net")),
    ));
    root.add(Record::new(
        name("a.dns.ripn.net"),
        86400,
        RData::A(POISONER_IP),
    ));
    let mut zs = ZoneSet::new();
    zs.insert(root);
    net.bind(
        ROOT_IP,
        53,
        Box::new(AuthServer::new(Arc::new(RwLock::new(zs)))),
    );

    net.bind(POISONER_IP, 53, Box::new(PoisoningTld));

    // The legitimate authoritative server.
    let mut example = Zone::new(name("example.ru"), soa(), 3600);
    example.add(Record::new(
        name("example.ru"),
        300,
        RData::A("194.85.90.10".parse().unwrap()),
    ));
    let mut zs = ZoneSet::new();
    zs.insert(example);
    net.bind(
        REAL_NS_IP,
        53,
        Box::new(AuthServer::new(Arc::new(RwLock::new(zs)))),
    );

    // Honeypot listening where the poison points.
    let hits = Arc::new(RwLock::new(0u64));
    net.bind(HONEYPOT_IP, 53, Box::new(Honeypot(Arc::clone(&hits))));

    let resolver = IterativeResolver::new(
        CLIENT_IP,
        vec![RootHint {
            name: name("a.root-servers.invalid"),
            addr: ROOT_IP,
        }],
    );
    (net, resolver, hits)
}

#[test]
fn poisoned_glue_is_discarded_and_honeypot_never_contacted() {
    let (mut net, mut resolver, hits) = build();
    resolver.enable_trace();
    let res = resolver
        .resolve(&mut net, &name("example.ru"), RType::A)
        .expect("resolution succeeds through legitimate glue");
    assert_eq!(
        res.addresses(),
        vec!["194.85.90.10".parse::<Ipv4Addr>().unwrap()]
    );
    assert_eq!(*read(&hits), 0, "the honeypot must never be queried");

    // The trace shows the referral with exactly one accepted glue record
    // and two rejected.
    let trace = resolver.take_trace();
    let referral = trace
        .iter()
        .find_map(|e| match e {
            TraceEvent::Referral {
                cut,
                glue,
                rejected_glue,
            } if *cut == name("example.ru") => Some((*glue, *rejected_glue)),
            _ => None,
        })
        .expect("referral recorded");
    assert_eq!(referral, (1, 2));
    // No query in the trace ever targeted the honeypot.
    assert!(trace.iter().all(|e| !matches!(
        e,
        TraceEvent::Query { server, .. } if *server == HONEYPOT_IP
    )));
    // Terminal outcome recorded.
    assert!(matches!(trace.last(), Some(TraceEvent::Done { .. })));
}

#[test]
fn trace_structure_of_a_clean_walk() {
    let (mut net, mut resolver, _) = build();
    resolver.enable_trace();
    let _ = resolver.resolve(&mut net, &name("example.ru"), RType::A);
    let trace = resolver.take_trace();
    // Query(root) → Referral(ru…) happens via the poisoning TLD, then the
    // final auth query. At minimum: 3 queries, 1+ referral, 1 done.
    let queries = trace
        .iter()
        .filter(|e| matches!(e, TraceEvent::Query { .. }))
        .count();
    assert!(queries >= 3, "expected a full walk, got {queries} queries");
    assert!(trace
        .iter()
        .any(|e| matches!(e, TraceEvent::Referral { .. })));
    // take_trace resets.
    assert!(resolver.take_trace().is_empty());
}
