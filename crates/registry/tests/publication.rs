//! Publication oracle: a zone kept current with
//! `Registry::publish_changes` must equal what a full rebuild gives,
//! `zone_snapshot(date)`, after every publish, whatever sequence of
//! registry changes came before.

use proptest::prelude::*;
use ruwhere_registry::{Delegation, Registry};
use ruwhere_types::{Date, DomainName};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// Second-level names the operations draw from, including an IDN one.
const NAMES: [&str; 6] = ["a.ru", "b.ru", "aa.ru", "ns1.ru", "zz.ru", "пример.ru"];

fn d(s: &str) -> DomainName {
    s.parse().unwrap()
}

#[derive(Debug, Clone)]
enum Op {
    Register {
        name: usize,
        years: u32,
    },
    Renew {
        name: usize,
        years: u32,
    },
    Delete {
        name: usize,
    },
    /// Name-server hosts and glue hosts picked by bit masks over
    /// [`hosts`]; `addr` seeds the glue addresses.
    SetDelegation {
        name: usize,
        ns: u8,
        glue: u8,
        addr: u8,
    },
    Expire,
    Publish {
        days: i32,
    },
}

/// Host choices for a delegation of `name`: the first three are in its
/// bailiwick (the name itself among them), the rest are not and may only
/// appear as name servers.
fn hosts(name: &DomainName) -> Vec<DomainName> {
    let mut v = vec![
        name.clone(),
        name.prepend("ns1").unwrap(),
        name.prepend("sub").unwrap().prepend("ns2").unwrap(),
    ];
    v.push(d("ns.hoster.com"));
    v.push(d(NAMES[0]).prepend("ns").unwrap());
    v
}

fn delegation(name: &DomainName, ns: u8, glue: u8, addr: u8) -> Delegation {
    let hosts = hosts(name);
    let picked = |mask: u8, within: usize| {
        hosts
            .iter()
            .take(within)
            .enumerate()
            .filter(move |(i, _)| mask & (1 << i) != 0)
            .map(|(_, h)| h.clone())
    };
    let glue: BTreeMap<DomainName, Vec<Ipv4Addr>> = picked(glue, 3)
        .enumerate()
        .map(|(i, host)| {
            let n = 1 + (addr as usize + i) % 2;
            let addrs = (0..n)
                .map(|k| Ipv4Addr::new(198, 51, 100, addr.wrapping_add(k as u8)))
                .collect();
            (host, addrs)
        })
        .collect();
    Delegation {
        nameservers: picked(ns, hosts.len()).collect(),
        glue,
    }
}

fn arb_set_delegation() -> impl Strategy<Value = Op> {
    (0..NAMES.len(), any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(name, ns, glue, addr)| {
        Op::SetDelegation {
            name,
            ns,
            glue,
            addr,
        }
    })
}

fn arb_op() -> impl Strategy<Value = Op> {
    let name = 0..NAMES.len();
    prop_oneof![
        (name.clone(), 1u32..3).prop_map(|(name, years)| Op::Register { name, years }),
        (name.clone(), 1u32..3).prop_map(|(name, years)| Op::Renew { name, years }),
        name.prop_map(|name| Op::Delete { name }),
        // Delegation changes drive the glue edits: draw them twice as often.
        arb_set_delegation(),
        arb_set_delegation(),
        Just(Op::Expire),
        (0i32..400).prop_map(|days| Op::Publish { days }),
    ]
}

/// Assert that the published zone matches the live registry.
fn check(live: &Registry, zone: &ruwhere_dns::Zone, date: Date) {
    let snapshot = live.zone_snapshot(date);
    assert_eq!(zone, &snapshot);
    assert_eq!(zone.to_text(), snapshot.to_text());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn in_place_publication_equals_a_full_rebuild(
        before in prop::collection::vec(arb_op(), 0..8),
        after in prop::collection::vec(arb_op(), 1..60),
    ) {
        let mut live = Registry::new(d("ru"));
        let mut date = Date::from_ymd(2021, 11, 1);
        let apply = |live: &mut Registry, op: &Op, date: Date| {
            let name = |i: usize| d(NAMES[i]);
            match *op {
                Op::Register { name: i, years } => {
                    let _ = live.register(name(i), date, years);
                }
                Op::Renew { name: i, years } => {
                    let _ = live.renew(&name(i), years);
                }
                Op::Delete { name: i } => {
                    let _ = live.delete(&name(i));
                }
                Op::SetDelegation { name: i, ns, glue, addr } => {
                    let n = name(i);
                    let _ = live.set_delegation(&n, delegation(&n, ns, glue, addr));
                }
                Op::Expire => {
                    live.process_expirations(date);
                }
                Op::Publish { .. } => {}
            }
        };

        // Changes before the first publish are covered by its snapshot.
        for op in &before {
            apply(&mut live, op, date);
        }
        let mut zone = live.zone_snapshot(date);
        live.record_changes();
        check(&live, &zone, date);

        for op in &after {
            if let Op::Publish { days } = *op {
                date = date.add_days(days);
                live.publish_changes(date, &mut zone);
                check(&live, &zone, date);
            } else {
                apply(&mut live, op, date);
            }
        }
        live.publish_changes(date, &mut zone);
        check(&live, &zone, date);
    }
}
