//! Canonical order of a hashed zone: `iter()`, `delegations()` and
//! `to_text()` must list owners exactly as a `BTreeMap` keyed by `Name`
//! would, whatever order the records went in.

use proptest::prelude::*;
use ruwhere_dns::{Name, RData, RType, Record, SoaData, Zone};
use std::collections::BTreeMap;

/// Labels chosen for collisions and for the label-length trap: `b` sorts
/// after `aa` label by label, but `b.` sorts before `aa.` by wire bytes
/// (its length octet is smaller). Uppercase spellings fold to lowercase.
const LABELS: [&str; 8] = ["a", "b", "aa", "B", "AA", "ab", "ns1", "x-y"];

fn name(s: &str) -> Name {
    s.parse().unwrap()
}

fn soa() -> SoaData {
    SoaData {
        mname: name("a.dns.ripn.net"),
        rname: name("hostmaster.ripn.net"),
        serial: 7,
        refresh: 86_400,
        retry: 14_400,
        expire: 2_592_000,
        minimum: 3_600,
    }
}

/// An owner at or under `ru.`: zero to three labels from [`LABELS`].
fn arb_owner() -> impl Strategy<Value = Name> {
    prop::collection::vec(0..LABELS.len(), 0..=3).prop_map(|picks| {
        let mut text: String = picks.iter().map(|&i| format!("{}.", LABELS[i])).collect();
        text.push_str("ru");
        name(&text)
    })
}

fn arb_record() -> impl Strategy<Value = Record> {
    (arb_owner(), 0u8..4, any::<u8>(), arb_owner()).prop_map(|(owner, kind, byte, target)| {
        let data = match kind {
            0 => RData::Ns(target),
            1 => RData::A([192, 0, 2, byte].into()),
            2 => RData::Mx(u16::from(byte), target),
            _ => RData::Cname(target),
        };
        Record::new(owner, 300, data)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn hashed_zone_reads_in_canonical_order(records in prop::collection::vec(arb_record(), 0..40)) {
        let origin = name("ru");
        let mut zone = Zone::new(origin.clone(), soa(), 86_400);
        let mut reference: BTreeMap<Name, Vec<Record>> = BTreeMap::new();
        for r in &records {
            prop_assert!(zone.add(r.clone()));
            reference.entry(r.name.clone()).or_default().push(r.clone());
        }

        let iterated: Vec<&Record> = zone.iter().collect();
        let expected: Vec<&Record> = reference.values().flatten().collect();
        prop_assert_eq!(iterated, expected);

        let delegations: Vec<&Name> = zone.delegations().collect();
        let expected: Vec<&Name> = reference
            .iter()
            .filter(|(owner, recs)| {
                **owner != origin && recs.iter().any(|r| r.data.rtype() == RType::Ns)
            })
            .map(|(owner, _)| owner)
            .collect();
        prop_assert_eq!(delegations, expected);

        let mut text = format!("$ORIGIN ru.\n{}\n", zone.soa_record());
        for r in reference.values().flatten() {
            text.push_str(&format!("{r}\n"));
        }
        prop_assert_eq!(zone.to_text(), text);
    }
}
