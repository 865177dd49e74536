//! Property test of [`NameList`] against a model: a `Vec` in the order
//! the world's member sets kept (append, swap-remove) and a `BTreeMap`
//! from name to value.

use proptest::prelude::*;
use ruwhere_types::{DomainName, NameList, Named};
use std::collections::BTreeMap;

/// A named item carrying a value, so replacing shows.
#[derive(Debug, Clone, PartialEq)]
struct Item {
    name: DomainName,
    value: u32,
}

impl Named for Item {
    fn name(&self) -> &DomainName {
        &self.name
    }
}

/// The flat labels of key `k`, one to three deep.
fn labels(k: u16) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    if k % 3 == 2 {
        out.push(b"www".to_vec());
    }
    out.push(format!("h{k}").into_bytes());
    if !k.is_multiple_of(3) {
        out.push(b"ru".to_vec());
    }
    out
}

/// The spelling of key `k`, upper-cased on odd keys: parsing lowercases
/// it, so the item is still found by the wire labels.
fn spelling(k: u16) -> DomainName {
    let joined = labels(k)
        .iter()
        .map(|l| std::str::from_utf8(l).unwrap())
        .collect::<Vec<_>>()
        .join(".");
    let text = if k % 2 == 1 {
        joined.to_ascii_uppercase()
    } else {
        joined
    };
    text.parse().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn name_list_matches_the_model(
        ops in prop::collection::vec((0u8..8, 0u16..96, any::<u32>()), 0..600),
    ) {
        let mut list: NameList<Item> = NameList::default();
        let mut order: Vec<DomainName> = Vec::new();
        let mut values: BTreeMap<DomainName, u32> = BTreeMap::new();
        for (step, &(op, k, value)) in ops.iter().enumerate() {
            let name = spelling(k);
            match op {
                // Insert or replace.
                0..=3 => {
                    let pos = list.insert(Item { name: name.clone(), value });
                    if !values.contains_key(&name) {
                        order.push(name.clone());
                    }
                    values.insert(name.clone(), value);
                    prop_assert_eq!(&order[pos], &name, "step {}", step);
                }
                // Swap-remove.
                4 | 5 => {
                    let gone = list.swap_remove(&name);
                    let want = values.remove(&name);
                    prop_assert_eq!(gone.map(|i| i.value), want, "step {}", step);
                    if let Some(at) = order.iter().position(|n| *n == name) {
                        order.swap_remove(at);
                    }
                }
                // Edit in place.
                6 => {
                    if let Some(item) = list.get_mut(&name) {
                        item.value = value;
                        values.insert(name.clone(), value);
                    }
                    prop_assert_eq!(list.get(&name).is_some(), values.contains_key(&name));
                }
                // Clear, rarely.
                _ if value.is_multiple_of(16) => {
                    list.clear();
                    order.clear();
                    values.clear();
                }
                _ => {}
            }
            let names: Vec<&DomainName> = list.items().iter().map(|i| &i.name).collect();
            prop_assert_eq!(names, order.iter().collect::<Vec<_>>(), "step {}", step);
            prop_assert_eq!(list.len(), values.len());
            prop_assert_eq!(list.is_empty(), values.is_empty());
        }
        for k in 0..96u16 {
            let name = spelling(k);
            let wire = labels(k);
            let by_labels = list.position(wire.iter().map(Vec::as_slice));
            prop_assert_eq!(by_labels, order.iter().position(|n| *n == name), "key {}", k);
            prop_assert_eq!(list.get(&name).map(|i| i.value), values.get(&name).copied());
        }
        let items = list.into_items();
        prop_assert_eq!(items.len(), order.len());
        for item in items {
            prop_assert_eq!(Some(&item.value), values.get(&item.name));
        }
    }
}

#[test]
fn labels_split_differently_are_different_names() {
    let mut list: NameList<DomainName> = NameList::default();
    list.insert("a.b.ru".parse::<DomainName>().unwrap());
    let joined: [&[u8]; 2] = [b"a.b", b"ru"];
    assert_eq!(list.position(joined), None);
    let split: [&[u8]; 3] = [b"a", b"b", b"ru"];
    assert_eq!(list.position(split), Some(0));
    assert_eq!(list.position(std::iter::empty()), None);
    let empty_first: [&[u8]; 4] = [b"", b"a", b"b", b"ru"];
    assert_eq!(list.position(empty_first), None);
}
