//! Property tests for the foundation types.

use proptest::prelude::*;
use ruwhere_types::punycode;
use ruwhere_types::{Date, DomainName, SeedTree};

/// `SeedTree::child_idx` computed the plain way: FNV-1a over all eight
/// little-endian bytes of the index, then the splitmix64 finalizer.
fn child_idx_reference(seed: u64, index: u64) -> u64 {
    const PRIME: u64 = 0x100000001b3;
    let mut h = 0xcbf29ce484222325 ^ seed.wrapping_mul(PRIME);
    for b in index.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    let mut z = h.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

#[test]
fn child_idx_matches_the_bytewise_hash_at_the_edges() {
    for index in [0, 1, 255, 256, (1 << 56) - 1, 1 << 56, u64::MAX] {
        for seed in [0, 7, u64::MAX] {
            assert_eq!(
                SeedTree::new(seed).child_idx(index).seed(),
                child_idx_reference(seed, index),
                "seed {seed}, index {index}"
            );
        }
    }
    // Pinned: every stream in the workspace hangs off these values.
    assert_eq!(SeedTree::new(7).child_idx(0).seed(), 0x3c60b7f81135c2d6);
    assert_eq!(SeedTree::new(7).child_idx(1).seed(), 0xa63c8c34d4dc79a3);
    assert_eq!(
        SeedTree::new(42).child_idx(1 << 16).seed(),
        0x210fd4c3314bb1b0
    );
    assert_eq!(
        SeedTree::new(7).child_idx(u64::MAX).seed(),
        0x425f35a02c6377c9
    );
}

proptest! {
    #[test]
    fn child_idx_matches_the_bytewise_hash(seed in any::<u64>(), raw in any::<u64>(), shift in 0u32..64) {
        // Shifting spreads the indices over every count of high zero bytes.
        for index in [raw, raw >> shift] {
            prop_assert_eq!(
                SeedTree::new(seed).child_idx(index).seed(),
                child_idx_reference(seed, index)
            );
        }
    }

    #[test]
    fn prefixed_children_equal_formatted_children(
        seed in any::<u64>(),
        head in "\\PC{0,12}",
        tail in "\\PC{0,12}",
    ) {
        let root = SeedTree::new(seed);
        prop_assert_eq!(
            root.prefix(format_args!("{head}")).child(&tail),
            root.child_fmt(format_args!("{head}{tail}"))
        );
        prop_assert_eq!(
            root.prefix(format_args!("{head}")).child(&tail),
            root.child(&format!("{head}{tail}"))
        );
    }

    #[test]
    fn date_ymd_roundtrip(days in -1_000_000i32..1_000_000) {
        let d = Date::from_days(days);
        let (y, m, dd) = d.ymd();
        prop_assert_eq!(Date::from_ymd(y, m, dd), d);
        prop_assert!((1..=12).contains(&m));
        prop_assert!((1..=31).contains(&dd));
    }

    #[test]
    fn date_display_parse_roundtrip(days in -700_000i32..700_000) {
        let d = Date::from_days(days);
        let s = d.to_string();
        prop_assert_eq!(s.parse::<Date>().unwrap(), d);
    }

    #[test]
    fn date_ordering_matches_day_count(a in -10_000i32..10_000, b in -10_000i32..10_000) {
        let (da, db) = (Date::from_days(a), Date::from_days(b));
        prop_assert_eq!(da < db, a < b);
        prop_assert_eq!(db - da, b - a);
    }

    #[test]
    fn punycode_roundtrip_cyrillic(s in "[а-яё]{1,20}") {
        let encoded = punycode::encode(&s).unwrap();
        prop_assert!(encoded.is_ascii());
        prop_assert_eq!(punycode::decode(&encoded).unwrap(), s);
    }

    #[test]
    fn punycode_roundtrip_mixed(s in "[a-zа-я0-9]{1,20}") {
        let encoded = punycode::encode(&s).unwrap();
        prop_assert_eq!(punycode::decode(&encoded).unwrap(), s);
    }

    #[test]
    fn punycode_decode_never_panics(s in "[a-z0-9-]{0,40}") {
        let _ = punycode::decode(&s);
    }

    #[test]
    fn idna_label_roundtrip(s in "[а-я]{1,15}") {
        let ascii = punycode::label_to_ascii(&s).unwrap();
        prop_assert!(ascii.starts_with("xn--"));
        prop_assert_eq!(punycode::label_to_unicode(&ascii).unwrap(), s);
    }

    #[test]
    fn domain_parse_is_idempotent(
        labels in proptest::collection::vec("[a-z0-9]{1,10}", 1..4)
    ) {
        let input = labels.join(".");
        let d1 = DomainName::parse(&input).unwrap();
        let d2 = DomainName::parse(d1.as_str()).unwrap();
        prop_assert_eq!(&d1, &d2);
        prop_assert_eq!(d1.label_count(), labels.len());
    }

    #[test]
    fn domain_unicode_form_roundtrips(sld in "[а-я]{1,12}") {
        let d = DomainName::parse(&format!("{sld}.рф")).unwrap();
        prop_assert!(d.is_russian_cctld());
        let uni = d.to_unicode();
        let reparsed = DomainName::parse(&uni).unwrap();
        prop_assert_eq!(reparsed, d);
    }

    #[test]
    fn domain_parser_never_panics(s in "\\PC{0,60}") {
        let _ = DomainName::parse(&s);
    }
}
