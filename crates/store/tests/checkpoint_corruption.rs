//! Property tests for the durable checkpoint format: any truncation and
//! any single flipped bit must decode to a typed [`CheckpointError`] —
//! never a panic, never silently-wrong data. Both kinds of segment are
//! covered: keyframes, and scripts over the previous day's frame, which
//! must also reject a base of the wrong length and a script that runs
//! past its base's end.

use proptest::prelude::*;
use ruwhere_store::checkpoint::{
    crc32, decode_segment, encode_segment, CheckpointError, DayCheckpoint, InternerDelta,
    TableSizes,
};
use ruwhere_store::{
    Completeness, CountrySym, FrameBuilder, SweepFrame, SweepMetrics, SweepStats, Sym,
};
use ruwhere_types::{Asn, Country, Date, DomainName};
use std::net::Ipv4Addr;

fn d(s: &str) -> DomainName {
    s.parse().expect("test domain")
}

/// An arbitrary but structurally valid day checkpoint, drawn from small
/// pools so symbol sharing and empty records both occur.
fn arb_checkpoint() -> impl Strategy<Value = DayCheckpoint> {
    let rec = (
        0u32..40,
        proptest::collection::vec(40u32..60, 0..3),
        proptest::collection::vec((0u8..30, 0u32..4, 0u32..4), 0..3),
        proptest::collection::vec((0u8..30, 0u32..4, 0u32..4), 0..2),
    );
    (
        0u32..500,
        0u64..10_000_000_000,
        proptest::collection::vec((0u8..20, 0u8..4), 0..6),
        proptest::collection::vec(0u8..4, 0..3),
        proptest::collection::vec(rec, 0..8),
        any::<bool>(),
        0u64..1_000,
    )
        .prop_map(
            |(day_index, clock, names, countries, records, partial, stat_seed)| {
                let tlds = ["ru", "com", "su", "xn--p1ai"];
                let cs = [Country::RU, Country::US, Country::SE, Country::DE];
                let date = Date::from_ymd(2022, 1, 1).add_days(day_index as i32);
                let base = TableSizes {
                    names: 10,
                    tlds: 2,
                    countries: 1,
                };
                let delta_names: Vec<DomainName> = names
                    .iter()
                    .enumerate()
                    .map(|(i, (n, t))| d(&format!("d{n}x{i}.{}", tlds[*t as usize % 4])))
                    .collect();
                let delta_countries: Vec<Country> =
                    countries.iter().map(|&c| cs[c as usize % 4]).collect();
                let mut b = FrameBuilder::new(date);
                for (dom, nss, ns_addrs, apex_addrs) in &records {
                    b.begin_record(Sym(*dom));
                    for &s in nss {
                        b.push_ns_name(Sym(s));
                    }
                    for &(ip, c, a) in ns_addrs {
                        let country = if c == 0 {
                            CountrySym::NONE
                        } else {
                            CountrySym(c)
                        };
                        let asn = if a == 0 { None } else { Some(Asn(a)) };
                        b.push_ns_addr(Ipv4Addr::new(10, 1, 0, ip), country, asn);
                    }
                    for &(ip, c, a) in apex_addrs {
                        let country = if c == 0 {
                            CountrySym::NONE
                        } else {
                            CountrySym(c)
                        };
                        let asn = if a == 0 { None } else { Some(Asn(a)) };
                        b.push_apex_addr(Ipv4Addr::new(10, 2, 0, ip), country, asn);
                    }
                    b.end_record();
                }
                let frame: SweepFrame = b.finish(
                    SweepStats {
                        seeded: records.len() as u64,
                        queries: stat_seed * 7,
                        timeouts: stat_seed % 5,
                        shards_retried: stat_seed % 2,
                        completeness: if partial {
                            Completeness::Partial
                        } else {
                            Completeness::Full
                        },
                        ..SweepStats::default()
                    },
                    SweepMetrics::new(),
                );
                DayCheckpoint {
                    day_index,
                    date,
                    net_clock_us: clock,
                    interner: InternerDelta {
                        base,
                        post: TableSizes {
                            names: base.names + delta_names.len() as u32,
                            tlds: base.tlds + 1,
                            countries: base.countries + delta_countries.len() as u32,
                        },
                        names: delta_names,
                        countries: delta_countries,
                    },
                    frame,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Encode → decode is the identity, fingerprint included.
    #[test]
    fn segments_round_trip(ck in arb_checkpoint(), fp in any::<u64>()) {
        let bytes = encode_segment(&ck, fp, None);
        let (back, got_fp) = decode_segment(&bytes, None).expect("valid segment must decode");
        prop_assert_eq!(back, ck);
        prop_assert_eq!(got_fp, fp);
    }

    /// Truncation at EVERY byte offset yields a typed error; only the
    /// full length decodes. Exercises torn-write detection exhaustively
    /// per generated segment.
    #[test]
    fn truncation_at_every_offset_is_typed(ck in arb_checkpoint()) {
        let bytes = encode_segment(&ck, 42, None);
        for cut in 0..bytes.len() {
            match decode_segment(&bytes[..cut], None) {
                Err(
                    CheckpointError::Truncated { .. }
                    | CheckpointError::BadMagic
                    | CheckpointError::BadChecksum { .. },
                ) => {}
                other => prop_assert!(false, "cut at {}: got {:?}", cut, other),
            }
        }
        prop_assert!(decode_segment(&bytes, None).is_ok());
    }

    /// Flipping any single bit anywhere in the segment is detected:
    /// decode returns a typed error (magic, length, body and checksum
    /// bytes are all covered by magic check + CRC32 + strict structural
    /// validation). It must never panic and never return Ok with
    /// different content.
    #[test]
    fn single_bit_corruption_is_detected(
        ck in arb_checkpoint(),
        pos_seed in any::<usize>(),
        bit in 0u8..8,
    ) {
        let bytes = encode_segment(&ck, 42, None);
        let pos = pos_seed % bytes.len();
        let mut bad = bytes.clone();
        bad[pos] ^= 1 << bit;
        match decode_segment(&bad, None) {
            Err(_) => {}
            Ok((back, fp)) => {
                // The only tolerable Ok is exact equality, which a real
                // bit flip precludes — so this must never happen.
                prop_assert!(
                    back == ck && fp == 42,
                    "flip at byte {} bit {} decoded to different content",
                    pos,
                    bit
                );
                prop_assert!(false, "flip at byte {} bit {} went undetected", pos, bit);
            }
        }
    }
}

/// What happens to a base row in the next day's frame; anything else
/// keeps it.
const DROP: u8 = 1;
const CHANGE: u8 = 2;
const INSERT_AFTER: u8 = 3;

/// Copy record `i` of `f` into `b`, with its apex addresses replaced by
/// `apex` when given.
fn push_record(b: &mut FrameBuilder, f: &SweepFrame, i: usize, apex: Option<Ipv4Addr>) {
    let r = f.record(i);
    b.begin_record(r.domain_sym());
    for &s in r.ns_name_syms() {
        b.push_ns_name(s);
    }
    let ns = r.ns_addrs();
    for k in 0..ns.len() {
        b.push_ns_addr(ns.ips()[k], ns.countries()[k], ns.asns()[k]);
    }
    match apex {
        Some(ip) => b.push_apex_addr(ip, CountrySym(1), Some(Asn(9))),
        None => {
            let a = r.apex_addrs();
            for k in 0..a.len() {
                b.push_apex_addr(a.ips()[k], a.countries()[k], a.asns()[k]);
            }
        }
    }
    b.end_record();
}

/// The first `rows` records of `f`.
fn prefix(f: &SweepFrame, rows: usize) -> SweepFrame {
    let mut b = FrameBuilder::new(f.date);
    for i in 0..rows {
        push_record(&mut b, f, i, None);
    }
    b.finish(f.stats, SweepMetrics::new())
}

/// A base day and the next one, derived from it by keeping, dropping,
/// changing and inserting rows — a delta segment's two frames.
fn arb_day_pair() -> impl Strategy<Value = (DayCheckpoint, DayCheckpoint)> {
    (
        arb_checkpoint(),
        proptest::collection::vec(0u8..4, 8),
        0u64..1_000,
    )
        .prop_map(|(base, actions, queries)| {
            let f = &base.frame;
            let date = base.date.succ();
            let mut b = FrameBuilder::new(date);
            for i in 0..f.len() {
                match actions[i % actions.len()] {
                    DROP => {}
                    CHANGE => push_record(&mut b, f, i, Some(Ipv4Addr::new(10, 3, 0, i as u8))),
                    action => {
                        push_record(&mut b, f, i, None);
                        if action == INSERT_AFTER {
                            b.begin_record(Sym(100 + i as u32));
                            b.push_ns_name(Sym(41));
                            b.end_record();
                        }
                    }
                }
            }
            let post = base.interner.post;
            let next = DayCheckpoint {
                day_index: base.day_index + 1,
                date,
                net_clock_us: base.net_clock_us + 1,
                interner: InternerDelta {
                    base: post,
                    post,
                    names: Vec::new(),
                    countries: Vec::new(),
                },
                frame: b.finish(
                    SweepStats {
                        queries,
                        ..SweepStats::default()
                    },
                    SweepMetrics::new(),
                ),
            };
            (base, next)
        })
}

/// `bytes` with the meta section's base row count (its last four body
/// bytes) set to `rows` and its checksum recomputed: a segment whose
/// checksums all hold but whose script claims another base.
fn with_base_rows(bytes: &[u8], rows: u32) -> Vec<u8> {
    let mut out = bytes.to_vec();
    let len = u32::from_le_bytes(out[8..12].try_into().expect("meta length")) as usize;
    let body = 12..12 + len;
    out[body.end - 4..body.end].copy_from_slice(&rows.to_le_bytes());
    let crc = crc32(&out[body.clone()]);
    out[body.end..body.end + 4].copy_from_slice(&crc.to_le_bytes());
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A delta segment rebuilds the next frame over its base exactly.
    #[test]
    fn delta_segments_round_trip(pair in arb_day_pair(), fp in any::<u64>()) {
        let (base, next) = pair;
        let bytes = encode_segment(&next, fp, Some(&base.frame));
        let (back, got_fp) =
            decode_segment(&bytes, Some(&base.frame)).expect("valid delta must decode");
        prop_assert_eq!(back, next.clone());
        prop_assert_eq!(got_fp, fp);
    }

    /// Truncating a delta segment at every offset is a typed error.
    #[test]
    fn delta_truncation_at_every_offset_is_typed(pair in arb_day_pair()) {
        let (base, next) = pair;
        let bytes = encode_segment(&next, 42, Some(&base.frame));
        for cut in 0..bytes.len() {
            match decode_segment(&bytes[..cut], Some(&base.frame)) {
                Err(
                    CheckpointError::Truncated { .. }
                    | CheckpointError::BadMagic
                    | CheckpointError::BadChecksum { .. },
                ) => {}
                other => prop_assert!(false, "cut at {}: got {:?}", cut, other),
            }
        }
    }

    /// Any single flipped bit in a delta segment is detected.
    #[test]
    fn delta_bit_corruption_is_detected(
        pair in arb_day_pair(),
        pos_seed in any::<usize>(),
        bit in 0u8..8,
    ) {
        let (base, next) = pair;
        let bytes = encode_segment(&next, 42, Some(&base.frame));
        let pos = pos_seed % bytes.len();
        let mut bad = bytes;
        bad[pos] ^= 1 << bit;
        prop_assert!(
            decode_segment(&bad, Some(&base.frame)).is_err(),
            "flip at byte {} bit {} went undetected",
            pos,
            bit
        );
    }

    /// A delta over a base of another length — or over none — is a
    /// broken chain, whatever the script says.
    #[test]
    fn a_base_of_another_length_is_a_broken_chain(
        pair in arb_day_pair(),
        extra in 1usize..3,
    ) {
        let (base, next) = pair;
        let bytes = encode_segment(&next, 42, Some(&base.frame));
        let mut longer = base.frame.clone();
        for _ in 0..extra {
            longer = {
                let mut b = FrameBuilder::new(longer.date);
                for i in 0..longer.len() {
                    push_record(&mut b, &longer, i, None);
                }
                b.begin_record(Sym(7));
                b.end_record();
                b.finish(longer.stats, SweepMetrics::new())
            };
        }
        let shorter = (!base.frame.is_empty()).then(|| prefix(&base.frame, base.frame.len() - 1));
        for wrong in [None, Some(&longer), shorter.as_ref()] {
            if wrong.is_none() && shorter.is_none() {
                continue;
            }
            match decode_segment(&bytes, wrong) {
                Err(CheckpointError::ChainBroken { .. }) => {}
                other => prop_assert!(false, "base of {:?} rows: got {:?}", wrong.map(SweepFrame::len), other),
            }
        }
    }

    /// A script whose copy or skip runs past its base's end — the meta's
    /// base row count, with every checksum valid, says one row less than
    /// the script consumes — is malformed, never a panic.
    #[test]
    fn a_script_past_its_base_is_malformed(pair in arb_day_pair()) {
        let (base, next) = pair;
        prop_assume!(!base.frame.is_empty());
        let rows = base.frame.len() - 1;
        let bytes = with_base_rows(&encode_segment(&next, 42, Some(&base.frame)), rows as u32);
        let short = prefix(&base.frame, rows);
        match decode_segment(&bytes, Some(&short)) {
            Err(CheckpointError::Malformed { section: "frame", detail }) => {
                prop_assert!(detail.contains("passes the base's end"), "{}", detail);
            }
            other => prop_assert!(false, "got {:?}", other),
        }
    }
}
