//! Property tests on analysis invariants: whatever the measurement data
//! looks like, the classifications must partition, percentages must add
//! up, and movement accounting must conserve domains.

use proptest::prelude::*;
use ruwhere_core::composition::{classify_record_view, Composition, CompositionSeries, InfraKind};
use ruwhere_core::movement::{Movement, MovementReport};
use ruwhere_core::{AsnShareSeries, FrameObserver};
use ruwhere_store::{FrameFixture, Interner, SweepFrame, SweepStats};
use ruwhere_types::{Asn, Country, Date};
use std::net::Ipv4Addr;

const COUNTRIES: [Option<&str>; 5] = [Some("RU"), Some("US"), Some("DE"), Some("SE"), None];

/// One drawn record, named `prop-<position>.ru`: NS and apex address
/// counts plus seeds for their countries and ASNs.
#[derive(Debug, Clone)]
struct RecSpec {
    n_ns: usize,
    n_apex: usize,
    cc_seed: usize,
    asn_seed: u32,
}

fn arb_sweep() -> impl Strategy<Value = Vec<RecSpec>> {
    proptest::collection::vec(
        (0usize..4, 0usize..3, any::<usize>(), 0u32..6).prop_map(
            |(n_ns, n_apex, cc_seed, asn_seed)| RecSpec {
                n_ns,
                n_apex,
                cc_seed,
                asn_seed,
            },
        ),
        1..40,
    )
}

fn addr(i: usize, cc_idx: usize, asn: u32) -> (Ipv4Addr, Option<Country>, Option<Asn>) {
    (
        Ipv4Addr::new(10, (asn % 256) as u8, i as u8, 1),
        COUNTRIES[cc_idx % COUNTRIES.len()].map(|c| c.parse().unwrap()),
        (asn != 0).then_some(Asn(asn)),
    )
}

fn frame(interner: &Interner, date: Date, specs: &[RecSpec]) -> SweepFrame {
    let mut f = FrameFixture::new(date, interner);
    for (idx, r) in specs.iter().enumerate() {
        f.domain(&format!("prop-{idx}.ru"));
        for i in 0..r.n_ns {
            f.ns(&format!("ns{i}.prop-{idx}.ru"));
            let (ip, cc, asn) = addr(i, r.cc_seed.wrapping_add(i), r.asn_seed + i as u32);
            f.ns_addr(ip, cc, asn);
        }
        for i in 0..r.n_apex {
            let cc_idx = r.cc_seed.wrapping_mul(3).wrapping_add(i);
            let (ip, cc, asn) = addr(i + 8, cc_idx, r.asn_seed * 2 + i as u32);
            f.apex_addr(ip, cc, asn);
        }
    }
    f.finish(SweepStats::default())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn composition_partitions_every_domain(specs in arb_sweep()) {
        let interner = Interner::new();
        let sweep = frame(&interner, Date::from_ymd(2022, 3, 1), &specs);
        for kind in [InfraKind::NameServers, InfraKind::Hosting] {
            let mut series = CompositionSeries::new(kind);
            series.observe(&sweep, &interner);
            let c = series.at(sweep.date).unwrap();
            // Partition: every domain lands in exactly one bucket.
            prop_assert_eq!(c.total() as usize, sweep.len());
            prop_assert_eq!(c.known() + c.unknown, c.total());
            // Percentages over the known set sum to 100 (when any known).
            if c.known() > 0 {
                let sum = c.pct_full() + c.pct_partial() + c.pct_non();
                prop_assert!((sum - 100.0).abs() < 1e-9, "pct sum {sum}");
            }
        }
    }

    #[test]
    fn classification_matches_manual_rule(specs in arb_sweep()) {
        let interner = Interner::new();
        let sweep = frame(&interner, Date::from_ymd(2022, 3, 1), &specs);
        let snap = interner.snapshot();
        for rec in sweep.records() {
            let countries: Vec<Option<Country>> = rec
                .ns_addrs()
                .countries()
                .iter()
                .map(|&c| snap.country(c))
                .collect();
            let ru = countries.iter().filter(|c| c.is_some_and(|c| c.is_russia())).count();
            let known = countries.iter().filter(|c| c.is_some()).count();
            let expected = match (ru, known) {
                (_, 0) => Composition::Unknown,
                (r, k) if r == k => Composition::Full,
                (0, _) => Composition::Non,
                _ => Composition::Partial,
            };
            prop_assert_eq!(classify_record_view(InfraKind::NameServers, &rec, &snap), expected);
        }
    }

    #[test]
    fn movement_conserves_domains(
        a in arb_sweep(),
        b in arb_sweep(),
        asn in 1u32..8,
    ) {
        let interner = Interner::new();
        let a = frame(&interner, Date::from_ymd(2022, 3, 8), &a);
        let b = frame(&interner, Date::from_ymd(2022, 5, 25), &b);
        let report = MovementReport::analyze_frames(&a, &b, Asn(asn), &interner);
        // Conservation: every original domain has exactly one outcome.
        prop_assert_eq!(
            report.original(),
            report.remained() + report.relocated() + report.lost()
        );
        // Arrivals are disjoint from the original set.
        for d in report.relocated_in.iter().chain(&report.newly_registered) {
            prop_assert!(!report.outcomes.contains_key(d));
        }
        // Destination histogram covers only relocated domains.
        let dest_total: usize = report.destinations().values().sum();
        prop_assert!(dest_total >= report.relocated());
        // Share-to is a fraction.
        let share = report.relocated_share_to(Asn(99));
        prop_assert!((0.0..=1.0).contains(&share));
    }

    #[test]
    fn movement_outcomes_are_consistent_with_sweeps(
        a in arb_sweep(),
        b in arb_sweep(),
    ) {
        let interner = Interner::new();
        let a = frame(&interner, Date::from_ymd(2022, 3, 8), &a);
        let b = frame(&interner, Date::from_ymd(2022, 5, 25), &b);
        let asn = Asn(2);
        let report = MovementReport::analyze_frames(&a, &b, asn, &interner);
        let snap = interner.snapshot();
        for (domain, outcome) in &report.outcomes {
            let in_b = b.records().find(|r| snap.name(r.domain_sym()) == domain);
            let b_asns = in_b.map(|r| r.apex_addrs().asns()).unwrap_or_default();
            match outcome {
                Movement::Gone => prop_assert!(in_b.is_none()),
                Movement::Remained => prop_assert!(b_asns.contains(&Some(asn))),
                Movement::RelocatedTo(dests) => {
                    prop_assert!(!dests.contains(&asn));
                    prop_assert!(!dests.is_empty());
                }
                Movement::Unresolved => {
                    prop_assert!(in_b.is_some());
                    prop_assert!(b_asns.iter().all(Option::is_none));
                }
            }
        }
    }

    #[test]
    fn asn_share_totals_are_bounded(specs in arb_sweep()) {
        let interner = Interner::new();
        let sweep = frame(&interner, Date::from_ymd(2022, 3, 1), &specs);
        let mut s = AsnShareSeries::new();
        s.observe(&sweep, &interner);
        let date = sweep.date;
        let total = s.total(date).unwrap();
        // The denominator counts only resolving domains.
        let resolving = sweep.records().filter(|r| r.has_apex_data()).count() as u64;
        prop_assert_eq!(total, resolving);
        // Each individual ASN count is ≤ total; shares are percentages.
        for asn in 0..8u32 {
            prop_assert!(s.count(date, Asn(asn)) <= total);
            let share = s.share(date, Asn(asn)).unwrap();
            prop_assert!((0.0..=100.0).contains(&share));
        }
    }
}
