//! Hosting-network shares (Figure 4).
//!
//! For each date and each ASN, the fraction of Russian Federation domains
//! whose apex A records resolve into that ASN.

use crate::engine::{FrameCodes, FrameObserver};
use ruwhere_store::{InternerSnap, SweepFrame};
use ruwhere_types::{Asn, Date, FastMap};
use std::collections::BTreeMap;

/// Dense ids for ASNs, assigned in first-seen order. A direct-mapped
/// front of recent ASNs answers a repeat with a multiply and a compare;
/// only an ASN missing from it is hashed. A frame holds a few dozen
/// distinct ASNs over thousands of addresses, so nearly every lookup is a
/// repeat.
#[derive(Debug, Clone)]
pub(crate) struct AsnIds {
    ids: FastMap<Asn, u32>,
    /// The ASN of each id.
    asns: Vec<Asn>,
    /// `1 << RECENT_BITS` slots of (ASN widened to `u64`, its id);
    /// `u64::MAX` marks an empty slot, since no ASN widens to it.
    recent: Vec<(u64, u32)>,
}

/// Address bits of [`AsnIds`]'s front.
const RECENT_BITS: u32 = 8;

impl Default for AsnIds {
    fn default() -> AsnIds {
        AsnIds {
            ids: FastMap::default(),
            asns: Vec::new(),
            recent: vec![(u64::MAX, 0); 1 << RECENT_BITS],
        }
    }
}

impl AsnIds {
    /// The id of `asn`, assigning the next one if it is new.
    pub(crate) fn id(&mut self, asn: Asn) -> u32 {
        let slot = (asn.0.wrapping_mul(0x9e37_79b9) >> (32 - RECENT_BITS)) as usize;
        let (key, id) = self.recent[slot];
        if key == u64::from(asn.0) {
            return id;
        }
        let next = self.asns.len() as u32;
        let id = *self.ids.entry(asn).or_insert(next);
        if id == next {
            self.asns.push(asn);
        }
        self.recent[slot] = (u64::from(asn.0), id);
        id
    }

    /// Distinct ASNs seen.
    pub(crate) fn len(&self) -> usize {
        self.asns.len()
    }
}

/// Longitudinal per-ASN share accumulator.
///
/// A domain counts toward every ASN any of its apex A records resolves
/// into (split-hosted domains count in both, as in the paper's "domains
/// resolving to Amazon's ASN").
#[derive(Debug, Clone, Default)]
pub struct AsnShareSeries {
    days: BTreeMap<Date, BTreeMap<Asn, u64>>,
    totals: BTreeMap<Date, u64>,
    ids: AsnIds,
    /// Per ASN id: the number of the last record counted into it (records
    /// number from 1 across frames, so a record's repeats of one ASN count
    /// once) and its domain count in the current frame.
    scratch: Vec<(u64, u64)>,
    /// Records with apex addresses folded so far.
    records: u64,
}

impl AsnShareSeries {
    /// Empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of domains in `asn` on `date`.
    pub fn count(&self, date: Date, asn: Asn) -> u64 {
        self.days
            .get(&date)
            .and_then(|m| m.get(&asn))
            .copied()
            .unwrap_or(0)
    }

    /// Share (%) of resolving domains in `asn` on `date`.
    pub fn share(&self, date: Date, asn: Asn) -> Option<f64> {
        let total = *self.totals.get(&date)? as f64;
        Some(100.0 * self.count(date, asn) as f64 / total.max(1.0))
    }

    /// Distinct ASNs hosting at least one domain across all dates — the
    /// paper's "13.3 k unique networks" statistic (§2), scaled.
    pub fn distinct_asns(&self) -> usize {
        let mut set = std::collections::BTreeSet::new();
        for m in self.days.values() {
            set.extend(m.keys().copied());
        }
        set.len()
    }

    /// Observed dates in order.
    pub fn dates(&self) -> impl Iterator<Item = Date> + '_ {
        self.days.keys().copied()
    }

    /// Total resolving domains on `date`.
    pub fn total(&self, date: Date) -> Option<u64> {
        self.totals.get(&date).copied()
    }
}

impl FrameObserver for AsnShareSeries {
    fn fold(&mut self, frame: &SweepFrame, _codes: &FrameCodes, _snap: &InternerSnap<'_>) {
        let mut total = 0u64;
        for w in frame.apex_addr_offsets.windows(2) {
            if w[0] == w[1] {
                continue;
            }
            total += 1;
            self.records += 1;
            for &asn in frame.apex_addrs.asns[w[0] as usize..w[1] as usize]
                .iter()
                .flatten()
            {
                let id = self.ids.id(asn) as usize;
                if id == self.scratch.len() {
                    self.scratch.push((0, 0));
                }
                let (last, count) = &mut self.scratch[id];
                if *last != self.records {
                    *last = self.records;
                    *count += 1;
                }
            }
        }
        let counts = (self.ids.asns.iter().zip(&mut self.scratch))
            .filter(|(_, (_, n))| *n > 0)
            .map(|(&asn, (_, n))| (asn, std::mem::take(n)))
            .collect();
        self.days.insert(frame.date, counts);
        self.totals.insert(frame.date, total);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruwhere_store::{FrameFixture, Interner, SweepStats};
    use std::net::Ipv4Addr;

    /// One frame of `(domain, apex ASNs)` records.
    fn sweep(interner: &Interner, date: Date, recs: &[(&str, &[u32])]) -> SweepFrame {
        let mut f = FrameFixture::new(date, interner);
        for (domain, asns) in recs {
            f.domain(domain);
            for (i, a) in asns.iter().enumerate() {
                f.apex_addr(Ipv4Addr::new(10, 0, 0, i as u8 + 1), None, Some(Asn(*a)));
            }
        }
        f.finish(SweepStats::default())
    }

    #[test]
    fn asn_ids_survive_collisions_in_the_front() {
        // Far more ASNs than front slots, so most lookups evict another.
        let mut ids = AsnIds::default();
        let asns: Vec<Asn> = (0..2_000u32).map(|i| Asn(i * 7919)).collect();
        for round in 0..2 {
            for (i, &a) in asns.iter().enumerate() {
                assert_eq!(ids.id(a) as usize, i, "round {round}");
            }
            for (i, &a) in asns.iter().enumerate().rev() {
                assert_eq!(ids.id(a) as usize, i, "round {round}, reversed");
            }
        }
        assert_eq!(ids.len(), asns.len());
        assert_eq!(ids.id(Asn(u32::MAX)) as usize, asns.len());
    }

    #[test]
    fn shares() {
        let i = Interner::new();
        let d = Date::from_ymd(2022, 3, 8);
        let mut s = AsnShareSeries::new();
        s.observe(
            &sweep(
                &i,
                d,
                &[
                    ("a.ru", &[16509]),
                    ("b.ru", &[16509]),
                    ("c.ru", &[13335]),
                    ("d.ru", &[]), // unresolved: excluded from the total
                ],
            ),
            &i,
        );
        assert_eq!(s.total(d), Some(3));
        assert_eq!(s.count(d, Asn(16509)), 2);
        assert!((s.share(d, Asn(16509)).unwrap() - 66.666).abs() < 0.01);
        assert!((s.share(d, Asn(13335)).unwrap() - 33.333).abs() < 0.01);
        assert_eq!(s.share(d, Asn(1)), Some(0.0));
        assert_eq!(s.distinct_asns(), 2);
    }

    #[test]
    fn split_hosting_counts_in_both() {
        let i = Interner::new();
        let d = Date::from_ymd(2022, 3, 8);
        let mut s = AsnShareSeries::new();
        s.observe(&sweep(&i, d, &[("a.ru", &[16509, 47846])]), &i);
        assert_eq!(s.count(d, Asn(16509)), 1);
        assert_eq!(s.count(d, Asn(47846)), 1);
        assert_eq!(s.total(d), Some(1));
    }

    #[test]
    fn duplicate_asn_counts_once() {
        let i = Interner::new();
        let d = Date::from_ymd(2022, 3, 8);
        let mut s = AsnShareSeries::new();
        s.observe(&sweep(&i, d, &[("a.ru", &[16509, 16509])]), &i);
        assert_eq!(s.count(d, Asn(16509)), 1);
    }

    #[test]
    fn observed_dates_are_listed_in_order() {
        let i = Interner::new();
        let mut s = AsnShareSeries::new();
        s.observe(
            &sweep(
                &i,
                Date::from_ymd(2022, 3, 1),
                &[("a.ru", &[1]), ("b.ru", &[1]), ("c.ru", &[2])],
            ),
            &i,
        );
        s.observe(
            &sweep(
                &i,
                Date::from_ymd(2022, 4, 1),
                &[("a.ru", &[2]), ("b.ru", &[2]), ("c.ru", &[1])],
            ),
            &i,
        );
        assert_eq!(
            s.dates().collect::<Vec<_>>(),
            [Date::from_ymd(2022, 3, 1), Date::from_ymd(2022, 4, 1)]
        );
    }
}
