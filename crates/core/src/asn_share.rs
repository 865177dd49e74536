//! Hosting-network shares (Figure 4).
//!
//! For each date and each ASN, the fraction of Russian Federation domains
//! whose apex A records resolve into that ASN.

use crate::engine::FrameObserver;
use ruwhere_store::{InternerSnap, RecordView, SweepFrame};
use ruwhere_types::{Asn, Date};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Longitudinal per-ASN share accumulator.
///
/// A domain counts toward every ASN any of its apex A records resolves
/// into (split-hosted domains count in both, as in the paper's "domains
/// resolving to Amazon's ASN").
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct AsnShareSeries {
    days: BTreeMap<Date, BTreeMap<Asn, u64>>,
    totals: BTreeMap<Date, u64>,
    scratch: BTreeMap<Asn, u64>,
    scratch_total: u64,
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

    /// The top `n` ASNs by count on the final observed date.
    pub fn top_asns(&self, n: usize) -> Vec<Asn> {
        let Some(last) = self.days.values().next_back() else {
            return Vec::new();
        };
        let mut v: Vec<(&Asn, &u64)> = last.iter().collect();
        v.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
        v.into_iter().take(n).map(|(a, _)| *a).collect()
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
    fn begin_frame(&mut self, _frame: &SweepFrame, _snap: &InternerSnap<'_>) {
        self.scratch.clear();
        self.scratch_total = 0;
    }

    fn observe_record(&mut self, rec: &RecordView<'_>, _snap: &InternerSnap<'_>) {
        let apex = rec.apex_addrs();
        if apex.is_empty() {
            return;
        }
        self.scratch_total += 1;
        let mut asns: Vec<Asn> = apex.asns().iter().filter_map(|a| *a).collect();
        asns.sort_unstable();
        asns.dedup();
        for a in asns {
            *self.scratch.entry(a).or_default() += 1;
        }
    }

    fn end_frame(&mut self, frame: &SweepFrame, _snap: &InternerSnap<'_>) {
        self.days
            .insert(frame.date, std::mem::take(&mut self.scratch));
        self.totals.insert(frame.date, self.scratch_total);
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
    fn top_asns_on_last_date() {
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
        assert_eq!(s.top_asns(1), vec![Asn(2)]);
        assert_eq!(s.dates().count(), 2);
    }
}
