//! Name-server TLD dependency (Figures 2 and 3).
//!
//! > "We extract the TLD of each name server to which .ru and .рф domain
//! > names delegate authority. If all of a domain's name servers are
//! > exclusively registered under the Russian Federation TLDs, we consider
//! > the TLD dependency fully Russian. … if only a subset are Russian TLDs,
//! > we consider it partial, otherwise we consider it non Russian." — §3.1

use crate::composition::{Composition, CompositionCounts};
use crate::engine::FrameObserver;
use ruwhere_store::{InternerSnap, RecordView, SweepFrame, TldSym};
use ruwhere_types::Date;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Longitudinal full/partial/non series over NS-name TLDs (Figure 2).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TldDependencySeries {
    days: BTreeMap<Date, CompositionCounts>,
    scratch: CompositionCounts,
}

impl TldDependencySeries {
    /// Empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Per-date counts in date order.
    pub fn rows(&self) -> impl Iterator<Item = (Date, &CompositionCounts)> {
        self.days.iter().map(|(d, c)| (*d, c))
    }

    /// Counts on one date.
    pub fn at(&self, date: Date) -> Option<&CompositionCounts> {
        self.days.get(&date)
    }

    /// Net percentage-point change in the full/partial/non shares between
    /// the first and last observation ("a net reduction of 6.3 %" — §3.1).
    pub fn net_change(&self) -> Option<(f64, f64, f64)> {
        let first = self.days.values().next()?;
        let last = self.days.values().next_back()?;
        Some((
            last.pct_full() - first.pct_full(),
            last.pct_partial() - first.pct_partial(),
            last.pct_non() - first.pct_non(),
        ))
    }
}

impl FrameObserver for TldDependencySeries {
    fn begin_frame(&mut self, _frame: &SweepFrame, _snap: &InternerSnap<'_>) {
        self.scratch = CompositionCounts::default();
    }

    fn observe_record(&mut self, rec: &RecordView<'_>, snap: &InternerSnap<'_>) {
        let (mut ru, mut other) = (0usize, 0usize);
        for &ns in rec.ns_name_syms() {
            if snap.tld_is_russian(snap.tld_of(ns)) {
                ru += 1;
            } else {
                other += 1;
            }
        }
        let c = match (ru, other) {
            (0, 0) => Composition::Unknown,
            (_, 0) => Composition::Full,
            (0, _) => Composition::Non,
            _ => Composition::Partial,
        };
        match c {
            Composition::Full => self.scratch.full += 1,
            Composition::Partial => self.scratch.partial += 1,
            Composition::Non => self.scratch.non += 1,
            Composition::Unknown => self.scratch.unknown += 1,
        }
    }

    fn end_frame(&mut self, frame: &SweepFrame, _snap: &InternerSnap<'_>) {
        self.days.insert(frame.date, self.scratch);
    }
}

/// Longitudinal per-TLD usage: for each date, how many domains delegate to
/// at least one name server under each TLD (Figure 3 — shares can sum to
/// more than 100 % because domains use multiple TLDs).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TldUsageSeries {
    days: BTreeMap<Date, BTreeMap<String, u64>>,
    totals: BTreeMap<Date, u64>,
    /// Per-frame counts keyed by TLD symbol; resolved to strings once at
    /// `end_frame` instead of once per record.
    scratch: BTreeMap<TldSym, u64>,
    scratch_total: u64,
}

impl TldUsageSeries {
    /// Empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Distinct TLDs ever observed (the paper counts 270).
    pub fn distinct_tlds(&self) -> usize {
        let mut set = std::collections::BTreeSet::new();
        for m in self.days.values() {
            set.extend(m.keys().cloned());
        }
        set.len()
    }

    /// The top `n` TLDs by usage on the final observed date.
    pub fn top_tlds(&self, n: usize) -> Vec<String> {
        let Some(last) = self.days.values().next_back() else {
            return Vec::new();
        };
        let mut v: Vec<(&String, &u64)> = last.iter().collect();
        v.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
        v.into_iter().take(n).map(|(t, _)| t.clone()).collect()
    }

    /// Usage share (%) of `tld` on `date`.
    pub fn share(&self, date: Date, tld: &str) -> Option<f64> {
        let counts = self.days.get(&date)?;
        let total = *self.totals.get(&date)? as f64;
        Some(100.0 * *counts.get(tld).unwrap_or(&0) as f64 / total.max(1.0))
    }

    /// All observed dates in order.
    pub fn dates(&self) -> impl Iterator<Item = Date> + '_ {
        self.days.keys().copied()
    }
}

impl FrameObserver for TldUsageSeries {
    fn begin_frame(&mut self, _frame: &SweepFrame, _snap: &InternerSnap<'_>) {
        self.scratch.clear();
        self.scratch_total = 0;
    }

    fn observe_record(&mut self, rec: &RecordView<'_>, snap: &InternerSnap<'_>) {
        let ns = rec.ns_name_syms();
        if ns.is_empty() {
            return;
        }
        self.scratch_total += 1;
        let mut tlds: Vec<TldSym> = ns.iter().map(|&n| snap.tld_of(n)).collect();
        tlds.sort_unstable();
        tlds.dedup();
        for t in tlds {
            *self.scratch.entry(t).or_default() += 1;
        }
    }

    fn end_frame(&mut self, frame: &SweepFrame, snap: &InternerSnap<'_>) {
        let counts: BTreeMap<String, u64> = self
            .scratch
            .iter()
            .map(|(&t, &n)| (snap.tld(t).to_owned(), n))
            .collect();
        self.days.insert(frame.date, counts);
        self.totals.insert(frame.date, self.scratch_total);
        self.scratch.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruwhere_store::{FrameFixture, Interner, SweepStats};

    /// One frame of `(domain, NS host names)` records.
    fn sweep(interner: &Interner, date: Date, recs: &[(&str, &[&str])]) -> SweepFrame {
        let mut f = FrameFixture::new(date, interner);
        for (domain, ns) in recs {
            f.domain(domain);
            for host in *ns {
                f.ns(host);
            }
        }
        f.finish(SweepStats::default())
    }

    #[test]
    fn dependency_classification() {
        let i = Interner::new();
        let d = Date::from_ymd(2022, 1, 1);
        let s = sweep(
            &i,
            d,
            &[
                ("a.ru", &["ns1.reg.ru", "ns2.reg.ru"]),
                ("b.ru", &["ns1.beget.ru", "ns2.beget.pro"]),
                ("c.ru", &["alla.ns.cloudflare.com"]),
                ("d.xn--p1ai", &["ns1.reg.ru"]),
                ("e.ru", &[]),
            ],
        );
        let mut series = TldDependencySeries::new();
        series.observe(&s, &i);
        let c = series.at(d).unwrap();
        assert_eq!((c.full, c.partial, c.non, c.unknown), (2, 1, 1, 1));
    }

    #[test]
    fn rf_tld_counts_as_russian() {
        let i = Interner::new();
        let d = Date::from_ymd(2022, 1, 1);
        let s = sweep(&i, d, &[("a.ru", &["ns1.dns.xn--p1ai"])]);
        let mut series = TldDependencySeries::new();
        series.observe(&s, &i);
        assert_eq!(series.at(d).unwrap().full, 1);
    }

    #[test]
    fn net_change() {
        let i = Interner::new();
        let mut series = TldDependencySeries::new();
        series.observe(
            &sweep(
                &i,
                Date::from_ymd(2022, 1, 1),
                &[("a.ru", &["ns1.x.ru"]), ("b.ru", &["ns1.y.com"])],
            ),
            &i,
        );
        series.observe(
            &sweep(
                &i,
                Date::from_ymd(2022, 2, 1),
                &[("a.ru", &["ns1.x.com"]), ("b.ru", &["ns1.y.com"])],
            ),
            &i,
        );
        let (df, dp, dn) = series.net_change().unwrap();
        assert!((df - -50.0).abs() < 1e-9);
        assert!((dp - 0.0).abs() < 1e-9);
        assert!((dn - 50.0).abs() < 1e-9);
    }

    #[test]
    fn usage_counts_each_domain_once_per_tld() {
        let i = Interner::new();
        let d = Date::from_ymd(2022, 1, 1);
        let s = sweep(
            &i,
            d,
            &[
                // Two .ru NS: counts once for .ru.
                ("a.ru", &["ns1.reg.ru", "ns2.reg.ru"]),
                ("b.ru", &["ns1.beget.ru", "ns2.beget.pro"]),
                ("c.ru", &["x.cloudflare.com", "y.cloudflare.com"]),
            ],
        );
        let mut usage = TldUsageSeries::new();
        usage.observe(&s, &i);
        assert_eq!(usage.share(d, "ru"), Some(100.0 * 2.0 / 3.0));
        assert_eq!(usage.share(d, "pro"), Some(100.0 / 3.0));
        assert_eq!(usage.share(d, "com"), Some(100.0 / 3.0));
        assert_eq!(usage.share(d, "net"), Some(0.0));
        assert_eq!(usage.distinct_tlds(), 3);
        assert_eq!(usage.top_tlds(2), vec!["ru".to_owned(), "com".to_owned()]);
    }

    #[test]
    fn shares_can_exceed_100_in_total() {
        let i = Interner::new();
        let d = Date::from_ymd(2022, 1, 1);
        let s = sweep(&i, d, &[("a.ru", &["ns1.x.ru", "ns2.x.com", "ns3.x.net"])]);
        let mut usage = TldUsageSeries::new();
        usage.observe(&s, &i);
        let sum = usage.share(d, "ru").unwrap()
            + usage.share(d, "com").unwrap()
            + usage.share(d, "net").unwrap();
        assert!((sum - 300.0).abs() < 1e-9);
    }
}
