//! Dataset-scale statistics (paper §2):
//!
//! > "Our dataset contains 11.7 M unique Russian Federation domain names,
//! > and 13.3 k and 9.5 k unique networks (AS numbers) that, respectively,
//! > hosted domain apexes or authoritative DNS infrastructure."

use crate::engine::FrameObserver;
use ruwhere_store::{InternerSnap, RecordView, SweepFrame, SymSet};
use ruwhere_types::{Asn, DomainName};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Accumulates unique names and networks across all sweeps.
///
/// One instance must be fed frames from **one** interner (the engine
/// contract) — the symbol seen-set below pre-filters on that assumption.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DatasetStats {
    unique_domains: BTreeSet<DomainName>,
    hosting_asns: BTreeSet<Asn>,
    dns_asns: BTreeSet<Asn>,
    sweeps: u64,
    records: u64,
    partial_sweeps: u64,
    timeouts: u64,
    servfails: u64,
    lame: u64,
    retries_spent: u64,
    /// Domain symbols already folded into `unique_domains`: an O(1) bitset
    /// pre-filter so the steady state (every domain seen on day one) skips
    /// the tree insert entirely.
    seen_syms: SymSet,
}

impl DatasetStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Unique domain names ever observed (paper: 11.7 M).
    pub fn unique_domains(&self) -> usize {
        self.unique_domains.len()
    }

    /// Unique apex-hosting ASNs (paper: 13.3 k).
    pub fn hosting_asns(&self) -> usize {
        self.hosting_asns.len()
    }

    /// Unique authoritative-DNS ASNs (paper: 9.5 k).
    pub fn dns_asns(&self) -> usize {
        self.dns_asns.len()
    }

    /// Total sweeps consumed.
    pub fn sweeps(&self) -> u64 {
        self.sweeps
    }

    /// Total domain-day records consumed.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Sweeps salvaged as partial (measurement-gap days, footnote 8).
    pub fn partial_sweeps(&self) -> u64 {
        self.partial_sweeps
    }

    /// Query timeouts across all sweeps.
    pub fn timeouts(&self) -> u64 {
        self.timeouts
    }

    /// SERVFAIL answers across all sweeps.
    pub fn servfails(&self) -> u64 {
        self.servfails
    }

    /// Lame answers across all sweeps.
    pub fn lame(&self) -> u64 {
        self.lame
    }

    /// Failed exchanges charged to resolver retry budgets — the study's
    /// total wasted-query bill.
    pub fn retries_spent(&self) -> u64 {
        self.retries_spent
    }
}

impl FrameObserver for DatasetStats {
    fn begin_frame(&mut self, frame: &SweepFrame, _snap: &InternerSnap<'_>) {
        self.sweeps += 1;
        if frame.is_partial() {
            self.partial_sweeps += 1;
        }
        self.timeouts += frame.stats.timeouts;
        self.servfails += frame.stats.servfails;
        self.lame += frame.stats.lame;
        self.retries_spent += frame.stats.retries_spent;
    }

    fn observe_record(&mut self, rec: &RecordView<'_>, snap: &InternerSnap<'_>) {
        self.records += 1;
        let sym = rec.domain_sym();
        if self.seen_syms.insert(sym) {
            self.unique_domains.insert(snap.name(sym).clone());
        }
        for asn in rec.apex_addrs().asns().iter().flatten() {
            self.hosting_asns.insert(*asn);
        }
        for asn in rec.ns_addrs().asns().iter().flatten() {
            self.dns_asns.insert(*asn);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruwhere_store::{Completeness, FrameFixture, Interner, SweepStats};
    use ruwhere_types::Date;

    /// One frame of `(domain, apex ASN, NS ASN)` records.
    fn sweep(
        interner: &Interner,
        date: Date,
        recs: &[(&str, u32, u32)],
        stats: SweepStats,
    ) -> SweepFrame {
        let ip = "10.0.0.1".parse().unwrap();
        let mut f = FrameFixture::new(date, interner);
        for &(domain, apex_asn, ns_asn) in recs {
            f.domain(domain)
                .ns_addr(ip, None, Some(Asn(ns_asn)))
                .apex_addr(ip, None, Some(Asn(apex_asn)));
        }
        f.finish(stats)
    }

    #[test]
    fn accumulates_across_sweeps() {
        let i = Interner::new();
        let mut stats = DatasetStats::new();
        stats.observe(
            &sweep(
                &i,
                Date::from_ymd(2022, 1, 1),
                &[("a.ru", 1, 10), ("b.ru", 2, 10)],
                SweepStats::default(),
            ),
            &i,
        );
        stats.observe(
            &sweep(
                &i,
                Date::from_ymd(2022, 1, 2),
                &[("a.ru", 1, 11), ("c.ru", 3, 12)],
                SweepStats {
                    timeouts: 5,
                    servfails: 2,
                    lame: 1,
                    retries_spent: 8,
                    completeness: Completeness::Partial,
                    ..SweepStats::default()
                },
            ),
            &i,
        );
        assert_eq!(stats.unique_domains(), 3);
        assert_eq!(stats.hosting_asns(), 3);
        assert_eq!(stats.dns_asns(), 3);
        assert_eq!(stats.sweeps(), 2);
        assert_eq!(stats.records(), 4);
        assert_eq!(stats.partial_sweeps(), 1);
        assert_eq!(stats.timeouts(), 5);
        assert_eq!(stats.servfails(), 2);
        assert_eq!(stats.lame(), 1);
        assert_eq!(stats.retries_spent(), 8);
    }
}
