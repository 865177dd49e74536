//! Dataset-scale statistics (paper §2):
//!
//! > "Our dataset contains 11.7 M unique Russian Federation domain names,
//! > and 13.3 k and 9.5 k unique networks (AS numbers) that, respectively,
//! > hosted domain apexes or authoritative DNS infrastructure."

use crate::asn_share::AsnIds;
use crate::engine::{FrameCodes, FrameObserver};
use ruwhere_store::{InternerSnap, SweepFrame, SweepStats, SymSet};

/// Accumulates unique names and networks across all sweeps.
///
/// One instance must be fed frames from **one** interner (the engine
/// contract): a name's symbol stands for the name, so counting distinct
/// symbols counts distinct names.
#[derive(Debug, Clone, Default)]
pub struct DatasetStats {
    hosting_asns: AsnIds,
    dns_asns: AsnIds,
    sweeps: u64,
    records: u64,
    partial_sweeps: u64,
    /// Every sweep's counters, summed.
    totals: SweepStats,
    /// Domain symbols ever observed; its length is the unique-name count.
    seen_syms: SymSet,
}

impl DatasetStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Unique domain names ever observed (paper: 11.7 M).
    pub fn unique_domains(&self) -> usize {
        self.seen_syms.len()
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

    /// DNS queries across all sweeps, warmups and NS-cache fills
    /// included.
    pub fn queries(&self) -> u64 {
        self.totals.queries
    }

    /// Query timeouts across all sweeps.
    pub fn timeouts(&self) -> u64 {
        self.totals.timeouts
    }

    /// SERVFAIL answers across all sweeps.
    pub fn servfails(&self) -> u64 {
        self.totals.servfails
    }

    /// Lame answers across all sweeps.
    pub fn lame(&self) -> u64 {
        self.totals.lame
    }

    /// Failed exchanges charged to resolver retry budgets — the study's
    /// total wasted-query bill.
    pub fn retries_spent(&self) -> u64 {
        self.totals.retries_spent
    }
}

impl FrameObserver for DatasetStats {
    fn fold(&mut self, frame: &SweepFrame, _codes: &FrameCodes, _snap: &InternerSnap<'_>) {
        self.sweeps += 1;
        if frame.is_partial() {
            self.partial_sweeps += 1;
        }
        self.totals.merge(&frame.stats);
        self.records += frame.len() as u64;
        for &sym in &frame.domains {
            self.seen_syms.insert(sym);
        }
        for &asn in frame.apex_addrs.asns.iter().flatten() {
            self.hosting_asns.id(asn);
        }
        for &asn in frame.ns_addrs.asns.iter().flatten() {
            self.dns_asns.id(asn);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruwhere_store::{Completeness, FrameFixture, Interner};
    use ruwhere_types::{Asn, Date};

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
                    queries: 40,
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
        assert_eq!(stats.queries(), 40);
        assert_eq!(stats.timeouts(), 5);
        assert_eq!(stats.servfails(), 2);
        assert_eq!(stats.lame(), 1);
        assert_eq!(stats.retries_spent(), 8);
    }
}
