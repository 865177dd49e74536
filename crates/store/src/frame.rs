//! The columnar sweep store: one day's measurement output as
//! struct-of-arrays over interned symbols.
//!
//! A [`SweepFrame`] holds one day's records in six flat columns: a
//! domain-symbol column, an NS-name symbol column and
//! two [`AddrColumns`] (name-server and apex addresses), each delimited by
//! a `u32` offset column of length `records + 1`. Record `i` owns the
//! half-open range `offsets[i]..offsets[i+1]` of the data column.
//!
//! The layout buys two things:
//!
//! - **One allocation per column per sweep** instead of four `Vec`s and a
//!   handful of owned strings per record — retaining a frame for movement
//!   analysis costs a few flat buffers.
//! - **Symbol-level analysis**: every series folds `u32` symbol columns,
//!   so the eight study analyses compare integers and index dense arrays
//!   where they used to hash owned [`DomainName`]s.
//!
//! Frames are byte-identical for any worker count — the columns are
//! written by a single post-merge pass in zone-snapshot order, and symbol
//! assignment follows the rules in [`crate::sym`].
//!
//! The sweep engine writes frames through [`FrameBuilder`]; tests and
//! examples that spell a frame out by hand use [`FrameFixture`], which
//! interns owned names as it goes.

use crate::stats::{Completeness, SweepStats};
use crate::sym::{CountrySym, Interner, Sym};
use crate::SweepMetrics;
use ruwhere_types::{Asn, Country, Date, DomainName};
use std::net::Ipv4Addr;

/// A flat address table: three parallel columns, one entry per resolved
/// address. Ranges into it are delimited by a frame offset column.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AddrColumns {
    /// The addresses.
    pub ips: Vec<Ipv4Addr>,
    /// Geolocation per the sweep date's snapshot (sentinel for none).
    pub countries: Vec<CountrySym>,
    /// Origin AS per BGP-derived data.
    pub asns: Vec<Option<Asn>>,
}

impl AddrColumns {
    fn push(&mut self, ip: Ipv4Addr, country: CountrySym, asn: Option<Asn>) {
        self.ips.push(ip);
        self.countries.push(country);
        self.asns.push(asn);
    }

    fn len(&self) -> usize {
        self.ips.len()
    }
}

/// One day's complete measurement output, columnar form. See the module
/// docs for the layout; use [`SweepFrame::record`]/[`SweepFrame::records`]
/// for row-shaped access without materialising rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepFrame {
    /// Sweep date.
    pub date: Date,
    /// Domain symbol of each record (zone-snapshot order).
    pub domains: Vec<Sym>,
    /// NS-name range delimiters, length `records + 1`.
    pub ns_name_offsets: Vec<u32>,
    /// NS RRset target symbols, concatenated across records.
    pub ns_names: Vec<Sym>,
    /// NS-address range delimiters, length `records + 1`.
    pub ns_addr_offsets: Vec<u32>,
    /// Resolved, annotated name-server addresses.
    pub ns_addrs: AddrColumns,
    /// Apex-address range delimiters, length `records + 1`.
    pub apex_addr_offsets: Vec<u32>,
    /// Resolved, annotated apex A records.
    pub apex_addrs: AddrColumns,
    /// Counters.
    pub stats: SweepStats,
    /// Observability section.
    pub metrics: SweepMetrics,
}

impl SweepFrame {
    /// Number of records.
    pub fn len(&self) -> usize {
        self.domains.len()
    }

    /// Whether the frame has no records.
    pub fn is_empty(&self) -> bool {
        self.domains.is_empty()
    }

    /// Whether this sweep was salvaged as partial (outage day).
    pub fn is_partial(&self) -> bool {
        self.stats.completeness == Completeness::Partial
    }

    /// Row-shaped view of record `i` (no allocation).
    pub fn record(&self, idx: usize) -> RecordView<'_> {
        debug_assert!(idx < self.len());
        RecordView { frame: self, idx }
    }

    /// Iterate all records as views, in zone-snapshot order.
    pub fn records(&self) -> impl Iterator<Item = RecordView<'_>> {
        (0..self.len()).map(move |idx| self.record(idx))
    }

    /// Drop the observability payload (for long-term retention: movement
    /// analysis needs the columns, never the histograms).
    pub fn strip_metrics(mut self) -> SweepFrame {
        self.metrics = SweepMetrics::new();
        self
    }
}

/// Incremental [`SweepFrame`] writer. Call
/// [`begin_record`](FrameBuilder::begin_record), push the record's NS
/// names and addresses, [`end_record`](FrameBuilder::end_record), repeat;
/// then [`finish`](FrameBuilder::finish). The caller drives records in
/// zone-snapshot order — the builder just appends.
#[derive(Debug)]
pub struct FrameBuilder {
    date: Date,
    domains: Vec<Sym>,
    ns_name_offsets: Vec<u32>,
    ns_names: Vec<Sym>,
    ns_addr_offsets: Vec<u32>,
    ns_addrs: AddrColumns,
    apex_addr_offsets: Vec<u32>,
    apex_addrs: AddrColumns,
}

impl FrameBuilder {
    /// An empty frame under construction for `date`.
    pub fn new(date: Date) -> FrameBuilder {
        FrameBuilder {
            date,
            domains: Vec::new(),
            ns_name_offsets: vec![0],
            ns_names: Vec::new(),
            ns_addr_offsets: vec![0],
            ns_addrs: AddrColumns::default(),
            apex_addr_offsets: vec![0],
            apex_addrs: AddrColumns::default(),
        }
    }

    /// Reserve column capacity for an expected record count.
    pub fn reserve(&mut self, records: usize) {
        self.domains.reserve(records);
        self.ns_name_offsets.reserve(records);
        self.ns_addr_offsets.reserve(records);
        self.apex_addr_offsets.reserve(records);
    }

    /// Start the next record.
    pub fn begin_record(&mut self, domain: Sym) {
        self.domains.push(domain);
    }

    /// Append an NS RRset target to the current record.
    pub fn push_ns_name(&mut self, ns: Sym) {
        self.ns_names.push(ns);
    }

    /// Append an annotated name-server address to the current record.
    pub fn push_ns_addr(&mut self, ip: Ipv4Addr, country: CountrySym, asn: Option<Asn>) {
        self.ns_addrs.push(ip, country, asn);
    }

    /// Append an annotated apex address to the current record.
    pub fn push_apex_addr(&mut self, ip: Ipv4Addr, country: CountrySym, asn: Option<Asn>) {
        self.apex_addrs.push(ip, country, asn);
    }

    /// Close the current record (writes its offset delimiters).
    pub fn end_record(&mut self) {
        self.ns_name_offsets.push(self.ns_names.len() as u32);
        self.ns_addr_offsets.push(self.ns_addrs.len() as u32);
        self.apex_addr_offsets.push(self.apex_addrs.len() as u32);
    }

    /// Seal the frame with its counters and metric section.
    pub fn finish(self, stats: SweepStats, metrics: SweepMetrics) -> SweepFrame {
        debug_assert_eq!(self.domains.len() + 1, self.ns_name_offsets.len());
        SweepFrame {
            date: self.date,
            domains: self.domains,
            ns_name_offsets: self.ns_name_offsets,
            ns_names: self.ns_names,
            ns_addr_offsets: self.ns_addr_offsets,
            ns_addrs: self.ns_addrs,
            apex_addr_offsets: self.apex_addr_offsets,
            apex_addrs: self.apex_addrs,
            stats,
            metrics,
        }
    }
}

/// A hand-spelled [`SweepFrame`]: a [`FrameBuilder`] plus the
/// [`Interner`] its symbols come from, interning owned names and
/// countries as records are pushed. This is the shared fixture builder of
/// the workspace's tests and examples; the sweep engine drives
/// [`FrameBuilder`] directly.
///
/// ```
/// use ruwhere_store::{FrameFixture, Interner, SweepStats};
/// use ruwhere_types::{Asn, Country, Date};
///
/// let interner = Interner::new();
/// let mut f = FrameFixture::new(Date::from_ymd(2022, 3, 1), &interner);
/// f.domain("a.ru")
///     .ns("ns1.reg.ru")
///     .ns_addr([10, 0, 0, 1].into(), Some(Country::RU), Some(Asn(1)));
/// f.domain("b.ru"); // a record that resolved nothing
/// let frame = f.finish(SweepStats::default());
/// assert_eq!(frame.len(), 2);
/// assert!(frame.record(0).has_ns_data() && !frame.record(1).has_ns_data());
/// ```
#[derive(Debug)]
pub struct FrameFixture<'a> {
    interner: &'a Interner,
    builder: FrameBuilder,
    open: bool,
}

impl<'a> FrameFixture<'a> {
    /// An empty frame for `date` whose symbols come from `interner`.
    pub fn new(date: Date, interner: &'a Interner) -> FrameFixture<'a> {
        FrameFixture {
            interner,
            builder: FrameBuilder::new(date),
            open: false,
        }
    }

    /// Start the record for `domain`, closing the previous one.
    ///
    /// # Panics
    ///
    /// If `domain` is not a valid domain name.
    pub fn domain(&mut self, domain: &str) -> &mut Self {
        self.close();
        self.builder
            .begin_record(self.interner.intern_name(&parse(domain)));
        self.open = true;
        self
    }

    /// Append an NS RRset target to the current record.
    ///
    /// # Panics
    ///
    /// If `host` is not a valid domain name.
    pub fn ns(&mut self, host: &str) -> &mut Self {
        self.builder
            .push_ns_name(self.interner.intern_name(&parse(host)));
        self
    }

    /// Append an annotated name-server address to the current record.
    pub fn ns_addr(
        &mut self,
        ip: Ipv4Addr,
        country: Option<Country>,
        asn: Option<Asn>,
    ) -> &mut Self {
        let country = self.interner.intern_country(country);
        self.builder.push_ns_addr(ip, country, asn);
        self
    }

    /// Append an annotated apex address to the current record.
    pub fn apex_addr(
        &mut self,
        ip: Ipv4Addr,
        country: Option<Country>,
        asn: Option<Asn>,
    ) -> &mut Self {
        let country = self.interner.intern_country(country);
        self.builder.push_apex_addr(ip, country, asn);
        self
    }

    /// Close the last record and seal the frame with `stats` and an empty
    /// metric section.
    pub fn finish(mut self, stats: SweepStats) -> SweepFrame {
        self.close();
        self.builder.finish(stats, SweepMetrics::new())
    }

    fn close(&mut self) {
        if std::mem::take(&mut self.open) {
            self.builder.end_record();
        }
    }
}

fn parse(name: &str) -> DomainName {
    name.parse()
        .unwrap_or_else(|e| panic!("invalid fixture domain {name:?}: {e}"))
}

/// Row-shaped, allocation-free view of one frame record.
#[derive(Debug, Clone, Copy)]
pub struct RecordView<'a> {
    frame: &'a SweepFrame,
    idx: usize,
}

impl<'a> RecordView<'a> {
    /// The record's index within its frame.
    pub fn index(&self) -> usize {
        self.idx
    }

    /// The measured domain's symbol.
    pub fn domain_sym(&self) -> Sym {
        self.frame.domains[self.idx]
    }

    /// NS RRset target symbols.
    pub fn ns_name_syms(&self) -> &'a [Sym] {
        let (s, e) = range(&self.frame.ns_name_offsets, self.idx);
        &self.frame.ns_names[s..e]
    }

    /// Resolved name-server addresses.
    pub fn ns_addrs(&self) -> AddrsView<'a> {
        let (start, end) = range(&self.frame.ns_addr_offsets, self.idx);
        AddrsView {
            cols: &self.frame.ns_addrs,
            start,
            end,
        }
    }

    /// Resolved apex A records.
    pub fn apex_addrs(&self) -> AddrsView<'a> {
        let (start, end) = range(&self.frame.apex_addr_offsets, self.idx);
        AddrsView {
            cols: &self.frame.apex_addrs,
            start,
            end,
        }
    }

    /// Whether any name server resolved.
    pub fn has_ns_data(&self) -> bool {
        !self.ns_addrs().is_empty()
    }

    /// Whether the apex resolved.
    pub fn has_apex_data(&self) -> bool {
        !self.apex_addrs().is_empty()
    }
}

fn range(offsets: &[u32], idx: usize) -> (usize, usize) {
    (offsets[idx] as usize, offsets[idx + 1] as usize)
}

/// One record's slice of an [`AddrColumns`] table.
#[derive(Debug, Clone, Copy)]
pub struct AddrsView<'a> {
    cols: &'a AddrColumns,
    start: usize,
    end: usize,
}

impl<'a> AddrsView<'a> {
    /// Number of addresses.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the record resolved no addresses.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The addresses.
    pub fn ips(&self) -> &'a [Ipv4Addr] {
        &self.cols.ips[self.start..self.end]
    }

    /// Country symbols, parallel to [`ips`](AddrsView::ips).
    pub fn countries(&self) -> &'a [CountrySym] {
        &self.cols.countries[self.start..self.end]
    }

    /// Origin ASes, parallel to [`ips`](AddrsView::ips).
    pub fn asns(&self) -> &'a [Option<Asn>] {
        &self.cols.asns[self.start..self.end]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(last: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, last)
    }

    fn sample(interner: &Interner) -> SweepFrame {
        let mut f = FrameFixture::new(Date::from_ymd(2022, 3, 1), interner);
        f.domain("alpha.ru")
            .ns("ns1.host.com")
            .ns("ns2.host.com")
            .ns_addr(ip(1), Some(Country::RU), Some(Asn(1)))
            .ns_addr(ip(2), None, None)
            .apex_addr(ip(3), Some(Country::SE), Some(Asn(2)));
        f.domain("beta.ru");
        f.domain("gamma.com")
            .ns("ns1.host.com")
            .ns_addr(ip(1), Some(Country::RU), Some(Asn(1)));
        f.finish(SweepStats {
            seeded: 3,
            queries: 17,
            ..SweepStats::default()
        })
    }

    #[test]
    fn record_views_read_back_what_was_pushed() {
        let interner = Interner::new();
        let frame = sample(&interner);
        assert_eq!(frame.len(), 3);
        assert_eq!(frame.stats.queries, 17);
        let snap = interner.snapshot();
        let names: Vec<String> = frame
            .records()
            .map(|r| snap.name(r.domain_sym()).to_string())
            .collect();
        assert_eq!(names, ["alpha.ru", "beta.ru", "gamma.com"]);

        let alpha = frame.record(0);
        assert_eq!(alpha.ns_name_syms().len(), 2);
        assert!(alpha.has_ns_data() && alpha.has_apex_data());
        assert_eq!(alpha.ns_addrs().ips(), [ip(1), ip(2)]);
        let apex = alpha.apex_addrs();
        assert_eq!(apex.ips(), [ip(3)]);
        assert_eq!(snap.country(apex.countries()[0]), Some(Country::SE));
        assert_eq!(apex.asns(), [Some(Asn(2))]);

        let beta = frame.record(1);
        assert!(beta.ns_name_syms().is_empty());
        assert!(!beta.has_ns_data() && !beta.has_apex_data());

        // Shared names intern to one symbol.
        assert_eq!(frame.record(2).ns_name_syms()[0], alpha.ns_name_syms()[0]);
        assert_eq!(
            snap.country(frame.record(2).ns_addrs().countries()[0]),
            Some(Country::RU)
        );
    }

    #[test]
    fn same_interner_same_frame() {
        let interner = Interner::new();
        assert_eq!(sample(&interner), sample(&interner));
    }

    #[test]
    fn strip_metrics_keeps_columns() {
        let interner = Interner::new();
        let mut frame = sample(&interner);
        frame.metrics.resolver.srtt_us.record(1000);
        let stripped = frame.clone().strip_metrics();
        assert!(stripped.metrics.is_empty());
        assert_eq!(stripped.domains, frame.domains);
        assert_eq!(stripped.stats, frame.stats);
    }
}
