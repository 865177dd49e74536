//! Full / partial / non Russian composition classification (Figures 1, 5;
//! §3.1 hosting text).
//!
//! > "We label a domain as fully Russian-hosted if all of its A records
//! > geolocate inside the Russian Federation, partial if only a subset are
//! > in Russia, or non (Russian) if all such records are located outside
//! > the Russian Federation. Name service is similarly labeled based on
//! > geolocating the authoritative name servers for the domain." — §3.1

use crate::engine::FrameObserver;
use ruwhere_store::{CountrySym, InternerSnap, RecordView, SweepFrame, Sym};
use ruwhere_types::Date;
use std::collections::{BTreeMap, BTreeSet};

/// The three-way label (plus `Unknown` for domains that did not resolve or
/// geolocate at all).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Composition {
    /// All addresses geolocate to the Russian Federation.
    Full,
    /// A proper subset geolocates to Russia.
    Partial,
    /// No address geolocates to Russia.
    Non,
    /// No address data (resolution failure or geolocation gap).
    Unknown,
}

impl Composition {
    /// Classify a set of per-address country symbols, deciding
    /// Russian-ness from the interner snapshot.
    ///
    /// Addresses with unknown geolocation are ignored unless *all* are
    /// unknown (mirroring how the paper handles the "small percentage of
    /// disagreement", footnote 5).
    pub fn classify_syms(countries: &[CountrySym], snap: &InternerSnap<'_>) -> Composition {
        let mut russian = 0usize;
        let mut other = 0usize;
        for &c in countries {
            if c.is_none() {
                continue;
            }
            if snap.country_is_russia(c) {
                russian += 1;
            } else {
                other += 1;
            }
        }
        match (russian, other) {
            (0, 0) => Composition::Unknown,
            (_, 0) => Composition::Full,
            (0, _) => Composition::Non,
            _ => Composition::Partial,
        }
    }
}

/// Classify one frame record under `kind` (shared by the composition and
/// transition observers so both use the exact same rule).
pub fn classify_record_view(
    kind: InfraKind,
    rec: &RecordView<'_>,
    snap: &InternerSnap<'_>,
) -> Composition {
    let addrs = match kind {
        InfraKind::NameServers => rec.ns_addrs(),
        InfraKind::Hosting => rec.apex_addrs(),
    };
    Composition::classify_syms(addrs.countries(), snap)
}

/// Which infrastructure the composition describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InfraKind {
    /// Authoritative name-server addresses (Figures 1 and 5).
    NameServers,
    /// Apex A records — web hosting (§3.1 text).
    Hosting,
}

/// Per-date composition counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompositionCounts {
    /// Fully Russian.
    pub full: u64,
    /// Partially Russian.
    pub partial: u64,
    /// Not Russian.
    pub non: u64,
    /// No data.
    pub unknown: u64,
}

impl CompositionCounts {
    /// Total classified domains (including unknown).
    pub fn total(&self) -> u64 {
        self.full + self.partial + self.non + self.unknown
    }

    /// Total with usable data.
    pub fn known(&self) -> u64 {
        self.full + self.partial + self.non
    }

    /// Percentage helpers over the known set.
    pub fn pct_full(&self) -> f64 {
        100.0 * self.full as f64 / self.known().max(1) as f64
    }

    /// Partial percentage.
    pub fn pct_partial(&self) -> f64 {
        100.0 * self.partial as f64 / self.known().max(1) as f64
    }

    /// Non percentage.
    pub fn pct_non(&self) -> f64 {
        100.0 * self.non as f64 / self.known().max(1) as f64
    }

    fn bump(&mut self, c: Composition) {
        match c {
            Composition::Full => self.full += 1,
            Composition::Partial => self.partial += 1,
            Composition::Non => self.non += 1,
            Composition::Unknown => self.unknown += 1,
        }
    }
}

/// Domain filter for a composition series.
#[derive(Debug, Clone)]
enum Filter {
    /// Whole population.
    All,
    /// Domains sanctioned as of each sweep's date (Figure 5's growing
    /// denominator).
    Sanctions(ruwhere_registry::SanctionsList),
}

impl Filter {
    /// Resolve the filter for one frame into sorted symbols. `None`
    /// accepts everything. Names absent from the interner cannot occur in
    /// any record of the frame, so dropping them is exact.
    fn resolve(&self, date: Date, snap: &InternerSnap<'_>) -> Option<Vec<Sym>> {
        let mut syms: Vec<Sym> = match self {
            Filter::All => return None,
            Filter::Sanctions(list) => list
                .sanctioned_at(date)
                .into_iter()
                .filter_map(|d| snap.name_sym(d))
                .collect(),
        };
        syms.sort_unstable();
        Some(syms)
    }
}

/// Per-frame scratch for the observer hooks (reset at `begin_frame`).
#[derive(Debug, Clone, Default)]
struct FrameScratch {
    counts: CompositionCounts,
    /// Sorted accepted symbols; `None` means no filtering.
    filter: Option<Vec<Sym>>,
}

/// A longitudinal composition accumulator. Feed it one [`SweepFrame`] per
/// measurement day; read out the per-date series.
#[derive(Debug, Clone)]
pub struct CompositionSeries {
    kind: InfraKind,
    filter: Filter,
    days: BTreeMap<Date, CompositionCounts>,
    /// Dates whose sweep was salvaged as partial (outage days). Raw counts
    /// for these days are kept — the Figure-1 dip must stay visible — but
    /// [`CompositionSeries::imputed_at`] can substitute a recent full day.
    partial_days: BTreeSet<Date>,
    scratch: FrameScratch,
}

impl CompositionSeries {
    /// Full-population series for `kind`.
    pub fn new(kind: InfraKind) -> Self {
        CompositionSeries {
            kind,
            filter: Filter::All,
            days: BTreeMap::new(),
            partial_days: BTreeSet::new(),
            scratch: FrameScratch::default(),
        }
    }

    /// Series restricted to the domains sanctioned as of each sweep date
    /// (Figure 5).
    pub fn sanctioned(kind: InfraKind, list: ruwhere_registry::SanctionsList) -> Self {
        CompositionSeries {
            kind,
            filter: Filter::Sanctions(list),
            days: BTreeMap::new(),
            partial_days: BTreeSet::new(),
            scratch: FrameScratch::default(),
        }
    }

    /// Per-date counts, in date order.
    pub fn rows(&self) -> impl Iterator<Item = (Date, &CompositionCounts)> {
        self.days.iter().map(|(d, c)| (*d, c))
    }

    /// Counts on one date.
    pub fn at(&self, date: Date) -> Option<&CompositionCounts> {
        self.days.get(&date)
    }

    /// Whether the sweep observed on `date` was a salvaged partial.
    pub fn is_partial_day(&self, date: Date) -> bool {
        self.partial_days.contains(&date)
    }

    /// Counts on `date` with explicit, bounded carry-forward imputation.
    ///
    /// For a full-sweep day this is just `(raw counts, false)`. For a
    /// partial (outage) day, the most recent full day within
    /// `max_lookback_days` is substituted and the result is flagged
    /// `true` — the imputation is never silent. If no full day exists in
    /// the lookback window, the raw partial counts are returned unflagged;
    /// callers can distinguish that residual case via
    /// [`CompositionSeries::is_partial_day`].
    ///
    /// [`CompositionSeries::at`] deliberately stays raw: analyses that
    /// *want* to see the Figure-1 dip read `at`, analyses that want a gap-
    /// tolerant trend read `imputed_at`.
    pub fn imputed_at(
        &self,
        date: Date,
        max_lookback_days: u32,
    ) -> Option<(CompositionCounts, bool)> {
        let raw = *self.days.get(&date)?;
        if !self.partial_days.contains(&date) {
            return Some((raw, false));
        }
        let donor = self
            .days
            .range(..date)
            .rev()
            .take_while(|(d, _)| (date - **d) as u32 <= max_lookback_days)
            .find(|(d, _)| !self.partial_days.contains(*d));
        match donor {
            Some((_, counts)) => Some((*counts, true)),
            None => Some((raw, false)),
        }
    }

    /// First and last observed rows (for net-change summaries).
    pub fn extrema(&self) -> Option<((Date, CompositionCounts), (Date, CompositionCounts))> {
        let first = self.days.iter().next()?;
        let last = self.days.iter().next_back()?;
        Some(((*first.0, *first.1), (*last.0, *last.1)))
    }
}

impl FrameObserver for CompositionSeries {
    fn begin_frame(&mut self, frame: &SweepFrame, snap: &InternerSnap<'_>) {
        self.scratch.counts = CompositionCounts::default();
        self.scratch.filter = self.filter.resolve(frame.date, snap);
    }

    fn observe_record(&mut self, rec: &RecordView<'_>, snap: &InternerSnap<'_>) {
        if let Some(accepted) = &self.scratch.filter {
            if accepted.binary_search(&rec.domain_sym()).is_err() {
                return;
            }
        }
        self.scratch
            .counts
            .bump(classify_record_view(self.kind, rec, snap));
    }

    fn end_frame(&mut self, frame: &SweepFrame, _snap: &InternerSnap<'_>) {
        self.days.insert(frame.date, self.scratch.counts);
        if frame.is_partial() {
            self.partial_days.insert(frame.date);
        } else {
            self.partial_days.remove(&frame.date);
        }
        self.scratch.filter = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruwhere_store::{FrameFixture, Interner, SweepStats};
    use ruwhere_types::{Asn, Country};
    use std::net::Ipv4Addr;

    /// `(domain, NS-address countries, apex-address countries)`.
    type Rec<'a> = (&'a str, &'a [Option<&'a str>], &'a [Option<&'a str>]);

    fn frame(interner: &Interner, date: Date, recs: &[Rec<'_>], stats: SweepStats) -> SweepFrame {
        let cc = |c: &Option<&str>| c.map(|c| c.parse().unwrap());
        let mut f = FrameFixture::new(date, interner);
        for (domain, ns_cc, apex_cc) in recs {
            f.domain(domain);
            for (i, c) in ns_cc.iter().enumerate() {
                f.ns_addr(Ipv4Addr::new(10, 0, 0, i as u8 + 1), cc(c), Some(Asn(1)));
            }
            for (i, c) in apex_cc.iter().enumerate() {
                f.apex_addr(Ipv4Addr::new(10, 0, 1, i as u8 + 1), cc(c), Some(Asn(1)));
            }
        }
        f.finish(stats)
    }

    fn sweep(interner: &Interner, date: Date, recs: &[Rec<'_>]) -> SweepFrame {
        frame(interner, date, recs, SweepStats::default())
    }

    fn partial_sweep(interner: &Interner, date: Date, recs: &[Rec<'_>]) -> SweepFrame {
        let stats = SweepStats {
            completeness: ruwhere_store::Completeness::Partial,
            ..SweepStats::default()
        };
        frame(interner, date, recs, stats)
    }

    #[test]
    fn imputation_carries_forward_flagged_and_bounded() {
        let i = Interner::new();
        let d1 = Date::from_ymd(2021, 3, 21);
        let d2 = Date::from_ymd(2021, 3, 22); // outage day
        let mut series = CompositionSeries::new(InfraKind::NameServers);
        series.observe(
            &sweep(
                &i,
                d1,
                &[("a.ru", &[Some("RU")], &[]), ("b.ru", &[Some("US")], &[])],
            ),
            &i,
        );
        // The outage day salvages a single record.
        series.observe(&partial_sweep(&i, d2, &[("a.ru", &[Some("RU")], &[])]), &i);

        // Raw view keeps the dip.
        assert_eq!(series.at(d2).unwrap().total(), 1);
        assert!(series.is_partial_day(d2));
        assert!(!series.is_partial_day(d1));

        // Imputed view substitutes the day before, flagged.
        let (c, imputed) = series.imputed_at(d2, 7).unwrap();
        assert!(imputed);
        assert_eq!(c.total(), 2);
        // Full days pass through unflagged.
        let (c, imputed) = series.imputed_at(d1, 7).unwrap();
        assert!(!imputed);
        assert_eq!(c.total(), 2);
        // A zero-day lookback finds no donor: raw counts, unflagged.
        let (c, imputed) = series.imputed_at(d2, 0).unwrap();
        assert!(!imputed);
        assert_eq!(c.total(), 1);
    }

    #[test]
    fn classification_rules() {
        let i = Interner::new();
        let classify = |countries: &[Option<Country>]| {
            let syms: Vec<CountrySym> = countries.iter().map(|&c| i.intern_country(c)).collect();
            Composition::classify_syms(&syms, &i.snapshot())
        };
        let (ru, se, us, de) = (
            Some(Country::RU),
            Some(Country::SE),
            Some(Country::US),
            Some(Country::DE),
        );
        assert_eq!(classify(&[ru, ru]), Composition::Full);
        assert_eq!(classify(&[ru, se]), Composition::Partial);
        assert_eq!(classify(&[us, de]), Composition::Non);
        assert_eq!(classify(&[]), Composition::Unknown);
        assert_eq!(classify(&[None, None]), Composition::Unknown);
        // Unknown geolocations do not poison an otherwise-full set.
        assert_eq!(classify(&[ru, None]), Composition::Full);
    }

    #[test]
    fn series_accumulates_by_kind() {
        let i = Interner::new();
        let d = Date::from_ymd(2022, 3, 1);
        let s = sweep(
            &i,
            d,
            &[
                ("a.ru", &[Some("RU"), Some("RU")], &[Some("US")]),
                ("b.ru", &[Some("RU"), Some("SE")], &[Some("RU")]),
                ("c.ru", &[Some("US")], &[Some("RU"), Some("NL")]),
                ("d.ru", &[], &[]),
            ],
        );

        let mut ns = CompositionSeries::new(InfraKind::NameServers);
        ns.observe(&s, &i);
        let c = ns.at(d).unwrap();
        assert_eq!((c.full, c.partial, c.non, c.unknown), (1, 1, 1, 1));
        assert_eq!(c.total(), 4);
        assert_eq!(c.known(), 3);

        let mut hosting = CompositionSeries::new(InfraKind::Hosting);
        hosting.observe(&s, &i);
        let c = hosting.at(d).unwrap();
        assert_eq!((c.full, c.partial, c.non, c.unknown), (1, 1, 1, 1));
    }

    #[test]
    fn percentages_and_extrema() {
        let d1 = Date::from_ymd(2022, 2, 1);
        let d2 = Date::from_ymd(2022, 3, 1);
        let i = Interner::new();
        let mut series = CompositionSeries::new(InfraKind::NameServers);
        series.observe(
            &sweep(
                &i,
                d1,
                &[("a.ru", &[Some("RU")], &[]), ("b.ru", &[Some("US")], &[])],
            ),
            &i,
        );
        series.observe(
            &sweep(
                &i,
                d2,
                &[("a.ru", &[Some("RU")], &[]), ("b.ru", &[Some("RU")], &[])],
            ),
            &i,
        );
        let ((fd, fc), (ld, lc)) = series.extrema().unwrap();
        assert_eq!(fd, d1);
        assert_eq!(ld, d2);
        assert!((fc.pct_full() - 50.0).abs() < 1e-9);
        assert!((lc.pct_full() - 100.0).abs() < 1e-9);
        assert_eq!(series.rows().count(), 2);
    }
}
