//! The eight study series, folded a frame at a time over one shared
//! classification, read out exactly what per-record observers read out.
//!
//! The oracle below is the per-record design the folds replaced: each
//! series has `begin_frame`, `observe_record` and `end_frame` hooks, the
//! engine calls every hook of every series for every record, and each
//! series classifies what it needs itself, resolving the sanctions list
//! through the interner on every frame. Random multi-frame studies go
//! through both, frame by frame over one interner, and every public
//! readout of every series must agree.

use proptest::prelude::*;
use ruwhere_core::{
    AnalysisEngine, AsnShareSeries, Composition, CompositionCounts, CompositionSeries,
    DatasetStats, FrameObserver, InfraKind, TldDependencySeries, TldUsageSeries, TransitionFlows,
};
use ruwhere_registry::{SanctionSource, SanctionsList};
use ruwhere_store::{
    Completeness, CountrySym, FrameFixture, Interner, InternerSnap, RecordView, SweepFrame,
    SweepStats, Sym, SymSet,
};
use ruwhere_types::{Asn, Date, DomainName};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::net::Ipv4Addr;

/// The per-record oracle: the hooks the folds replaced.
mod oracle {
    use super::*;

    pub trait RecordObserver {
        fn begin_frame(&mut self, _frame: &SweepFrame, _snap: &InternerSnap<'_>) {}
        fn observe_record(&mut self, rec: &RecordView<'_>, snap: &InternerSnap<'_>);
        fn end_frame(&mut self, _frame: &SweepFrame, _snap: &InternerSnap<'_>) {}
    }

    /// Every hook of every observer, every record.
    pub fn observe_frame(
        frame: &SweepFrame,
        interner: &Interner,
        observers: &mut [&mut dyn RecordObserver],
    ) {
        let snap = interner.snapshot();
        for obs in observers.iter_mut() {
            obs.begin_frame(frame, &snap);
        }
        for rec in frame.records() {
            for obs in observers.iter_mut() {
                obs.observe_record(&rec, &snap);
            }
        }
        for obs in observers.iter_mut() {
            obs.end_frame(frame, &snap);
        }
    }

    fn label(russian: usize, other: usize) -> Composition {
        match (russian, other) {
            (0, 0) => Composition::Unknown,
            (_, 0) => Composition::Full,
            (0, _) => Composition::Non,
            _ => Composition::Partial,
        }
    }

    fn classify(countries: &[CountrySym], snap: &InternerSnap<'_>) -> Composition {
        let known = countries.iter().filter(|c| !c.is_none());
        let russian = known
            .clone()
            .filter(|&&c| snap.country_is_russia(c))
            .count();
        label(russian, known.count() - russian)
    }

    pub fn classify_record(
        kind: InfraKind,
        rec: &RecordView<'_>,
        snap: &InternerSnap<'_>,
    ) -> Composition {
        let addrs = match kind {
            InfraKind::NameServers => rec.ns_addrs(),
            InfraKind::Hosting => rec.apex_addrs(),
        };
        classify(addrs.countries(), snap)
    }

    fn bump(counts: &mut CompositionCounts, c: Composition) {
        match c {
            Composition::Full => counts.full += 1,
            Composition::Partial => counts.partial += 1,
            Composition::Non => counts.non += 1,
            Composition::Unknown => counts.unknown += 1,
        }
    }

    pub struct Composed {
        kind: InfraKind,
        sanctions: Option<SanctionsList>,
        pub days: BTreeMap<Date, CompositionCounts>,
        pub partial_days: BTreeSet<Date>,
        counts: CompositionCounts,
        accepted: Option<Vec<Sym>>,
    }

    impl Composed {
        pub fn new(kind: InfraKind, sanctions: Option<SanctionsList>) -> Composed {
            Composed {
                kind,
                sanctions,
                days: BTreeMap::new(),
                partial_days: BTreeSet::new(),
                counts: CompositionCounts::default(),
                accepted: None,
            }
        }

        pub fn imputed_at(&self, date: Date, lookback: u32) -> Option<(CompositionCounts, bool)> {
            let raw = *self.days.get(&date)?;
            if !self.partial_days.contains(&date) {
                return Some((raw, false));
            }
            let donor = self
                .days
                .range(..date)
                .rev()
                .take_while(|(d, _)| (date - **d) as u32 <= lookback)
                .find(|(d, _)| !self.partial_days.contains(*d));
            match donor {
                Some((_, counts)) => Some((*counts, true)),
                None => Some((raw, false)),
            }
        }
    }

    impl RecordObserver for Composed {
        fn begin_frame(&mut self, frame: &SweepFrame, snap: &InternerSnap<'_>) {
            self.counts = CompositionCounts::default();
            self.accepted = self.sanctions.as_ref().map(|list| {
                let mut syms: Vec<Sym> = list
                    .sanctioned_at(frame.date)
                    .into_iter()
                    .filter_map(|d| snap.name_sym(d))
                    .collect();
                syms.sort_unstable();
                syms
            });
        }

        fn observe_record(&mut self, rec: &RecordView<'_>, snap: &InternerSnap<'_>) {
            if let Some(accepted) = &self.accepted {
                if accepted.binary_search(&rec.domain_sym()).is_err() {
                    return;
                }
            }
            bump(&mut self.counts, classify_record(self.kind, rec, snap));
        }

        fn end_frame(&mut self, frame: &SweepFrame, _snap: &InternerSnap<'_>) {
            self.days.insert(frame.date, self.counts);
            if frame.is_partial() {
                self.partial_days.insert(frame.date);
            } else {
                self.partial_days.remove(&frame.date);
            }
        }
    }

    #[derive(Default)]
    pub struct TldDependency {
        pub days: BTreeMap<Date, CompositionCounts>,
        counts: CompositionCounts,
    }

    impl RecordObserver for TldDependency {
        fn begin_frame(&mut self, _frame: &SweepFrame, _snap: &InternerSnap<'_>) {
            self.counts = CompositionCounts::default();
        }

        fn observe_record(&mut self, rec: &RecordView<'_>, snap: &InternerSnap<'_>) {
            let ns = rec.ns_name_syms();
            let ru = ns
                .iter()
                .filter(|&&n| snap.tld_is_russian(snap.tld_of(n)))
                .count();
            bump(&mut self.counts, label(ru, ns.len() - ru));
        }

        fn end_frame(&mut self, frame: &SweepFrame, _snap: &InternerSnap<'_>) {
            self.days.insert(frame.date, self.counts);
        }
    }

    #[derive(Default)]
    pub struct TldUsage {
        pub days: BTreeMap<Date, BTreeMap<String, u64>>,
        pub totals: BTreeMap<Date, u64>,
        counts: BTreeMap<String, u64>,
        total: u64,
    }

    impl RecordObserver for TldUsage {
        fn begin_frame(&mut self, _frame: &SweepFrame, _snap: &InternerSnap<'_>) {
            self.counts.clear();
            self.total = 0;
        }

        fn observe_record(&mut self, rec: &RecordView<'_>, snap: &InternerSnap<'_>) {
            let ns = rec.ns_name_syms();
            if ns.is_empty() {
                return;
            }
            self.total += 1;
            let tlds: BTreeSet<&str> = ns.iter().map(|&n| snap.tld(snap.tld_of(n))).collect();
            for t in tlds {
                *self.counts.entry(t.to_owned()).or_default() += 1;
            }
        }

        fn end_frame(&mut self, frame: &SweepFrame, _snap: &InternerSnap<'_>) {
            self.days
                .insert(frame.date, std::mem::take(&mut self.counts));
            self.totals.insert(frame.date, self.total);
        }
    }

    #[derive(Default)]
    pub struct AsnShare {
        pub days: BTreeMap<Date, BTreeMap<Asn, u64>>,
        pub totals: BTreeMap<Date, u64>,
        counts: BTreeMap<Asn, u64>,
        total: u64,
    }

    impl RecordObserver for AsnShare {
        fn begin_frame(&mut self, _frame: &SweepFrame, _snap: &InternerSnap<'_>) {
            self.counts.clear();
            self.total = 0;
        }

        fn observe_record(&mut self, rec: &RecordView<'_>, _snap: &InternerSnap<'_>) {
            let apex = rec.apex_addrs();
            if apex.is_empty() {
                return;
            }
            self.total += 1;
            let asns: BTreeSet<Asn> = apex.asns().iter().flatten().copied().collect();
            for a in asns {
                *self.counts.entry(a).or_default() += 1;
            }
        }

        fn end_frame(&mut self, frame: &SweepFrame, _snap: &InternerSnap<'_>) {
            self.days
                .insert(frame.date, std::mem::take(&mut self.counts));
            self.totals.insert(frame.date, self.total);
        }
    }

    #[derive(Default)]
    pub struct Dataset {
        pub hosting_asns: HashSet<Asn>,
        pub dns_asns: HashSet<Asn>,
        pub sweeps: u64,
        pub records: u64,
        pub partial_sweeps: u64,
        pub totals: SweepStats,
        pub seen: SymSet,
    }

    impl RecordObserver for Dataset {
        fn begin_frame(&mut self, frame: &SweepFrame, _snap: &InternerSnap<'_>) {
            self.sweeps += 1;
            if frame.is_partial() {
                self.partial_sweeps += 1;
            }
            self.totals.merge(&frame.stats);
        }

        fn observe_record(&mut self, rec: &RecordView<'_>, _snap: &InternerSnap<'_>) {
            self.records += 1;
            self.seen.insert(rec.domain_sym());
            self.hosting_asns
                .extend(rec.apex_addrs().asns().iter().flatten());
            self.dns_asns.extend(rec.ns_addrs().asns().iter().flatten());
        }
    }

    /// Transition flows: the previous frame's labels by domain symbol.
    pub struct Flows {
        kind: InfraKind,
        prev: Option<HashMap<Sym, Composition>>,
        cur: HashMap<Sym, Composition>,
        pub flows: BTreeMap<Date, BTreeMap<(Composition, Composition), u64>>,
        pub appeared: BTreeMap<Date, u64>,
        pub disappeared: BTreeMap<Date, u64>,
    }

    impl Flows {
        pub fn new(kind: InfraKind) -> Flows {
            Flows {
                kind,
                prev: None,
                cur: HashMap::new(),
                flows: BTreeMap::new(),
                appeared: BTreeMap::new(),
                disappeared: BTreeMap::new(),
            }
        }
    }

    impl RecordObserver for Flows {
        fn begin_frame(&mut self, _frame: &SweepFrame, _snap: &InternerSnap<'_>) {
            self.cur.clear();
        }

        fn observe_record(&mut self, rec: &RecordView<'_>, snap: &InternerSnap<'_>) {
            let c = classify_record(self.kind, rec, snap);
            self.cur.insert(rec.domain_sym(), c);
        }

        fn end_frame(&mut self, frame: &SweepFrame, _snap: &InternerSnap<'_>) {
            let cur = std::mem::take(&mut self.cur);
            if let Some(prev) = &self.prev {
                let mut flows = BTreeMap::new();
                for (sym, &to) in &cur {
                    if let Some(&from) = prev.get(sym) {
                        if from != to {
                            *flows.entry((from, to)).or_default() += 1;
                        }
                    }
                }
                let appeared = cur.keys().filter(|s| !prev.contains_key(s)).count();
                let gone = prev.keys().filter(|s| !cur.contains_key(s)).count();
                self.flows.insert(frame.date, flows);
                self.appeared.insert(frame.date, appeared as u64);
                self.disappeared.insert(frame.date, gone as u64);
            }
            self.prev = Some(cur);
        }
    }
}

const COUNTRIES: [Option<&str>; 5] = [Some("RU"), Some("US"), Some("DE"), Some("SE"), None];
const NS_TLDS: [&str; 5] = ["ru", "xn--p1ai", "com", "net", "org"];
/// Domains `d0 ..` that frames draw from; sanctions also name two more
/// that never appear.
const DOMAINS: usize = 12;

fn domain(i: usize) -> String {
    let tld = if i % 3 == 2 { "xn--p1ai" } else { "ru" };
    format!("d{i}.{tld}")
}

/// `(country index, ASN index)`: ASN index 0 is "no ASN".
type AddrSpec = (usize, u32);

#[derive(Debug, Clone)]
struct RecSpec {
    domain: usize,
    /// `(host index, TLD index)` per NS name.
    ns: Vec<(usize, usize)>,
    ns_addrs: Vec<AddrSpec>,
    apex_addrs: Vec<AddrSpec>,
}

#[derive(Debug, Clone)]
struct FrameSpec {
    /// Days after the previous frame's date, minus two: frames mostly
    /// move forward, and sometimes repeat a date or step back.
    step: i32,
    partial: bool,
    queries: u64,
    timeouts: u64,
    records: Vec<RecSpec>,
}

fn arb_addrs(max: usize) -> impl Strategy<Value = Vec<AddrSpec>> {
    prop::collection::vec((0usize..COUNTRIES.len(), 0u32..4), 0..max)
}

fn arb_record() -> impl Strategy<Value = RecSpec> {
    (
        0..DOMAINS,
        prop::collection::vec((0usize..4, 0..NS_TLDS.len()), 0..4),
        arb_addrs(5),
        arb_addrs(4),
    )
        .prop_map(|(domain, ns, ns_addrs, apex_addrs)| RecSpec {
            domain,
            ns,
            ns_addrs,
            apex_addrs,
        })
}

fn arb_frame() -> impl Strategy<Value = FrameSpec> {
    (
        0i32..6,
        0u32..4,
        0u64..50,
        0u64..5,
        prop::collection::vec(arb_record(), 0..10),
    )
        .prop_map(|(step, partial, queries, timeouts, records)| FrameSpec {
            step: step - 2,
            partial: partial == 0,
            queries,
            timeouts,
            records,
        })
}

/// `(domain index, days after the first frame's date, UK or US list)`.
fn arb_sanctions() -> impl Strategy<Value = Vec<(usize, i32, bool)>> {
    prop::collection::vec((0..DOMAINS + 2, 0i32..12, any::<bool>()), 0..6)
}

fn build(interner: &Interner, date: Date, spec: &FrameSpec) -> SweepFrame {
    let mut f = FrameFixture::new(date, interner);
    let mut seen = HashSet::new();
    let addr = |i: usize, &(cc, asn): &AddrSpec| {
        let cc = COUNTRIES[cc].map(|c| c.parse().unwrap());
        let asn = (asn > 0).then(|| Asn(100 + asn));
        (Ipv4Addr::new(10, 0, 0, i as u8), cc, asn)
    };
    for rec in &spec.records {
        // One record per domain in a frame, as in a sweep.
        if !seen.insert(rec.domain) {
            continue;
        }
        f.domain(&domain(rec.domain));
        for &(host, tld) in &rec.ns {
            f.ns(&format!("ns{host}.p{host}.{}", NS_TLDS[tld]));
        }
        for (i, a) in rec.ns_addrs.iter().enumerate() {
            let (ip, cc, asn) = addr(i, a);
            f.ns_addr(ip, cc, asn);
        }
        for (i, a) in rec.apex_addrs.iter().enumerate() {
            let (ip, cc, asn) = addr(i, a);
            f.apex_addr(ip, cc, asn);
        }
    }
    let stats = SweepStats {
        queries: spec.queries,
        timeouts: spec.timeouts,
        completeness: if spec.partial {
            Completeness::Partial
        } else {
            Completeness::Full
        },
        ..SweepStats::default()
    };
    f.finish(stats)
}

const LABELS: [Composition; 4] = [
    Composition::Full,
    Composition::Partial,
    Composition::Non,
    Composition::Unknown,
];

fn check_composition(new: &CompositionSeries, old: &oracle::Composed, dates: &[Date]) {
    let rows: Vec<(Date, CompositionCounts)> = new.rows().map(|(d, c)| (d, *c)).collect();
    let old_rows: Vec<(Date, CompositionCounts)> = old.days.iter().map(|(d, c)| (*d, *c)).collect();
    assert_eq!(rows, old_rows);
    let first = old_rows.first().copied();
    let last = old_rows.last().copied();
    assert_eq!(new.extrema(), first.zip(last));
    for &d in dates {
        assert_eq!(new.at(d), old.days.get(&d));
        assert_eq!(new.is_partial_day(d), old.partial_days.contains(&d));
        for lookback in [0, 1, 2, 7, 30] {
            assert_eq!(new.imputed_at(d, lookback), old.imputed_at(d, lookback));
        }
    }
}

fn check_tld_dependency(new: &TldDependencySeries, old: &oracle::TldDependency, dates: &[Date]) {
    let rows: Vec<(Date, CompositionCounts)> = new.rows().map(|(d, c)| (d, *c)).collect();
    let old_rows: Vec<(Date, CompositionCounts)> = old.days.iter().map(|(d, c)| (*d, *c)).collect();
    assert_eq!(rows, old_rows);
    for &d in dates {
        assert_eq!(new.at(d), old.days.get(&d));
    }
    let old_net = old.days.values().next().zip(old.days.values().next_back());
    let old_net = old_net.map(|(f, l)| {
        (
            l.pct_full() - f.pct_full(),
            l.pct_partial() - f.pct_partial(),
            l.pct_non() - f.pct_non(),
        )
    });
    assert_eq!(new.net_change(), old_net);
}

fn check_tld_usage(new: &TldUsageSeries, old: &oracle::TldUsage, dates: &[Date]) {
    assert_eq!(
        new.dates().collect::<Vec<_>>(),
        old.days.keys().copied().collect::<Vec<_>>()
    );
    let all: BTreeSet<&String> = old.days.values().flat_map(|m| m.keys()).collect();
    assert_eq!(new.distinct_tlds(), all.len());
    for &d in dates {
        for tld in NS_TLDS.iter().chain(&["unused"]) {
            let old_share = old
                .days
                .get(&d)
                .zip(old.totals.get(&d))
                .map(|(m, &t)| 100.0 * *m.get(*tld).unwrap_or(&0) as f64 / (t as f64).max(1.0));
            assert_eq!(new.share(d, tld), old_share, "{tld} on {d}");
        }
    }
    let last = old.days.values().next_back();
    for n in 0..=NS_TLDS.len() + 1 {
        let mut v: Vec<(&String, &u64)> = last.into_iter().flatten().collect();
        v.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
        let top: Vec<String> = v.into_iter().take(n).map(|(t, _)| t.clone()).collect();
        assert_eq!(new.top_tlds(n), top);
    }
}

fn check_asn_share(new: &AsnShareSeries, old: &oracle::AsnShare, dates: &[Date]) {
    assert_eq!(
        new.dates().collect::<Vec<_>>(),
        old.days.keys().copied().collect::<Vec<_>>()
    );
    let all: BTreeSet<&Asn> = old.days.values().flat_map(|m| m.keys()).collect();
    assert_eq!(new.distinct_asns(), all.len());
    for &d in dates {
        assert_eq!(new.total(d), old.totals.get(&d).copied());
        for asn in (100..105).map(Asn) {
            let count = old.days.get(&d).and_then(|m| m.get(&asn)).copied();
            let count = count.unwrap_or(0);
            assert_eq!(new.count(d, asn), count);
            let share = old
                .totals
                .get(&d)
                .map(|&t| 100.0 * count as f64 / (t as f64).max(1.0));
            assert_eq!(new.share(d, asn), share);
        }
    }
}

fn check_dataset(new: &DatasetStats, old: &oracle::Dataset) {
    assert_eq!(new.unique_domains(), old.seen.len());
    assert_eq!(new.hosting_asns(), old.hosting_asns.len());
    assert_eq!(new.dns_asns(), old.dns_asns.len());
    assert_eq!(new.sweeps(), old.sweeps);
    assert_eq!(new.records(), old.records);
    assert_eq!(new.partial_sweeps(), old.partial_sweeps);
    assert_eq!(new.queries(), old.totals.queries);
    assert_eq!(new.timeouts(), old.totals.timeouts);
    assert_eq!(new.servfails(), old.totals.servfails);
    assert_eq!(new.lame(), old.totals.lame);
    assert_eq!(new.retries_spent(), old.totals.retries_spent);
}

fn check_flows(new: &TransitionFlows, old: &oracle::Flows, dates: &[Date]) {
    assert_eq!(
        new.dates().collect::<Vec<_>>(),
        old.flows.keys().copied().collect::<Vec<_>>()
    );
    for &d in dates {
        assert_eq!(new.appeared(d), old.appeared.get(&d).copied().unwrap_or(0));
        assert_eq!(
            new.disappeared(d),
            old.disappeared.get(&d).copied().unwrap_or(0)
        );
        let mut on: Vec<((Composition, Composition), u64)> = old
            .flows
            .get(&d)
            .into_iter()
            .flatten()
            .map(|(&t, &n)| (t, n))
            .collect();
        on.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
        assert_eq!(new.on(d), on);
    }
    for from in LABELS {
        for to in LABELS {
            let count = |m: &BTreeMap<(Composition, Composition), u64>| {
                m.get(&(from, to)).copied().unwrap_or(0)
            };
            for &d in dates {
                let old_count = old.flows.get(&d).map_or(0, count);
                assert_eq!(new.count(d, from, to), old_count);
            }
            let total: u64 = old.flows.values().map(count).sum();
            assert_eq!(new.total(from, to), total);
            let peak = old
                .flows
                .iter()
                .map(|(d, m)| (*d, count(m)))
                .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
                .filter(|(_, n)| *n > 0);
            assert_eq!(new.peak(from, to), peak);
        }
    }
}

/// Fold `frames` through the engine's eight series and through the
/// oracle's, building each frame just before it is folded (so names
/// arrive in the interner day by day, as in a study), and compare every
/// readout.
fn assert_equivalent(frames: &[FrameSpec], sanctions: &[(usize, i32, bool)]) {
    let start = Date::from_ymd(2022, 2, 20);
    let mut list = SanctionsList::new();
    for &(i, offset, uk) in sanctions {
        let source = if uk {
            SanctionSource::UkSanctions
        } else {
            SanctionSource::UsOfacSdn
        };
        let name: DomainName = domain(i).parse().unwrap();
        list.add(name, source, start.add_days(offset));
    }

    let mut ns = CompositionSeries::new(InfraKind::NameServers);
    let mut hosting = CompositionSeries::new(InfraKind::Hosting);
    let mut sanctioned = CompositionSeries::sanctioned(InfraKind::NameServers, list.clone());
    let mut tld_dependency = TldDependencySeries::new();
    let mut tld_usage = TldUsageSeries::new();
    let mut asn_share = AsnShareSeries::new();
    let mut dataset = DatasetStats::new();
    let mut transitions = TransitionFlows::new(InfraKind::NameServers);
    let mut hosting_flows = TransitionFlows::new(InfraKind::Hosting);
    let mut engine = AnalysisEngine::new();

    let mut o_ns = oracle::Composed::new(InfraKind::NameServers, None);
    let mut o_hosting = oracle::Composed::new(InfraKind::Hosting, None);
    let mut o_sanctioned = oracle::Composed::new(InfraKind::NameServers, Some(list));
    let mut o_tld_dependency = oracle::TldDependency::default();
    let mut o_tld_usage = oracle::TldUsage::default();
    let mut o_asn_share = oracle::AsnShare::default();
    let mut o_dataset = oracle::Dataset::default();
    let mut o_transitions = oracle::Flows::new(InfraKind::NameServers);
    let mut o_hosting_flows = oracle::Flows::new(InfraKind::Hosting);

    let interner = Interner::new();
    let mut date = start;
    let mut dates = BTreeSet::new();
    let mut records = 0;
    for spec in frames {
        date = date.add_days(spec.step);
        dates.insert(date);
        let frame = build(&interner, date, spec);
        records += frame.len() as u64;
        engine.observe_frame(
            &frame,
            &interner,
            &mut [
                &mut ns,
                &mut hosting,
                &mut sanctioned,
                &mut tld_dependency,
                &mut tld_usage,
                &mut asn_share,
                &mut dataset,
                &mut transitions,
                &mut hosting_flows,
            ],
        );
        oracle::observe_frame(
            &frame,
            &interner,
            &mut [
                &mut o_ns,
                &mut o_hosting,
                &mut o_sanctioned,
                &mut o_tld_dependency,
                &mut o_tld_usage,
                &mut o_asn_share,
                &mut o_dataset,
                &mut o_transitions,
                &mut o_hosting_flows,
            ],
        );
    }
    // Dates no frame carried read as absent on both sides.
    dates.insert(start.add_days(-1));
    dates.insert(date.add_days(1));
    let dates: Vec<Date> = dates.into_iter().collect();

    check_composition(&ns, &o_ns, &dates);
    check_composition(&hosting, &o_hosting, &dates);
    check_composition(&sanctioned, &o_sanctioned, &dates);
    check_tld_dependency(&tld_dependency, &o_tld_dependency, &dates);
    check_tld_usage(&tld_usage, &o_tld_usage, &dates);
    check_asn_share(&asn_share, &o_asn_share, &dates);
    check_dataset(&dataset, &o_dataset);
    check_flows(&transitions, &o_transitions, &dates);
    check_flows(&hosting_flows, &o_hosting_flows, &dates);

    assert_eq!(engine.frames(), frames.len() as u64);
    assert_eq!(engine.record_visits(), records);
    assert_eq!(engine.observer_dispatches(), 9 * frames.len() as u64);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn folds_read_out_what_per_record_observers_read_out(
        frames in prop::collection::vec(arb_frame(), 1..9),
        sanctions in arb_sanctions(),
    ) {
        assert_equivalent(&frames, &sanctions);
    }
}

/// A sanctioned name listed before any frame holds it must join the
/// sanctioned series on the day it is first measured, though the list
/// has not grown since.
#[test]
fn a_name_listed_before_it_is_interned_is_counted_when_it_arrives() {
    let rec = |domain| RecSpec {
        domain,
        ns: vec![(0, 0)],
        ns_addrs: vec![(0, 1)],
        apex_addrs: vec![(1, 2)],
    };
    let frame = |records| FrameSpec {
        step: 1,
        partial: false,
        queries: 0,
        timeouts: 0,
        records,
    };
    let frames = [
        frame(vec![rec(0)]),
        frame(vec![rec(0)]),
        frame(vec![rec(0), rec(1)]),
        frame(vec![rec(1)]),
    ];
    assert_equivalent(&frames, &[(1, 0, false)]);

    let mut list = SanctionsList::new();
    list.add(
        domain(1).parse().unwrap(),
        SanctionSource::UsOfacSdn,
        Date::from_ymd(2022, 1, 1),
    );
    let mut series = CompositionSeries::sanctioned(InfraKind::NameServers, list);
    let interner = Interner::new();
    let mut date = Date::from_ymd(2022, 2, 20);
    for spec in &frames {
        date = date.add_days(spec.step);
        series.observe(&build(&interner, date, spec), &interner);
    }
    let totals: Vec<u64> = series.rows().map(|(_, c)| c.total()).collect();
    assert_eq!(totals, [0, 0, 1, 1]);
}
