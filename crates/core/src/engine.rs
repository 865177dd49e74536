//! Single-pass analysis engine over columnar sweep frames.
//!
//! Each series implements [`FrameObserver`]: a pure fold of one whole
//! [`SweepFrame`] into the series' per-date state. [`AnalysisEngine`]
//! classifies each frame **once** — every record's name-server and
//! hosting [`Composition`], into a reused [`FrameCodes`] block — and then
//! hands the frame, its codes and one interner snapshot to every
//! registered series. The composition series count codes, the transition
//! flows compare them across frames, and the TLD, ASN and dataset series
//! walk the frame's own columns; no series classifies a record again, and
//! nothing is dispatched per record. A lone series (a test, an example)
//! folds a frame through the provided [`FrameObserver::observe`], which
//! builds the codes itself.
//!
//! # Contract
//!
//! * Every frame handed to one engine (and the observers behind it) must
//!   come from **one** [`Interner`] — symbols are only comparable within
//!   the interner that assigned them. `run_study` threads a single
//!   `Arc<Interner>` from the scanner through every observer.
//! * `codes` holds one entry per record of `frame`, in frame
//!   (zone-snapshot) order, classified under `snap`.
//!
//! The engine also counts its work: `repro --report` prints the counts
//! and `studybench` reports them as `core.record_visits` (one per record
//! per frame) and `core.observer_dispatches` (one per series per frame).

use crate::composition::{Composition, InfraKind};
use ruwhere_store::{CountrySym, Interner, InternerSnap, SweepFrame};

/// One frame's classification: each record's name-server and hosting
/// [`Composition`], in frame order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FrameCodes {
    ns: Vec<Composition>,
    hosting: Vec<Composition>,
}

impl FrameCodes {
    /// Classify every record of `frame` under `snap`.
    pub fn of(frame: &SweepFrame, snap: &InternerSnap<'_>) -> FrameCodes {
        let mut codes = FrameCodes::default();
        codes.classify(frame, snap);
        codes
    }

    /// Reclassify into the existing columns (their capacity is reused).
    fn classify(&mut self, frame: &SweepFrame, snap: &InternerSnap<'_>) {
        fn column(
            out: &mut Vec<Composition>,
            offsets: &[u32],
            countries: &[CountrySym],
            snap: &InternerSnap<'_>,
        ) {
            out.clear();
            out.extend(offsets.windows(2).map(|w| {
                Composition::classify_syms(&countries[w[0] as usize..w[1] as usize], snap)
            }));
        }
        let (ns, apex) = (&frame.ns_addrs, &frame.apex_addrs);
        column(&mut self.ns, &frame.ns_addr_offsets, &ns.countries, snap);
        column(
            &mut self.hosting,
            &frame.apex_addr_offsets,
            &apex.countries,
            snap,
        );
    }

    /// The codes of `kind`, one per record in frame order.
    pub fn of_kind(&self, kind: InfraKind) -> &[Composition] {
        match kind {
            InfraKind::NameServers => &self.ns,
            InfraKind::Hosting => &self.hosting,
        }
    }
}

/// A series that folds whole frames: the per-frame hook of the
/// single-pass walk.
pub trait FrameObserver {
    /// Fold one frame into this series. `codes` is the frame's
    /// classification under `snap` (see the module docs).
    fn fold(&mut self, frame: &SweepFrame, codes: &FrameCodes, snap: &InternerSnap<'_>);

    /// Fold one whole frame into this observer alone, classifying it
    /// first. `interner` must be the interner that built `frame`, and
    /// every frame one observer sees must come from that same interner
    /// (see the module docs).
    fn observe(&mut self, frame: &SweepFrame, interner: &Interner) {
        let snap = interner.snapshot();
        self.fold(frame, &FrameCodes::of(frame, &snap), &snap);
    }
}

/// Classifies each frame once and folds it into every observer, counting
/// the work it does.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AnalysisEngine {
    frames: u64,
    record_visits: u64,
    observer_dispatches: u64,
    /// The current frame's classification, reused across frames.
    codes: FrameCodes,
}

impl AnalysisEngine {
    /// A fresh engine with zeroed counters.
    pub fn new() -> AnalysisEngine {
        AnalysisEngine::default()
    }

    /// Classify `frame` once, then fold it into every observer.
    ///
    /// Takes one interner snapshot for the whole frame; `interner` must be
    /// the interner that built `frame` (see the module docs).
    pub fn observe_frame(
        &mut self,
        frame: &SweepFrame,
        interner: &Interner,
        observers: &mut [&mut dyn FrameObserver],
    ) {
        let snap = interner.snapshot();
        self.codes.classify(frame, &snap);
        self.frames += 1;
        self.record_visits += frame.len() as u64;
        self.observer_dispatches += observers.len() as u64;
        for obs in observers.iter_mut() {
            obs.fold(frame, &self.codes, &snap);
        }
    }

    /// Frames walked so far.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Records classified so far — one per record per frame, however many
    /// series fold the frame.
    pub fn record_visits(&self) -> u64 {
        self.record_visits
    }

    /// Observer folds so far: one per series per frame.
    pub fn observer_dispatches(&self) -> u64 {
        self.observer_dispatches
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruwhere_store::{FrameFixture, SweepStats};
    use ruwhere_types::{Country, Date};

    /// Counts folds and the records and NS codes it was handed.
    #[derive(Default)]
    struct Counter {
        folds: u32,
        records: usize,
        full_ns: usize,
    }

    impl FrameObserver for Counter {
        fn fold(&mut self, frame: &SweepFrame, codes: &FrameCodes, _snap: &InternerSnap<'_>) {
            self.folds += 1;
            self.records += frame.len();
            let ns = codes.of_kind(InfraKind::NameServers);
            self.full_ns += ns.iter().filter(|&&c| c == Composition::Full).count();
        }
    }

    fn three_records(interner: &Interner) -> SweepFrame {
        let mut f = FrameFixture::new(Date::from_ymd(2022, 3, 1), interner);
        for name in ["a.ru", "b.ru", "c.ru"] {
            f.domain(name)
                .ns_addr([10, 0, 0, 1].into(), Some(Country::RU), None);
        }
        f.finish(SweepStats::default())
    }

    #[test]
    fn one_classification_folds_into_all_observers() {
        let interner = Interner::new();
        let frame = three_records(&interner);

        let mut engine = AnalysisEngine::new();
        let (mut x, mut y) = (Counter::default(), Counter::default());
        engine.observe_frame(&frame, &interner, &mut [&mut x, &mut y]);

        for c in [&x, &y] {
            assert_eq!((c.folds, c.records, c.full_ns), (1, 3, 3));
        }
        assert_eq!(engine.frames(), 1);
        assert_eq!(engine.record_visits(), 3, "one visit per record, shared");
        assert_eq!(engine.observer_dispatches(), 2, "one fold per series");
    }

    #[test]
    fn observe_folds_one_observer_through_a_frame() {
        let interner = Interner::new();
        let frame = three_records(&interner);
        let mut c = Counter::default();
        c.observe(&frame, &interner);
        c.observe(&frame, &interner);
        assert_eq!((c.folds, c.records, c.full_ns), (2, 6, 6));
    }

    #[test]
    fn codes_hold_one_entry_per_record_and_kind() {
        let interner = Interner::new();
        let mut f = FrameFixture::new(Date::from_ymd(2022, 3, 1), &interner);
        f.domain("a.ru")
            .ns_addr([10, 0, 0, 1].into(), Some(Country::RU), None)
            .ns_addr([10, 0, 0, 2].into(), Some(Country::SE), None)
            .apex_addr([10, 0, 1, 1].into(), Some(Country::US), None);
        f.domain("b.ru");
        let frame = f.finish(SweepStats::default());
        let codes = FrameCodes::of(&frame, &interner.snapshot());
        use Composition::*;
        assert_eq!(codes.of_kind(InfraKind::NameServers), [Partial, Unknown]);
        assert_eq!(codes.of_kind(InfraKind::Hosting), [Non, Unknown]);
    }
}
