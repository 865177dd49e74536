//! Single-pass analysis engine over columnar sweep frames.
//!
//! Each series implements [`FrameObserver`], and [`AnalysisEngine`]
//! makes **one** walk per [`SweepFrame`], dispatching every record view
//! to all registered observers under a single interner snapshot — one
//! record visit per record, however many series ride the walk. A lone
//! series (a test, an example) folds a frame through the provided
//! [`FrameObserver::observe`] instead.
//!
//! # Contract
//!
//! * Every frame handed to one engine (and the observers behind it) must
//!   come from **one** [`Interner`] — symbols are only comparable within
//!   the interner that assigned them. `run_study` threads a single
//!   `Arc<Interner>` from the scanner through every observer.
//! * `begin_frame` → `observe_record`×n → `end_frame` is called in that
//!   order, records in frame (zone-snapshot) order, so observers may
//!   keep per-frame scratch without further synchronisation.
//!
//! The engine also counts record visits and observer dispatches; `repro
//! --report` prints them and `studybench` reports them as
//! `core.record_visits` and `core.observer_dispatches`.

use ruwhere_store::{Interner, InternerSnap, RecordView, SweepFrame};

/// Per-record hooks a series implements to join the single-pass walk.
///
/// Only [`observe_record`] is required; the frame-boundary hooks default
/// to no-ops for observers without per-frame scratch.
///
/// [`observe_record`]: FrameObserver::observe_record
pub trait FrameObserver {
    /// Called once before the record walk of each frame.
    fn begin_frame(&mut self, _frame: &SweepFrame, _snap: &InternerSnap<'_>) {}

    /// Called for every record of the frame, in frame order.
    fn observe_record(&mut self, rec: &RecordView<'_>, snap: &InternerSnap<'_>);

    /// Called once after the record walk of each frame.
    fn end_frame(&mut self, _frame: &SweepFrame, _snap: &InternerSnap<'_>) {}

    /// Fold one whole frame into this observer alone: `begin_frame`, every
    /// record, `end_frame`. `interner` must be the interner that built
    /// `frame`, and every frame one observer sees must come from that same
    /// interner (see the module docs).
    fn observe(&mut self, frame: &SweepFrame, interner: &Interner) {
        let snap = interner.snapshot();
        self.begin_frame(frame, &snap);
        for rec in frame.records() {
            self.observe_record(&rec, &snap);
        }
        self.end_frame(frame, &snap);
    }
}

/// Drives all observers through a frame in one record walk, counting
/// the work it does.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AnalysisEngine {
    frames: u64,
    record_visits: u64,
    observer_dispatches: u64,
}

impl AnalysisEngine {
    /// A fresh engine with zeroed counters.
    pub fn new() -> AnalysisEngine {
        AnalysisEngine::default()
    }

    /// Walk `frame` once, dispatching each record to every observer.
    ///
    /// Takes one interner snapshot for the whole walk; `interner` must be
    /// the interner that built `frame` (see the module docs).
    pub fn observe_frame(
        &mut self,
        frame: &SweepFrame,
        interner: &Interner,
        observers: &mut [&mut dyn FrameObserver],
    ) {
        let snap = interner.snapshot();
        self.frames += 1;
        for obs in observers.iter_mut() {
            obs.begin_frame(frame, &snap);
        }
        for rec in frame.records() {
            self.record_visits += 1;
            self.observer_dispatches += observers.len() as u64;
            for obs in observers.iter_mut() {
                obs.observe_record(&rec, &snap);
            }
        }
        for obs in observers.iter_mut() {
            obs.end_frame(frame, &snap);
        }
    }

    /// Frames walked so far.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Records visited so far — one per record per frame, *not* per
    /// observer. The multi-pass baseline visits `observers × records`.
    pub fn record_visits(&self) -> u64 {
        self.record_visits
    }

    /// Observer dispatches so far (`record_visits × observers`): the same
    /// per-record work the old design did, minus the extra walks.
    pub fn observer_dispatches(&self) -> u64 {
        self.observer_dispatches
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruwhere_store::{FrameFixture, SweepStats};
    use ruwhere_types::Date;

    #[derive(Default)]
    struct Counter {
        begins: u32,
        records: u32,
        ends: u32,
    }

    impl FrameObserver for Counter {
        fn begin_frame(&mut self, _frame: &SweepFrame, _snap: &InternerSnap<'_>) {
            self.begins += 1;
        }
        fn observe_record(&mut self, _rec: &RecordView<'_>, _snap: &InternerSnap<'_>) {
            self.records += 1;
        }
        fn end_frame(&mut self, _frame: &SweepFrame, _snap: &InternerSnap<'_>) {
            self.ends += 1;
        }
    }

    fn three_records(interner: &Interner) -> SweepFrame {
        let mut f = FrameFixture::new(Date::from_ymd(2022, 3, 1), interner);
        for name in ["a.ru", "b.ru", "c.ru"] {
            f.domain(name);
        }
        f.finish(SweepStats::default())
    }

    #[test]
    fn one_walk_dispatches_to_all_observers() {
        let interner = Interner::new();
        let frame = three_records(&interner);

        let mut engine = AnalysisEngine::new();
        let (mut x, mut y) = (Counter::default(), Counter::default());
        engine.observe_frame(&frame, &interner, &mut [&mut x, &mut y]);

        for c in [&x, &y] {
            assert_eq!((c.begins, c.records, c.ends), (1, 3, 1));
        }
        assert_eq!(engine.frames(), 1);
        assert_eq!(engine.record_visits(), 3, "one visit per record, shared");
        assert_eq!(engine.observer_dispatches(), 6);
    }

    #[test]
    fn observe_folds_one_observer_through_a_frame() {
        let interner = Interner::new();
        let frame = three_records(&interner);
        let mut c = Counter::default();
        c.observe(&frame, &interner);
        c.observe(&frame, &interner);
        assert_eq!((c.begins, c.records, c.ends), (2, 6, 2));
    }
}
