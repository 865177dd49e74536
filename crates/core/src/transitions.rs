//! Composition transition flows between consecutive sweeps.
//!
//! Figure 1's aggregate curves hide *which* domains moved. This module
//! tracks per-domain composition across sweeps and counts transitions
//! (full→partial, partial→full, …) per date — the evidence behind §3.1's
//! "many domains with name servers partially outside Russia clearly
//! transition towards fully Russian" and the Netnod attribution in §3.2.

use crate::composition::{Composition, InfraKind};
use crate::engine::{FrameCodes, FrameObserver};
use ruwhere_store::{InternerSnap, SweepFrame};
use ruwhere_types::Date;
use std::collections::BTreeMap;

/// A directed composition transition.
pub type Transition = (Composition, Composition);

/// Per-date transition counts plus appearance/disappearance tallies.
///
/// Cross-sweep state is symbol-indexed, so one instance must see frames
/// from **one** interner (the engine contract).
#[derive(Debug, Clone)]
pub struct TransitionFlows {
    kind: InfraKind,
    /// Per domain symbol: the number of the last frame it appeared in
    /// (frames number from 1, so 0 is never) and its composition there.
    last_seen: Vec<(u32, Composition)>,
    /// Frames folded so far.
    frames: u32,
    /// Records in the previous frame.
    prev_len: u64,
    /// date → (from, to) → count; only changed domains are recorded.
    flows: BTreeMap<Date, BTreeMap<Transition, u64>>,
    appeared: BTreeMap<Date, u64>,
    disappeared: BTreeMap<Date, u64>,
}

impl TransitionFlows {
    /// Track transitions of `kind`.
    pub fn new(kind: InfraKind) -> Self {
        TransitionFlows {
            kind,
            last_seen: Vec::new(),
            frames: 0,
            prev_len: 0,
            flows: BTreeMap::new(),
            appeared: BTreeMap::new(),
            disappeared: BTreeMap::new(),
        }
    }

    /// Count of `from → to` transitions landing on `date`.
    pub fn count(&self, date: Date, from: Composition, to: Composition) -> u64 {
        self.flows
            .get(&date)
            .and_then(|m| m.get(&(from, to)))
            .copied()
            .unwrap_or(0)
    }

    /// All transitions on `date`, largest first.
    pub fn on(&self, date: Date) -> Vec<(Transition, u64)> {
        let Some(m) = self.flows.get(&date) else {
            return Vec::new();
        };
        let mut v: Vec<(Transition, u64)> = m.iter().map(|(&t, &n)| (t, n)).collect();
        v.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
        v
    }

    /// The date with the most transitions of `from → to` — e.g. the Netnod
    /// day for partial→full.
    pub fn peak(&self, from: Composition, to: Composition) -> Option<(Date, u64)> {
        self.flows
            .iter()
            .map(|(d, m)| (*d, m.get(&(from, to)).copied().unwrap_or(0)))
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
            .filter(|(_, n)| *n > 0)
    }

    /// Total transitions of `from → to` across all dates.
    pub fn total(&self, from: Composition, to: Composition) -> u64 {
        self.flows.values().filter_map(|m| m.get(&(from, to))).sum()
    }

    /// New domains appearing on `date` (registrations since last sweep).
    pub fn appeared(&self, date: Date) -> u64 {
        self.appeared.get(&date).copied().unwrap_or(0)
    }

    /// Domains disappearing by `date` (lapsed since last sweep).
    pub fn disappeared(&self, date: Date) -> u64 {
        self.disappeared.get(&date).copied().unwrap_or(0)
    }

    /// Dates with transition data (all but the first sweep).
    pub fn dates(&self) -> impl Iterator<Item = Date> + '_ {
        self.flows.keys().copied()
    }
}

impl FrameObserver for TransitionFlows {
    fn fold(&mut self, frame: &SweepFrame, codes: &FrameCodes, _snap: &InternerSnap<'_>) {
        let prev = self.frames;
        self.frames += 1;
        let mut flows: BTreeMap<Transition, u64> = BTreeMap::new();
        let mut appeared = 0u64;
        for (&sym, &to) in frame.domains.iter().zip(codes.of_kind(self.kind)) {
            if self.last_seen.len() <= sym.index() {
                self.last_seen
                    .resize(sym.index() + 1, (0, Composition::Unknown));
            }
            let (frame_no, from) =
                std::mem::replace(&mut self.last_seen[sym.index()], (self.frames, to));
            if frame_no != prev || prev == 0 {
                appeared += 1;
            } else if from != to {
                *flows.entry((from, to)).or_default() += 1;
            }
        }
        if prev > 0 {
            // Each sweep holds one record per domain, so the previous
            // domains not matched by the current sweep are exactly the
            // disappearances.
            let matched = frame.len() as u64 - appeared;
            self.flows.insert(frame.date, flows);
            self.appeared.insert(frame.date, appeared);
            self.disappeared.insert(frame.date, self.prev_len - matched);
        }
        self.prev_len = frame.len() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruwhere_store::{FrameFixture, Interner, SweepStats};
    use ruwhere_types::Asn;
    use std::net::Ipv4Addr;

    /// `(domain, NS-address countries)`.
    type Rec<'a> = (&'a str, &'a [&'a str]);

    fn sweep(interner: &Interner, date: Date, recs: &[Rec<'_>]) -> SweepFrame {
        let mut f = FrameFixture::new(date, interner);
        for (domain, countries) in recs {
            f.domain(domain);
            for (i, cc) in countries.iter().enumerate() {
                let ip = Ipv4Addr::new(10, 0, 0, i as u8 + 1);
                f.ns_addr(ip, Some(cc.parse().unwrap()), Some(Asn(1)));
            }
        }
        f.finish(SweepStats::default())
    }

    #[test]
    fn flows_track_changes_only() {
        let i = Interner::new();
        let mut flows = TransitionFlows::new(InfraKind::NameServers);
        let d1 = Date::from_ymd(2022, 3, 2);
        let d2 = Date::from_ymd(2022, 3, 3);
        flows.observe(
            &sweep(
                &i,
                d1,
                &[
                    ("a.ru", &["RU", "SE"]),
                    ("b.ru", &["RU", "SE"]),
                    ("c.ru", &["RU"]),
                    ("d.ru", &["US"]),
                ],
            ),
            &i,
        );
        // No transitions recorded for the first sweep.
        assert_eq!(flows.dates().count(), 0);

        flows.observe(
            &sweep(
                &i,
                d2,
                &[
                    ("a.ru", &["RU", "RU"]), // partial → full
                    ("b.ru", &["RU"]),       // partial → full
                    ("c.ru", &["RU"]),       // unchanged
                    ("e.ru", &["RU"]),       // appeared
                                             // d.ru disappeared
                ],
            ),
            &i,
        );
        assert_eq!(flows.count(d2, Composition::Partial, Composition::Full), 2);
        assert_eq!(flows.count(d2, Composition::Full, Composition::Partial), 0);
        assert_eq!(flows.appeared(d2), 1);
        assert_eq!(flows.disappeared(d2), 1);
        let on = flows.on(d2);
        assert_eq!(on.len(), 1);
        assert_eq!(on[0], ((Composition::Partial, Composition::Full), 2));
    }

    #[test]
    fn peak_finds_the_event_day() {
        let i = Interner::new();
        let mut flows = TransitionFlows::new(InfraKind::NameServers);
        let days: [(Date, Vec<Rec>); 3] = [
            (
                Date::from_ymd(2022, 3, 1),
                vec![
                    ("a.ru", &["RU", "SE"]),
                    ("b.ru", &["RU", "SE"]),
                    ("c.ru", &["RU", "SE"]),
                ],
            ),
            (
                Date::from_ymd(2022, 3, 2),
                vec![
                    ("a.ru", &["RU", "SE"]),
                    ("b.ru", &["RU", "SE"]),
                    ("c.ru", &["RU"]),
                ],
            ),
            (
                Date::from_ymd(2022, 3, 3),
                vec![("a.ru", &["RU"]), ("b.ru", &["RU"]), ("c.ru", &["RU"])],
            ),
        ];
        for (d, recs) in days {
            flows.observe(&sweep(&i, d, &recs), &i);
        }
        let (peak_date, n) = flows.peak(Composition::Partial, Composition::Full).unwrap();
        assert_eq!(peak_date, Date::from_ymd(2022, 3, 3));
        assert_eq!(n, 2);
        assert_eq!(flows.total(Composition::Partial, Composition::Full), 3);
        assert!(flows.peak(Composition::Non, Composition::Partial).is_none());
    }
}
