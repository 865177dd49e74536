//! The dated conflict event timeline (§3.2–§4.3 of the paper).

use ruwhere_types::Date;

/// Which piece of DNS infrastructure an [`InfraFault`] takes down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTarget {
    /// The `.ru`/`.рф` TLD servers (RIPN / TCI) — the 2021-03-22 outage
    /// behind the Figure-1 dip.
    RuTldServers,
    /// The root servers.
    Root,
    /// The gTLD (`.com`-side) servers.
    GtldServers,
}

/// A scheduled infrastructure outage: the named servers black-hole all
/// queries for `duration_hours` starting at the event date.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InfraFault {
    /// What goes down.
    pub target: FaultTarget,
    /// How long it stays down, in hours of simulated time.
    pub duration_hours: u32,
}

/// One dated event played against the world.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConflictEvent {
    /// 2022-02-24: the invasion. Marks the period boundary; also the start
    /// of elevated, anticipatory churn.
    ConflictStart,
    /// US OFAC SDN / UK lists add the bulk of the sanctioned domains.
    SanctionsListed,
    /// 2022-03-03: Netnod's IP reconfiguration re-homes RU-CENTER's cloud
    /// NS hosts to Russia; 76 k domains flip partial→full (§3.2, §3.3).
    NetnodRehoming,
    /// 2022-03-08: Amazon stops new Russian AWS registrations; the Amazon
    /// hosting exodus window opens (§3.4, Figure 6).
    AmazonHalt,
    /// 2022-03-09: Sedo "pulls the plug"; the Sedo exodus window opens
    /// (§3.4, Figure 7). 98 % relocate by 2022-05-25, mostly to Serverel.
    SedoPullsPlug,
    /// 2022-03-10: Google stops accepting new cloud customers in Russia.
    GoogleHalt,
    /// 2022-03-16: Google relocates serving infrastructure from AS15169 to
    /// AS396982 (footnote 11 — affects non-Russian domains too).
    GoogleIntraMove,
    /// 2022-03-01: the Russian Ministry of Digital Development's Trusted
    /// Root CA starts issuing (not CT-logged).
    RussianCaLaunch,
    /// Late March: DNS-hosting migration out of Hetzner and Linode (§3.2).
    HetznerLinodeMigration,
    /// 2022-03-26: sanctions fully in effect (period boundary).
    SanctionsInEffect,
    /// DigiCert revokes all certificates it issued for sanctioned domains
    /// (Table 2: 308/308).
    DigicertSanctionedRevocation,
    /// Sectigo revokes all certificates it issued for sanctioned domains
    /// (Table 2: 164/164).
    SectigoSanctionedRevocation,
    /// A dated infrastructure outage. The paper's instance: the
    /// 2021-03-22 `.ru` TLD-server outage that produces the sharp one-day
    /// dip in Figure 1 (footnote 8) — the measurement gap is caused
    /// *mechanically* by the servers being unreachable, not by editing
    /// analysis output.
    InfrastructureFault(InfraFault),
}

/// The full dated schedule.
#[derive(Debug, Clone)]
pub struct Timeline {
    events: Vec<(Date, ConflictEvent)>,
}

impl Timeline {
    /// The paper's event schedule.
    pub fn paper() -> Self {
        use ConflictEvent::*;
        let mut events = vec![
            (
                Date::from_ymd(2021, 3, 22),
                InfrastructureFault(InfraFault {
                    target: FaultTarget::RuTldServers,
                    duration_hours: 20,
                }),
            ),
            (Date::from_ymd(2022, 2, 24), ConflictStart),
            (Date::from_ymd(2022, 2, 25), SanctionsListed),
            (Date::from_ymd(2022, 3, 1), RussianCaLaunch),
            (Date::from_ymd(2022, 3, 3), NetnodRehoming),
            (Date::from_ymd(2022, 3, 8), AmazonHalt),
            (Date::from_ymd(2022, 3, 9), SedoPullsPlug),
            (Date::from_ymd(2022, 3, 10), GoogleHalt),
            (Date::from_ymd(2022, 3, 11), DigicertSanctionedRevocation),
            (Date::from_ymd(2022, 3, 16), GoogleIntraMove),
            (Date::from_ymd(2022, 3, 18), SectigoSanctionedRevocation),
            (Date::from_ymd(2022, 3, 25), HetznerLinodeMigration),
            (Date::from_ymd(2022, 3, 26), SanctionsInEffect),
        ];
        events.sort_by_key(|(d, _)| *d);
        Timeline { events }
    }

    /// Add extra dated events (configuration-injected faults and the
    /// like), keeping the schedule date-ordered. The sort is stable, so
    /// same-day events keep paper order before injected order.
    pub fn extend(&mut self, extra: impl IntoIterator<Item = (Date, ConflictEvent)>) {
        self.events.extend(extra);
        self.events.sort_by_key(|(d, _)| *d);
    }

    /// Events scheduled for exactly `date`.
    pub fn on(&self, date: Date) -> impl Iterator<Item = ConflictEvent> + '_ {
        self.events
            .iter()
            .filter(move |(d, _)| *d == date)
            .map(|(_, e)| *e)
    }

    /// The date of a specific event.
    pub fn date_of(&self, event: ConflictEvent) -> Option<Date> {
        self.events
            .iter()
            .find(|(_, e)| *e == event)
            .map(|(d, _)| *d)
    }

    /// All `(date, event)` pairs in order.
    pub fn iter(&self) -> impl Iterator<Item = (Date, ConflictEvent)> + '_ {
        self.events.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_dates() {
        let t = Timeline::paper();
        assert_eq!(
            t.date_of(ConflictEvent::NetnodRehoming).unwrap(),
            Date::from_ymd(2022, 3, 3)
        );
        assert_eq!(
            t.date_of(ConflictEvent::AmazonHalt).unwrap(),
            Date::from_ymd(2022, 3, 8)
        );
        assert_eq!(
            t.date_of(ConflictEvent::SedoPullsPlug).unwrap(),
            Date::from_ymd(2022, 3, 9)
        );
        assert_eq!(
            t.date_of(ConflictEvent::GoogleIntraMove).unwrap(),
            Date::from_ymd(2022, 3, 16)
        );
    }

    #[test]
    fn on_filters_by_date() {
        let t = Timeline::paper();
        let events: Vec<_> = t.on(Date::from_ymd(2022, 3, 8)).collect();
        assert_eq!(events, vec![ConflictEvent::AmazonHalt]);
        assert_eq!(t.on(Date::from_ymd(2021, 1, 1)).count(), 0);
    }

    #[test]
    fn ordered() {
        let t = Timeline::paper();
        let dates: Vec<Date> = t.iter().map(|(d, _)| d).collect();
        let mut sorted = dates.clone();
        sorted.sort();
        assert_eq!(dates, sorted);
        assert_eq!(dates.len(), 13);
    }

    #[test]
    fn paper_includes_the_march_2021_outage() {
        let t = Timeline::paper();
        let outage: Vec<_> = t.on(Date::from_ymd(2021, 3, 22)).collect();
        assert_eq!(
            outage,
            vec![ConflictEvent::InfrastructureFault(InfraFault {
                target: FaultTarget::RuTldServers,
                duration_hours: 20,
            })]
        );
    }

    #[test]
    fn extend_keeps_order() {
        let mut t = Timeline::paper();
        let fault = ConflictEvent::InfrastructureFault(InfraFault {
            target: FaultTarget::Root,
            duration_hours: 2,
        });
        t.extend(vec![(Date::from_ymd(2022, 1, 15), fault)]);
        let dates: Vec<Date> = t.iter().map(|(d, _)| d).collect();
        let mut sorted = dates.clone();
        sorted.sort();
        assert_eq!(dates, sorted);
        assert!(t.on(Date::from_ymd(2022, 1, 15)).any(|e| e == fault));
    }
}
