//! Effective-dated stacks of geolocation snapshots.

use crate::db::GeoDb;
use ruwhere_types::{Country, Date};
use std::net::Ipv4Addr;

/// A time series of [`GeoDb`] snapshots, each effective from its date until
/// superseded. Mirrors how the paper uses "contemporaneous results from the
/// IP2location service": lookups are resolved against the snapshot that was
/// current on the measurement date.
#[derive(Debug, Clone, Default)]
pub struct LongitudinalGeoDb {
    /// (effective date, snapshot), sorted by date.
    snapshots: Vec<(Date, GeoDb)>,
}

impl LongitudinalGeoDb {
    /// Empty database (all lookups return `None`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a snapshot effective from `date`. Snapshots may be added out of
    /// order; a snapshot with a duplicate date replaces the earlier one.
    pub fn add_snapshot(&mut self, date: Date, db: GeoDb) {
        match self.snapshots.binary_search_by_key(&date, |(d, _)| *d) {
            Ok(i) => self.snapshots[i].1 = db,
            Err(i) => self.snapshots.insert(i, (date, db)),
        }
    }

    /// Number of snapshots.
    pub fn snapshot_count(&self) -> usize {
        self.snapshots.len()
    }

    /// The snapshot in force on `date` (latest with effective date ≤ `date`).
    pub fn snapshot_at(&self, date: Date) -> Option<&GeoDb> {
        let idx = self.snapshots.partition_point(|(d, _)| *d <= date);
        (idx > 0).then(|| &self.snapshots[idx - 1].1)
    }

    /// Geolocate `ip` as of `date`.
    pub fn lookup(&self, date: Date, ip: Ipv4Addr) -> Option<Country> {
        self.snapshot_at(date)?.lookup(ip)
    }

    /// Effective dates, in order.
    pub fn dates(&self) -> impl Iterator<Item = Date> + '_ {
        self.snapshots.iter().map(|(d, _)| *d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::GeoDbBuilder;

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    fn db(country: Country) -> GeoDb {
        let mut b = GeoDbBuilder::new();
        b.assign(ip("10.0.0.0"), ip("10.0.0.255"), country);
        b.build()
    }

    #[test]
    fn empty_db() {
        let l = LongitudinalGeoDb::new();
        assert_eq!(l.lookup(Date::from_ymd(2022, 1, 1), ip("10.0.0.1")), None);
        assert!(l.snapshot_at(Date::from_ymd(2022, 1, 1)).is_none());
    }

    #[test]
    fn effective_dating() {
        let mut l = LongitudinalGeoDb::new();
        l.add_snapshot(Date::from_ymd(2022, 1, 1), db(Country::SE));
        l.add_snapshot(Date::from_ymd(2022, 3, 15), db(Country::RU));

        // Before any snapshot: unknown.
        assert_eq!(l.lookup(Date::from_ymd(2021, 12, 31), ip("10.0.0.1")), None);
        // January through March 14: Swedish.
        assert_eq!(
            l.lookup(Date::from_ymd(2022, 2, 1), ip("10.0.0.1")),
            Some(Country::SE)
        );
        assert_eq!(
            l.lookup(Date::from_ymd(2022, 3, 14), ip("10.0.0.1")),
            Some(Country::SE)
        );
        // From the 15th: Russian. This lag-shaped behaviour is the paper's
        // footnote-5 artifact: the infrastructure moved on March 3 but the
        // database only reflects it at the next snapshot.
        assert_eq!(
            l.lookup(Date::from_ymd(2022, 3, 15), ip("10.0.0.1")),
            Some(Country::RU)
        );
        assert_eq!(
            l.lookup(Date::from_ymd(2022, 5, 25), ip("10.0.0.1")),
            Some(Country::RU)
        );
    }

    #[test]
    fn out_of_order_insert() {
        let mut l = LongitudinalGeoDb::new();
        l.add_snapshot(Date::from_ymd(2022, 3, 1), db(Country::RU));
        l.add_snapshot(Date::from_ymd(2022, 1, 1), db(Country::SE));
        assert_eq!(l.snapshot_count(), 2);
        let dates: Vec<Date> = l.dates().collect();
        assert!(dates[0] < dates[1]);
        assert_eq!(
            l.lookup(Date::from_ymd(2022, 2, 1), ip("10.0.0.1")),
            Some(Country::SE)
        );
    }

    #[test]
    fn duplicate_date_replaces() {
        let mut l = LongitudinalGeoDb::new();
        l.add_snapshot(Date::from_ymd(2022, 1, 1), db(Country::SE));
        l.add_snapshot(Date::from_ymd(2022, 1, 1), db(Country::DE));
        assert_eq!(l.snapshot_count(), 1);
        assert_eq!(
            l.lookup(Date::from_ymd(2022, 1, 2), ip("10.0.0.1")),
            Some(Country::DE)
        );
    }
}
