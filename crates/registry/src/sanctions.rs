//! Sanctions lists: dated entries from the US OFAC SDN and UK lists.
//!
//! The paper labels "107 unique domains as being specifically sanctioned
//! based on their appearance on either US OFAC SDN or UK sanctions lists"
//! (§2). A [`SanctionsList`] is the analysis-side join key: given a date it
//! answers which domains are considered sanctioned.

use ruwhere_types::{Date, DomainName};
use std::collections::BTreeMap;

/// Which list an entry came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SanctionSource {
    /// US OFAC Specially Designated Nationals list.
    UsOfacSdn,
    /// UK sanctions list.
    UkSanctions,
}

impl std::fmt::Display for SanctionSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SanctionSource::UsOfacSdn => write!(f, "US OFAC SDN"),
            SanctionSource::UkSanctions => write!(f, "UK Sanctions List"),
        }
    }
}

/// A set of sanctioned domains with listing dates and sources.
#[derive(Debug, Clone, Default)]
pub struct SanctionsList {
    /// domain → (first listing date, sources that list it)
    entries: BTreeMap<DomainName, (Date, Vec<SanctionSource>)>,
}

impl SanctionsList {
    /// Empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `domain` as listed by `source` on `date`. A domain on both lists
    /// is counted once (the paper's 107 are *unique* domains); the earliest
    /// listing date wins.
    pub fn add(&mut self, domain: DomainName, source: SanctionSource, date: Date) {
        self.entries
            .entry(domain)
            .and_modify(|(d, sources)| {
                if date < *d {
                    *d = date;
                }
                if !sources.contains(&source) {
                    sources.push(source);
                }
            })
            .or_insert((date, vec![source]));
    }

    /// Whether `domain` is listed on or before `date`.
    pub fn is_sanctioned(&self, domain: &DomainName, date: Date) -> bool {
        self.entries.get(domain).is_some_and(|(d, _)| *d <= date)
    }

    /// All domains listed on or before `date`.
    pub fn sanctioned_at(&self, date: Date) -> Vec<&DomainName> {
        self.entries
            .iter()
            .filter(|(_, (d, _))| *d <= date)
            .map(|(n, _)| n)
            .collect()
    }

    /// Total unique domains across all dates.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate `(domain, first listing date, sources)`.
    pub fn iter(&self) -> impl Iterator<Item = (&DomainName, Date, &[SanctionSource])> {
        self.entries.iter().map(|(n, (d, s))| (n, *d, s.as_slice()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    #[test]
    fn dated_membership() {
        let mut l = SanctionsList::new();
        l.add(
            d("bank.ru"),
            SanctionSource::UsOfacSdn,
            Date::from_ymd(2022, 2, 26),
        );
        assert!(!l.is_sanctioned(&d("bank.ru"), Date::from_ymd(2022, 2, 25)));
        assert!(l.is_sanctioned(&d("bank.ru"), Date::from_ymd(2022, 2, 26)));
        assert!(l.is_sanctioned(&d("bank.ru"), Date::from_ymd(2022, 5, 25)));
        assert!(!l.is_sanctioned(&d("other.ru"), Date::from_ymd(2022, 5, 25)));
    }

    #[test]
    fn unique_across_sources() {
        let mut l = SanctionsList::new();
        l.add(
            d("dual.ru"),
            SanctionSource::UsOfacSdn,
            Date::from_ymd(2022, 3, 1),
        );
        l.add(
            d("dual.ru"),
            SanctionSource::UkSanctions,
            Date::from_ymd(2022, 2, 26),
        );
        assert_eq!(l.len(), 1);
        // Earliest date wins.
        assert!(l.is_sanctioned(&d("dual.ru"), Date::from_ymd(2022, 2, 26)));
        let (_, _, sources) = l.iter().next().unwrap();
        assert_eq!(sources.len(), 2);
        // Re-adding the same source does not duplicate.
        l.add(
            d("dual.ru"),
            SanctionSource::UkSanctions,
            Date::from_ymd(2022, 4, 1),
        );
        let (_, _, sources) = l.iter().next().unwrap();
        assert_eq!(sources.len(), 2);
    }

    #[test]
    fn sanctioned_at_grows_over_time() {
        let mut l = SanctionsList::new();
        l.add(
            d("a.ru"),
            SanctionSource::UsOfacSdn,
            Date::from_ymd(2022, 2, 26),
        );
        l.add(
            d("b.ru"),
            SanctionSource::UkSanctions,
            Date::from_ymd(2022, 3, 10),
        );
        assert_eq!(l.sanctioned_at(Date::from_ymd(2022, 2, 20)).len(), 0);
        assert_eq!(l.sanctioned_at(Date::from_ymd(2022, 3, 1)).len(), 1);
        assert_eq!(l.sanctioned_at(Date::from_ymd(2022, 3, 10)).len(), 2);
        assert_eq!(l.len(), 2);
        assert!(!l.is_empty());
    }
}
