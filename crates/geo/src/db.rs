//! A single geolocation snapshot: sorted non-overlapping ranges → country.

use ruwhere_netsim::{Ipv4Net, Topology};
use ruwhere_types::Country;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// Builder that accepts possibly-overlapping range assignments; later
/// assignments override earlier ones (the vendor's latest registry data
/// wins), with automatic range splitting.
#[derive(Debug, Clone, Default)]
pub struct GeoDbBuilder {
    /// start → (end inclusive, country)
    ranges: BTreeMap<u32, (u32, Country)>,
}

impl GeoDbBuilder {
    /// Empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Assign `[start, end]` (inclusive) to `country`, overriding any
    /// overlapping earlier assignment.
    pub fn assign(&mut self, start: Ipv4Addr, end: Ipv4Addr, country: Country) -> &mut Self {
        let (s, e) = (u32::from(start), u32::from(end));
        if s > e {
            return self;
        }
        self.assign_u32(s, e, country)
    }

    /// Assign a CIDR prefix to `country`.
    pub fn assign_net(&mut self, net: Ipv4Net, country: Country) -> &mut Self {
        let s = net.bits();
        let e = s + (net.size() - 1) as u32;
        self.assign_u32(s, e, country)
    }

    fn assign_u32(&mut self, s: u32, e: u32, country: Country) -> &mut Self {
        // Collect every existing range overlapping [s, e].
        let mut affected: Vec<(u32, (u32, Country))> = Vec::new();
        // Candidate starting before s that might reach into [s, e]:
        if let Some((&ps, &(pe, pc))) = self.ranges.range(..=s).next_back() {
            if pe >= s {
                affected.push((ps, (pe, pc)));
            }
        }
        for (&rs, &(re, rc)) in self.ranges.range(s..=e) {
            if affected.first().map(|(a, _)| *a) != Some(rs) {
                affected.push((rs, (re, rc)));
            }
        }
        for (rs, (re, rc)) in affected {
            self.ranges.remove(&rs);
            // Keep the non-overlapped left part.
            if rs < s {
                self.ranges.insert(rs, (s - 1, rc));
            }
            // Keep the non-overlapped right part.
            if re > e {
                self.ranges.insert(e + 1, (re, rc));
            }
        }
        self.ranges.insert(s, (e, country));
        self
    }

    /// Snapshot the current topology's announced prefixes: each prefix
    /// geolocates to its origin AS's country. This is how our simulated
    /// "vendor" compiles its database.
    pub fn from_topology(topo: &Topology) -> Self {
        let mut b = Self::new();
        // Announce order matters for overlaps exactly as in the FIB: more
        // recent announcements override older data.
        for &(net, asn) in topo.prefixes() {
            if let Some(info) = topo.as_info(asn) {
                b.assign_net(net, info.country);
            }
        }
        b
    }

    /// Finalize into an immutable, lookup-optimized [`GeoDb`], merging
    /// adjacent ranges with equal countries.
    pub fn build(&self) -> GeoDb {
        let mut starts = Vec::with_capacity(self.ranges.len());
        let mut ends = Vec::with_capacity(self.ranges.len());
        let mut countries: Vec<Country> = Vec::with_capacity(self.ranges.len());
        for (&s, &(e, c)) in &self.ranges {
            if let (Some(&last_end), Some(&last_c)) = (ends.last(), countries.last()) {
                if last_c == c && last_end as u64 + 1 == s as u64 {
                    *ends.last_mut().expect("nonempty") = e;
                    continue;
                }
            }
            starts.push(s);
            ends.push(e);
            countries.push(c);
        }
        GeoDb {
            starts,
            ends,
            countries,
        }
    }
}

/// An immutable geolocation snapshot with `O(log n)` lookups.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct GeoDb {
    starts: Vec<u32>,
    ends: Vec<u32>,
    countries: Vec<Country>,
}

impl GeoDb {
    /// Country for `ip`, or `None` for unassigned space.
    pub fn lookup(&self, ip: Ipv4Addr) -> Option<Country> {
        let x = u32::from(ip);
        let idx = self.starts.partition_point(|&s| s <= x);
        if idx == 0 {
            return None;
        }
        (self.ends[idx - 1] >= x).then(|| self.countries[idx - 1])
    }

    /// Number of (merged) ranges.
    pub fn range_count(&self) -> usize {
        self.starts.len()
    }

    /// Total addresses covered.
    pub fn coverage(&self) -> u64 {
        self.starts
            .iter()
            .zip(&self.ends)
            .map(|(&s, &e)| u64::from(e) - u64::from(s) + 1)
            .sum()
    }

    /// Iterate `(start, end, country)` in address order.
    pub fn iter(&self) -> impl Iterator<Item = (Ipv4Addr, Ipv4Addr, Country)> + '_ {
        self.starts
            .iter()
            .zip(&self.ends)
            .zip(&self.countries)
            .map(|((&s, &e), &c)| (Ipv4Addr::from(s), Ipv4Addr::from(e), c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    #[test]
    fn simple_assign_lookup() {
        let mut b = GeoDbBuilder::new();
        b.assign(ip("10.0.0.0"), ip("10.255.255.255"), Country::RU);
        b.assign(ip("52.0.0.0"), ip("52.0.0.255"), Country::US);
        let db = b.build();
        assert_eq!(db.lookup(ip("10.1.2.3")), Some(Country::RU));
        assert_eq!(db.lookup(ip("52.0.0.128")), Some(Country::US));
        assert_eq!(db.lookup(ip("52.0.1.0")), None);
        assert_eq!(db.lookup(ip("9.255.255.255")), None);
        assert_eq!(db.lookup(ip("11.0.0.0")), None);
    }

    #[test]
    fn boundaries_inclusive() {
        let mut b = GeoDbBuilder::new();
        b.assign(ip("192.0.2.10"), ip("192.0.2.20"), Country::DE);
        let db = b.build();
        assert_eq!(db.lookup(ip("192.0.2.10")), Some(Country::DE));
        assert_eq!(db.lookup(ip("192.0.2.20")), Some(Country::DE));
        assert_eq!(db.lookup(ip("192.0.2.9")), None);
        assert_eq!(db.lookup(ip("192.0.2.21")), None);
    }

    #[test]
    fn override_splits_ranges() {
        let mut b = GeoDbBuilder::new();
        b.assign(ip("10.0.0.0"), ip("10.0.0.255"), Country::RU);
        // Re-assign the middle to NL: the RU range must split around it.
        b.assign(ip("10.0.0.100"), ip("10.0.0.199"), Country::NL);
        let db = b.build();
        assert_eq!(db.lookup(ip("10.0.0.50")), Some(Country::RU));
        assert_eq!(db.lookup(ip("10.0.0.100")), Some(Country::NL));
        assert_eq!(db.lookup(ip("10.0.0.199")), Some(Country::NL));
        assert_eq!(db.lookup(ip("10.0.0.200")), Some(Country::RU));
        assert_eq!(db.range_count(), 3);
    }

    #[test]
    fn override_swallows_contained_ranges() {
        let mut b = GeoDbBuilder::new();
        b.assign(ip("10.0.0.10"), ip("10.0.0.19"), Country::DE);
        b.assign(ip("10.0.0.30"), ip("10.0.0.39"), Country::SE);
        b.assign(ip("10.0.0.0"), ip("10.0.0.255"), Country::RU);
        let db = b.build();
        assert_eq!(db.lookup(ip("10.0.0.15")), Some(Country::RU));
        assert_eq!(db.lookup(ip("10.0.0.35")), Some(Country::RU));
        assert_eq!(db.range_count(), 1);
    }

    #[test]
    fn override_partial_overlap_left_and_right() {
        let mut b = GeoDbBuilder::new();
        b.assign(ip("10.0.0.0"), ip("10.0.0.99"), Country::RU);
        b.assign(ip("10.0.0.50"), ip("10.0.0.149"), Country::NL);
        let db = b.build();
        assert_eq!(db.lookup(ip("10.0.0.49")), Some(Country::RU));
        assert_eq!(db.lookup(ip("10.0.0.50")), Some(Country::NL));
        assert_eq!(db.lookup(ip("10.0.0.149")), Some(Country::NL));
        assert_eq!(db.lookup(ip("10.0.0.150")), None);

        let mut b = GeoDbBuilder::new();
        b.assign(ip("10.0.0.50"), ip("10.0.0.149"), Country::NL);
        b.assign(ip("10.0.0.0"), ip("10.0.0.99"), Country::RU);
        let db = b.build();
        assert_eq!(db.lookup(ip("10.0.0.99")), Some(Country::RU));
        assert_eq!(db.lookup(ip("10.0.0.100")), Some(Country::NL));
    }

    #[test]
    fn adjacent_same_country_merge() {
        let mut b = GeoDbBuilder::new();
        b.assign(ip("10.0.0.0"), ip("10.0.0.127"), Country::RU);
        b.assign(ip("10.0.0.128"), ip("10.0.0.255"), Country::RU);
        let db = b.build();
        assert_eq!(db.range_count(), 1);
        assert_eq!(db.coverage(), 256);
    }

    #[test]
    fn assign_net_matches_prefix() {
        let mut b = GeoDbBuilder::new();
        b.assign_net("198.51.100.0/24".parse().unwrap(), Country::SE);
        let db = b.build();
        assert_eq!(db.lookup(ip("198.51.100.0")), Some(Country::SE));
        assert_eq!(db.lookup(ip("198.51.100.255")), Some(Country::SE));
        assert_eq!(db.lookup(ip("198.51.101.0")), None);
        assert_eq!(db.coverage(), 256);
    }

    #[test]
    fn inverted_range_ignored() {
        let mut b = GeoDbBuilder::new();
        b.assign(ip("10.0.0.10"), ip("10.0.0.5"), Country::RU);
        assert_eq!(b.build().range_count(), 0);
    }

    #[test]
    fn from_topology() {
        use ruwhere_netsim::AsInfo;
        use ruwhere_types::{Asn, SeedTree};
        let mut topo = Topology::new(SeedTree::new(1));
        topo.add_as(AsInfo {
            asn: Asn(1),
            org: "RU-HOST".into(),
            country: Country::RU,
        });
        topo.add_as(AsInfo {
            asn: Asn(2),
            org: "NL-HOST".into(),
            country: Country::NL,
        });
        topo.announce("5.0.0.0/8".parse().unwrap(), Asn(1));
        topo.announce("31.0.0.0/8".parse().unwrap(), Asn(2));
        let db = GeoDbBuilder::from_topology(&topo).build();
        assert_eq!(db.lookup(ip("5.1.1.1")), Some(Country::RU));
        assert_eq!(db.lookup(ip("31.1.1.1")), Some(Country::NL));
        assert_eq!(db.lookup(ip("99.1.1.1")), None);
    }

    #[test]
    fn top_of_address_space() {
        let mut b = GeoDbBuilder::new();
        b.assign(ip("255.255.255.0"), ip("255.255.255.255"), Country::US);
        let db = b.build();
        assert_eq!(db.lookup(ip("255.255.255.255")), Some(Country::US));
    }
}
