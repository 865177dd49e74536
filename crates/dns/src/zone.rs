//! In-memory zones and a master-file-style textual format.
//!
//! The registry simulator publishes one [`Zone`] per TLD and edits it in
//! place every day; authoritative servers answer from zones, borrowing
//! the records they send ([`Lookup`]); the OpenINTEL-style scanner seeds
//! its daily sweep from the zone's delegation list — exactly the data
//! flow of the paper's measurement infrastructure.

use crate::name::{Name, NameSlice};
use crate::rdata::{RData, RType, Record, SoaData};
use std::collections::HashMap;
use std::fmt;
use std::fmt::Write as _;

/// Most labels a name can have: 127 one-octet labels fill the 255-octet
/// wire limit.
const MAX_LABELS: usize = 127;

/// Outcome of a zone lookup: the records the reply carries, borrowed from
/// the zone, so a server encodes them straight to the wire without
/// cloning any of them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Lookup<'z> {
    /// Records answering the question directly (owner and type match).
    /// An apex SOA query answers the zone's own SOA record.
    Answer(Refs<'z>),
    /// The name is an alias; contains the CNAME record. The caller decides
    /// whether to chase it.
    Cname(&'z Record),
    /// The question falls below a zone cut: referral with the cut's NS
    /// records and any in-zone glue.
    Delegation {
        /// NS records at the zone cut.
        ns: Refs<'z>,
        /// A/AAAA glue for in-bailiwick name servers.
        glue: Refs<'z>,
    },
    /// The owner exists but has no records of the queried type.
    NoData,
    /// The owner does not exist in this zone.
    NxDomain,
    /// The question is not within this zone's authority at all.
    OutOfZone,
}

/// References a [`Refs`] keeps without allocating.
const INLINE_REFS: usize = 8;

/// The record references of a [`Lookup`]: up to eight are kept inline,
/// more spill to the heap, so answering an ordinary question allocates
/// nothing. Dereferences to a slice.
#[derive(Clone)]
pub struct Refs<'z>(RefsRepr<'z>);

#[derive(Clone)]
enum RefsRepr<'z> {
    /// `refs[..len]` are the references; the rest repeat the first.
    Inline {
        len: usize,
        refs: [&'z Record; INLINE_REFS],
    },
    Heap(Vec<&'z Record>),
}

impl<'z> FromIterator<&'z Record> for Refs<'z> {
    fn from_iter<I: IntoIterator<Item = &'z Record>>(iter: I) -> Self {
        let mut iter = iter.into_iter();
        let Some(first) = iter.next() else {
            return Refs(RefsRepr::Heap(Vec::new()));
        };
        let mut refs = [first; INLINE_REFS];
        let mut len = 1;
        while let Some(r) = iter.next() {
            if len == INLINE_REFS {
                let mut spilled = refs.to_vec();
                spilled.push(r);
                spilled.extend(iter);
                return Refs(RefsRepr::Heap(spilled));
            }
            refs[len] = r;
            len += 1;
        }
        Refs(RefsRepr::Inline { len, refs })
    }
}

impl<'z> std::ops::Deref for Refs<'z> {
    type Target = [&'z Record];

    fn deref(&self) -> &[&'z Record] {
        match &self.0 {
            RefsRepr::Inline { len, refs } => &refs[..*len],
            RefsRepr::Heap(v) => v,
        }
    }
}

impl fmt::Debug for Refs<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl PartialEq for Refs<'_> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for Refs<'_> {}

/// An authoritative zone: a SOA record, whose owner is the origin, and
/// records indexed by owner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Zone {
    /// The SOA at the apex, kept as a record so negative answers borrow
    /// it like any other.
    soa: Record,
    /// Owner → records at that owner, in insertion order. Hashed, because
    /// serving only ever probes exact owners; the readers that need the
    /// canonical order ([`iter`](Self::iter), [`to_text`](Self::to_text),
    /// [`delegations`](Self::delegations)) sort owners with `Name::cmp`.
    records: HashMap<Name, Vec<Record>>,
}

impl Zone {
    /// Create an empty zone.
    pub fn new(origin: Name, soa: SoaData, soa_ttl: u32) -> Self {
        Zone {
            soa: Record::new(origin, soa_ttl, RData::Soa(soa)),
            records: HashMap::new(),
        }
    }

    /// The zone origin (apex name).
    pub fn origin(&self) -> &Name {
        &self.soa.name
    }

    /// The SOA data.
    pub fn soa(&self) -> &SoaData {
        match &self.soa.data {
            RData::Soa(soa) => soa,
            _ => unreachable!("the zone's SOA record holds SOA data"),
        }
    }

    /// The SOA as a full record at the apex.
    pub fn soa_record(&self) -> &Record {
        &self.soa
    }

    /// Stamp a new SOA serial (a registry publishing the day's edits).
    pub fn set_serial(&mut self, serial: u32) {
        if let RData::Soa(soa) = &mut self.soa.data {
            soa.serial = serial;
        }
    }

    /// Add a record. Returns `false` (and does not add) if the owner is
    /// outside the zone.
    pub fn add(&mut self, record: Record) -> bool {
        if !record.name.is_subdomain_of(self.origin()) {
            return false;
        }
        match self.records.get_mut(&record.name) {
            Some(v) => v.push(record),
            None => {
                self.records.insert(record.name.clone(), vec![record]);
            }
        }
        true
    }

    /// Remove all records at `owner` (of `rtype`, or all types when `None`).
    /// Returns how many records were removed.
    pub fn remove(&mut self, owner: &Name, rtype: Option<RType>) -> usize {
        match self.records.get_mut(owner) {
            None => 0,
            Some(v) => {
                let before = v.len();
                match rtype {
                    None => v.clear(),
                    Some(t) => v.retain(|r| r.data.rtype() != t),
                }
                let removed = before - v.len();
                if v.is_empty() {
                    self.records.remove(owner);
                }
                removed
            }
        }
    }

    /// Total number of records (excluding the SOA).
    pub fn record_count(&self) -> usize {
        self.records.values().map(Vec::len).sum()
    }

    /// Owners with their records, in canonical (`Name::cmp`) order.
    fn sorted(&self) -> Vec<(&Name, &[Record])> {
        let mut owners: Vec<(&Name, &[Record])> = self
            .records
            .iter()
            .map(|(owner, recs)| (owner, recs.as_slice()))
            .collect();
        owners.sort_unstable_by(|a, b| a.0.cmp(b.0));
        owners
    }

    /// Iterate all records in canonical owner order.
    pub fn iter(&self) -> impl Iterator<Item = &Record> {
        self.sorted().into_iter().flat_map(|(_, recs)| recs)
    }

    /// Owners that have NS records strictly below the apex — i.e. the
    /// delegations, in canonical order. For a TLD zone this is the list
    /// of registered domains, which is exactly what seeds the daily
    /// OpenINTEL sweep.
    pub fn delegations(&self) -> impl Iterator<Item = &Name> {
        let origin = self.origin();
        self.sorted().into_iter().filter_map(move |(owner, recs)| {
            (owner != origin && recs.iter().any(|r| r.data.rtype() == RType::Ns)).then_some(owner)
        })
    }

    /// Authoritative lookup implementing RFC 1034 §4.3.2 zone semantics
    /// (without wildcards or DNSSEC).
    /// Takes the borrowed form of the name, so a server can look up a name
    /// it copied out of a query onto the stack.
    pub fn lookup(&self, qname: &NameSlice, qtype: RType) -> Lookup<'_> {
        let origin = self.origin();
        if !qname.is_subdomain_of(origin) {
            return Lookup::OutOfZone;
        }

        // Check for a zone cut between the origin (exclusive) and qname
        // (inclusive): walk enclosing names from just under the apex down,
        // so the highest (closest-to-apex) delegation wins.
        let mut offsets = [0usize; MAX_LABELS];
        let mut count = 0;
        for at in qname.label_offsets() {
            offsets[count] = at;
            count += 1;
        }
        let depth = count - origin.label_count();
        for take in 1..=depth {
            let cut = qname.suffix(offsets[depth - take]);
            let Some(recs) = self.records.get(cut) else {
                continue;
            };
            // Below a delegation — unless the query is *for* the cut
            // itself with type DS (parent-side type). A query for exactly
            // the cut with type NS refers too: referral is still the norm
            // for a delegating parent.
            let ns: Refs = recs
                .iter()
                .filter(|r| r.data.rtype() == RType::Ns)
                .collect();
            let parent_side = take == depth && qtype == RType::Ds;
            if !ns.is_empty() && !parent_side {
                let glue = self.glue_for(&ns);
                return Lookup::Delegation { ns, glue };
            }
        }

        let at_apex = qname == &**origin;
        if at_apex && qtype == RType::Soa {
            return Lookup::Answer(std::iter::once(&self.soa).collect());
        }
        match self.records.get(qname) {
            // The apex always exists (it carries the SOA), so a miss there
            // is NoData, not NXDOMAIN.
            None if at_apex => Lookup::NoData,
            None => Lookup::NxDomain,
            Some(recs) => {
                let matching: Refs = recs.iter().filter(|r| r.data.rtype() == qtype).collect();
                if !matching.is_empty() {
                    return Lookup::Answer(matching);
                }
                if let Some(cname) = recs.iter().find(|r| r.data.rtype() == RType::Cname) {
                    return Lookup::Cname(cname);
                }
                Lookup::NoData
            }
        }
    }

    /// Collect A/AAAA glue present in this zone for the given NS targets.
    fn glue_for<'z>(&'z self, ns: &[&'z Record]) -> Refs<'z> {
        ns.iter()
            .filter_map(|r| match &r.data {
                RData::Ns(target) => self.records.get(target),
                _ => None,
            })
            .flatten()
            .filter(|g| matches!(g.data.rtype(), RType::A | RType::Aaaa))
            .collect()
    }

    /// Serialize to the textual zone format.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "$ORIGIN {}", self.origin());
        let _ = writeln!(out, "{}", self.soa);
        for r in self.iter() {
            let _ = writeln!(out, "{r}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn tld_zone() -> Zone {
        let soa = SoaData {
            mname: name("a.dns.ripn.net"),
            rname: name("hostmaster.ripn.net"),
            serial: 1,
            refresh: 86400,
            retry: 14400,
            expire: 2_592_000,
            minimum: 3600,
        };
        let mut z = Zone::new(name("ru"), soa, 86400);
        z.add(Record::new(
            name("example.ru"),
            3600,
            RData::Ns(name("ns1.example.ru")),
        ));
        z.add(Record::new(
            name("example.ru"),
            3600,
            RData::Ns(name("ns2.hoster.com")),
        ));
        z.add(Record::new(
            name("ns1.example.ru"),
            3600,
            RData::A("198.51.100.53".parse().unwrap()),
        ));
        z.add(Record::new(
            name("other.ru"),
            3600,
            RData::Ns(name("dns.other.ru")),
        ));
        z
    }

    #[test]
    fn add_rejects_out_of_zone() {
        let mut z = tld_zone();
        assert!(!z.add(Record::new(
            name("example.com"),
            60,
            RData::A("192.0.2.1".parse().unwrap())
        )));
        assert!(z.add(Record::new(
            name("deep.sub.example.ru"),
            60,
            RData::A("192.0.2.1".parse().unwrap())
        )));
    }

    #[test]
    fn delegations_enumerated() {
        let z = tld_zone();
        let delegs: Vec<String> = z.delegations().map(|n| n.to_string()).collect();
        assert_eq!(delegs, vec!["example.ru.", "other.ru."]);
    }

    #[test]
    fn large_answers_spill_in_order() {
        let mut z = tld_zone();
        let ips: Vec<std::net::Ipv4Addr> = (1..=11).map(|i| [192, 0, 2, i].into()).collect();
        for ip in &ips {
            z.add(Record::new(name("many.ru"), 60, RData::A(*ip)));
        }
        match z.lookup(&name("many.ru"), RType::A) {
            Lookup::Answer(recs) => {
                let got: Vec<RData> = recs.iter().map(|r| r.data.clone()).collect();
                let want: Vec<RData> = ips.iter().map(|ip| RData::A(*ip)).collect();
                assert_eq!(got, want);
            }
            other => panic!("expected answer, got {other:?}"),
        }
    }

    #[test]
    fn lookup_referral_with_glue() {
        let z = tld_zone();
        match z.lookup(&name("www.example.ru"), RType::A) {
            Lookup::Delegation { ns, glue } => {
                assert_eq!(ns.len(), 2);
                assert_eq!(glue.len(), 1);
                assert_eq!(glue[0].name, name("ns1.example.ru"));
            }
            other => panic!("expected delegation, got {other:?}"),
        }
        // Querying the delegated name itself also refers.
        assert!(matches!(
            z.lookup(&name("example.ru"), RType::A),
            Lookup::Delegation { .. }
        ));
    }

    #[test]
    fn lookup_ds_is_parent_side() {
        let mut z = tld_zone();
        z.add(Record::new(
            name("example.ru"),
            3600,
            RData::Ds(1, 8, 2, vec![0xAA]),
        ));
        match z.lookup(&name("example.ru"), RType::Ds) {
            Lookup::Answer(recs) => assert_eq!(recs.len(), 1),
            other => panic!("expected DS answer, got {other:?}"),
        }
    }

    #[test]
    fn lookup_nxdomain_nodata_outofzone() {
        let z = tld_zone();
        assert_eq!(z.lookup(&name("missing.ru"), RType::A), Lookup::NxDomain);
        assert_eq!(z.lookup(&name("ru"), RType::A), Lookup::NoData);
        assert_eq!(z.lookup(&name("example.com"), RType::A), Lookup::OutOfZone);
    }

    #[test]
    fn lookup_apex_soa_and_under_delegation_glue_name() {
        let z = tld_zone();
        // Glue owner is under the example.ru cut, so an A query for it refers.
        assert!(matches!(
            z.lookup(&name("ns1.example.ru"), RType::A),
            Lookup::Delegation { .. }
        ));
    }

    #[test]
    fn cname_lookup() {
        let soa = tld_zone().soa().clone();
        let mut z = Zone::new(name("example.ru"), soa, 3600);
        z.add(Record::new(
            name("www.example.ru"),
            60,
            RData::Cname(name("example.ru")),
        ));
        z.add(Record::new(
            name("example.ru"),
            60,
            RData::A("192.0.2.2".parse().unwrap()),
        ));
        match z.lookup(&name("www.example.ru"), RType::A) {
            Lookup::Cname(r) => assert_eq!(r.name, name("www.example.ru")),
            other => panic!("expected CNAME, got {other:?}"),
        }
        // Direct CNAME query answers the CNAME itself.
        match z.lookup(&name("www.example.ru"), RType::Cname) {
            Lookup::Answer(recs) => assert_eq!(recs.len(), 1),
            other => panic!("expected answer, got {other:?}"),
        }
    }

    #[test]
    fn remove_records() {
        let mut z = tld_zone();
        assert_eq!(z.remove(&name("example.ru"), Some(RType::Ns)), 2);
        assert_eq!(z.lookup(&name("example.ru"), RType::Ns), Lookup::NxDomain);
        assert_eq!(z.remove(&name("nothing.ru"), None), 0);
    }
}
