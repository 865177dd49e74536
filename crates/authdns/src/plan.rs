//! A managed DNS plan's served data: one template for every customer zone
//! on the plan, one row per customer.
//!
//! Every customer zone on a plan holds the same records apart from its
//! owner and its addresses: the plan's SOA at the apex, an NS record per
//! plan host and the apex A record(s). [`PlanZones`] keeps what they share
//! once, in a [`PlanTemplate`], and each customer as a [`Row`]: name,
//! primary address and optional secondary. A reply is encoded straight
//! from template and row, byte for byte the reply a [`Zone`] holding the
//! same records would give. The plan's other zones (its name servers'
//! own domains) stay whole zones in a [`ZoneSet`].
//!
//! [`Zone`]: ruwhere_dns::Zone

use crate::server::{encode_zone_answer, refuse, Authority, ZoneSet};
use ruwhere_dns::wire::Encoder;
use ruwhere_dns::{
    encode_record, Flags, MessageView, Name, NameSlice, RType, Rcode, SoaData, WireError,
};
use ruwhere_types::{DomainName, NameList, Named};
use std::net::Ipv4Addr;
use std::sync::{Arc, RwLock};

/// What every customer zone on one plan shares.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanTemplate {
    /// The SOA at each customer apex.
    pub soa: SoaData,
    /// TTL of the SOA record.
    pub soa_ttl: u32,
    /// The plan's name servers: the apex NS RRset, in this order.
    pub ns: Vec<Name>,
    /// TTL of the NS records.
    pub ns_ttl: u32,
    /// TTL of the apex A records.
    pub a_ttl: u32,
}

impl PlanTemplate {
    /// Encode the SOA record of the customer zone at `owner`.
    fn encode_soa(&self, enc: &mut Encoder<'_>, owner: &NameSlice) {
        encode_record(enc, owner, self.soa_ttl, RType::Soa, |e| self.soa.encode(e));
    }
}

/// One customer zone on a plan: its owner and the apex addresses, which
/// answer an A query primary first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    /// The customer domain, the zone's origin. A reply's owner is the
    /// suffix of the question that matched it, so no wire copy is kept.
    pub name: DomainName,
    /// The first apex A record.
    pub primary: Ipv4Addr,
    /// The second apex A record, for split hosting.
    pub secondary: Option<Ipv4Addr>,
}

/// A plan's served data: its template, its customer rows and its other
/// zones. Rows keep insertion order, and removal swaps the last row into
/// the hole, so [`rows`](Self::rows) is the plan's member list that
/// uniform draws index into.
#[derive(Debug)]
pub struct PlanZones {
    template: PlanTemplate,
    rows: NameList<Row>,
    zones: ZoneSet,
}

impl Named for Row {
    fn name(&self) -> &DomainName {
        &self.name
    }
}

/// Shared, mutable plan data: the world driver edits rows while the
/// network holds the serving side.
pub type SharedPlanZones = Arc<RwLock<PlanZones>>;

impl PlanZones {
    /// A plan with no customers and no other zones.
    pub fn new(template: PlanTemplate) -> Self {
        PlanZones {
            template,
            rows: NameList::default(),
            zones: ZoneSet::new(),
        }
    }

    /// The customer rows, in membership order.
    pub fn rows(&self) -> &[Row] {
        self.rows.items()
    }

    /// The row of customer `name`.
    pub fn row(&self, name: &DomainName) -> Option<&Row> {
        self.rows.get(name)
    }

    /// Add a customer at the end of the member list, or, if it already is
    /// a customer, replace its addresses in place.
    pub fn insert_row(&mut self, row: Row) {
        self.rows.insert(row);
    }

    /// Re-address customer `name`; `false` if it is not a customer.
    pub fn set_addresses(
        &mut self,
        name: &DomainName,
        primary: Ipv4Addr,
        secondary: Option<Ipv4Addr>,
    ) -> bool {
        let Some(row) = self.rows.get_mut(name) else {
            return false;
        };
        row.primary = primary;
        row.secondary = secondary;
        true
    }

    /// Remove customer `name`; the last row takes its place in the member
    /// list.
    pub fn remove_row(&mut self, name: &DomainName) -> Option<Row> {
        self.rows.swap_remove(name)
    }

    /// The plan's zones that are not customer zones.
    pub fn zones(&self) -> &ZoneSet {
        &self.zones
    }

    /// Mutable access to the plan's other zones.
    pub fn zones_mut(&mut self) -> &mut ZoneSet {
        &mut self.zones
    }

    /// Encode the reply for `qtype` at `qname`, at or below `owner`, the
    /// apex of `row`: what a zone holding the template's SOA and NS RRset
    /// and the row's A records answers.
    fn encode_row_answer(
        &self,
        row: &Row,
        owner: &NameSlice,
        query: &MessageView<'_>,
        qname: &NameSlice,
        qtype: RType,
        out: &mut Vec<u8>,
    ) -> Result<(), WireError> {
        let t = &self.template;
        let at_apex = qname == owner;
        let flags = |rcode| Flags {
            aa: true,
            ..Flags::response_to(query.flags(), rcode)
        };
        match qtype {
            RType::A if at_apex => {
                let count = 1 + usize::from(row.secondary.is_some());
                query.encode_reply_with(qname, flags(Rcode::NoError), [count, 0, 0], out, |enc| {
                    for ip in std::iter::once(row.primary).chain(row.secondary) {
                        encode_record(enc, owner, t.a_ttl, RType::A, |e| e.put_slice(&ip.octets()));
                    }
                })
            }
            RType::Ns if at_apex => query.encode_reply_with(
                qname,
                flags(Rcode::NoError),
                [t.ns.len(), 0, 0],
                out,
                |enc| {
                    for host in &t.ns {
                        encode_record(enc, owner, t.ns_ttl, RType::Ns, |e| host.encode(e));
                    }
                },
            ),
            RType::Soa if at_apex => {
                query.encode_reply_with(qname, flags(Rcode::NoError), [1, 0, 0], out, |enc| {
                    t.encode_soa(enc, owner)
                })
            }
            // The apex holds no other type (NoData); nothing exists below
            // it (NXDOMAIN). Both carry the SOA as authority.
            _ => {
                let rcode = if at_apex {
                    Rcode::NoError
                } else {
                    Rcode::NxDomain
                };
                query.encode_reply_with(qname, flags(rcode), [0, 1, 0], out, |enc| {
                    t.encode_soa(enc, owner)
                })
            }
        }
    }
}

impl Authority for PlanZones {
    /// The deepest origin wins, as in a [`ZoneSet`]; a row shadows a zone
    /// at the same origin.
    fn encode_answer(
        &self,
        query: &MessageView<'_>,
        qname: &NameSlice,
        qtype: RType,
        out: &mut Vec<u8>,
    ) -> Result<(), WireError> {
        for origin in qname.suffixes() {
            if let Some(pos) = self.rows.position(origin.labels()) {
                let row = &self.rows.items()[pos];
                return self.encode_row_answer(row, origin, query, qname, qtype, out);
            }
            if let Some(zone) = self.zones.get(origin) {
                return encode_zone_answer(zone, query, qname, qtype, out);
            }
        }
        refuse(query, qname, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::shared_zones;
    use crate::AuthServer;
    use ruwhere_dns::{Message, RData, Record, Zone};
    use ruwhere_netsim::{Service, SimTime};

    fn name(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn dn(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    fn template() -> PlanTemplate {
        PlanTemplate {
            soa: SoaData {
                mname: name("ns1.hoster.ru"),
                rname: name("hostmaster.invalid"),
                serial: 1,
                refresh: 86_400,
                retry: 7_200,
                expire: 2_592_000,
                minimum: 3_600,
            },
            soa_ttl: 3_600,
            ns: vec![name("ns1.hoster.ru"), name("ns2.hoster.net")],
            ns_ttl: 3_600,
            a_ttl: 300,
        }
    }

    fn row(name: &str, last: u8, secondary: bool) -> Row {
        Row {
            name: dn(name),
            primary: [192, 0, 2, last].into(),
            secondary: secondary.then_some([198, 51, 100, last].into()),
        }
    }

    /// The zone a row stands for: the template's SOA and NS RRset and the
    /// row's A records.
    fn zone_of(t: &PlanTemplate, row: &Row) -> Zone {
        let owner = Name::from(&row.name);
        let mut z = Zone::new(owner.clone(), t.soa.clone(), t.soa_ttl);
        for ip in std::iter::once(row.primary).chain(row.secondary) {
            z.add(Record::new(owner.clone(), t.a_ttl, RData::A(ip)));
        }
        for host in &t.ns {
            z.add(Record::new(
                owner.clone(),
                t.ns_ttl,
                RData::Ns(host.clone()),
            ));
        }
        z
    }

    fn serve<A: Authority>(srv: &AuthServer<A>, q: &[u8]) -> Option<Vec<u8>> {
        let mut out = Vec::new();
        srv.handle(
            q,
            ("10.0.0.1".parse().unwrap(), 4000),
            SimTime::ZERO,
            &mut out,
        )
        .then_some(out)
    }

    #[test]
    fn rows_answer_like_the_zones_they_stand_for() {
        let mut plan = PlanZones::new(template());
        let rows = [row("a.ru", 1, false), row("b.ru", 2, true)];
        for r in &rows {
            plan.insert_row(r.clone());
        }
        let plan = AuthServer::new(Arc::new(RwLock::new(plan)));
        let zones = AuthServer::new(shared_zones(rows.iter().map(|r| zone_of(&template(), r))));
        let types = [
            RType::A,
            RType::Ns,
            RType::Soa,
            RType::Mx,
            RType::Aaaa,
            RType::Txt,
            RType::Ds,
            RType::Cname,
        ];
        for qname in [
            "a.ru", "B.Ru", "www.b.ru", "x.y.a.ru", "ru", "c.ru", "a.com",
        ] {
            for (id, qtype) in types.into_iter().enumerate() {
                let q = Message::query(id as u16, name(qname), qtype)
                    .encode()
                    .unwrap();
                assert_eq!(serve(&plan, &q), serve(&zones, &q), "{qname} {qtype}");
            }
        }
    }

    #[test]
    fn removal_swaps_the_last_row_into_the_hole() {
        let mut plan = PlanZones::new(template());
        for i in 0..5 {
            plan.insert_row(row(&format!("d{i}.ru"), i, false));
        }
        let gone = plan.remove_row(&dn("d1.ru")).unwrap();
        assert_eq!(gone.name, dn("d1.ru"));
        let order: Vec<&str> = plan.rows().iter().map(|r| r.name.as_str()).collect();
        assert_eq!(order, ["d0.ru", "d4.ru", "d2.ru", "d3.ru"]);
        assert!(plan.remove_row(&dn("d1.ru")).is_none());
        // Re-inserting a customer re-addresses it in place.
        plan.insert_row(row("d2.ru", 9, true));
        assert_eq!(plan.rows()[2], row("d2.ru", 9, true));
        assert_eq!(plan.rows().len(), 4);
        assert!(plan.set_addresses(&dn("d4.ru"), [10, 0, 0, 1].into(), None));
        assert_eq!(
            plan.row(&dn("d4.ru")).unwrap().primary,
            Ipv4Addr::from([10, 0, 0, 1])
        );
        assert!(!plan.set_addresses(&dn("d1.ru"), [10, 0, 0, 1].into(), None));
    }

    #[test]
    fn plan_servers_share_the_behaviour_gate() {
        let mut plan = PlanZones::new(template());
        plan.insert_row(row("a.ru", 1, false));
        let srv = AuthServer::new(Arc::new(RwLock::new(plan)));
        let q = Message::query(3, name("a.ru"), RType::A).encode().unwrap();
        let handle = srv.behavior_handle();
        handle.set(crate::ServerBehavior::Refused);
        let out = Message::decode(&serve(&srv, &q).unwrap()).unwrap();
        assert_eq!(out.flags.rcode, Rcode::Refused);
        handle.set(crate::ServerBehavior::Silent);
        assert!(serve(&srv, &q).is_none());
        handle.set(crate::ServerBehavior::Normal);
        let out = Message::decode(&serve(&srv, &q).unwrap()).unwrap();
        assert_eq!(out.answers.len(), 1);
    }
}
