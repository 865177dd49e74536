//! Authoritative server: zone storage and query answering.

use ruwhere_dns::zone::Lookup;
use ruwhere_dns::{
    Flags, MessageView, Name, NameSlice, RData, RType, Rcode, Record, WireError, Zone, MAX_NAME_LEN,
};
use ruwhere_netsim::{Service, SimTime};
use ruwhere_types::sync::read;
use ruwhere_types::FastMap;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, RwLock};

/// A set of zones served by one operator, keyed by origin. Serving only
/// probes exact origins, so the index is hashed.
#[derive(Debug, Clone, Default)]
pub struct ZoneSet {
    zones: FastMap<Name, Zone>,
}

impl ZoneSet {
    /// Empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert (or replace) a zone; keyed by its origin.
    pub fn insert(&mut self, zone: Zone) {
        self.zones.insert(zone.origin().clone(), zone);
    }

    /// Number of zones.
    pub fn len(&self) -> usize {
        self.zones.len()
    }

    /// Whether no zones are present.
    pub fn is_empty(&self) -> bool {
        self.zones.is_empty()
    }

    /// Direct access to a zone by origin.
    pub fn get(&self, origin: &NameSlice) -> Option<&Zone> {
        self.zones.get(origin)
    }

    /// Mutable access to a zone by origin.
    pub fn get_mut(&mut self, origin: &NameSlice) -> Option<&mut Zone> {
        self.zones.get_mut(origin)
    }

    /// The zone with the deepest origin that is an ancestor of (or equal
    /// to) `qname` — the zone this operator would answer from.
    pub fn find_best(&self, qname: &NameSlice) -> Option<&Zone> {
        qname.suffixes().find_map(|n| self.zones.get(n))
    }
}

impl Authority for ZoneSet {
    fn encode_answer(
        &self,
        query: &MessageView<'_>,
        qname: &NameSlice,
        qtype: RType,
        out: &mut Vec<u8>,
    ) -> Result<(), WireError> {
        match self.find_best(qname) {
            Some(zone) => encode_zone_answer(zone, query, qname, qtype, out),
            None => refuse(query, qname, out),
        }
    }
}

/// Shared, mutable zone storage: the world driver updates zones while the
/// network holds the serving side.
pub type SharedZoneSet = Arc<RwLock<ZoneSet>>;

/// The data an [`AuthServer`] answers from: a [`ZoneSet`], or a managed
/// DNS plan's [`PlanZones`](crate::PlanZones).
pub trait Authority: Send + Sync + 'static {
    /// Encode into `out` the authoritative reply to `query`, whose first
    /// question asks for `qtype` at `qname` (lowercased): an answer from
    /// the deepest origin at or above `qname`, or `REFUSED` when no
    /// origin covers it.
    fn encode_answer(
        &self,
        query: &MessageView<'_>,
        qname: &NameSlice,
        qtype: RType,
        out: &mut Vec<u8>,
    ) -> Result<(), WireError>;
}

/// How the server responds — the observable modes of provider behaviour
/// during the 2022 disengagements, plus the degraded modes the
/// fault-injection layer exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ServerBehavior {
    /// Answer authoritatively from the zone set.
    Normal,
    /// Respond `REFUSED` to everything (service terminated, box still up).
    Refused,
    /// Never respond (black-holed / decommissioned).
    Silent,
    /// Respond `SERVFAIL` to everything (frontend up, backend broken).
    ServFail,
    /// Respond with `TC=1` and empty sections (reply would not fit; the
    /// UDP-only measurement client cannot use it).
    Truncated,
    /// Lame: answer `NOERROR` non-authoritatively with nothing — the box
    /// is up but does not actually serve the delegated zone.
    Lame,
}

impl ServerBehavior {
    /// Every behaviour, indexed by its `repr(u8)` code.
    const ALL: [ServerBehavior; 6] = [
        ServerBehavior::Normal,
        ServerBehavior::Refused,
        ServerBehavior::Silent,
        ServerBehavior::ServFail,
        ServerBehavior::Truncated,
        ServerBehavior::Lame,
    ];
}

/// A shared switch for one server's [`ServerBehavior`], starting at
/// [`ServerBehavior::Normal`]. It is one atomic byte, so the server reads
/// it on every query without taking a lock; the byte publishes no other
/// data, so its loads and stores are `Relaxed`.
#[derive(Debug, Clone, Default)]
pub struct BehaviorHandle(Arc<AtomicU8>);

impl BehaviorHandle {
    /// The current behaviour.
    pub fn get(&self) -> ServerBehavior {
        ServerBehavior::ALL[usize::from(self.0.load(Ordering::Relaxed))]
    }

    /// Switch to `behavior` from the next query on.
    pub fn set(&self, behavior: ServerBehavior) {
        self.0.store(behavior as u8, Ordering::Relaxed);
    }
}

/// The authoritative DNS service bound into the simulated network,
/// answering from a shared [`Authority`] — a [`ZoneSet`] unless stated.
pub struct AuthServer<A = ZoneSet> {
    zones: Arc<RwLock<A>>,
    behavior: BehaviorHandle,
}

impl<A: Authority> AuthServer<A> {
    /// New server over `zones` with [`ServerBehavior::Normal`].
    pub fn new(zones: Arc<RwLock<A>>) -> Self {
        AuthServer {
            zones,
            behavior: BehaviorHandle::default(),
        }
    }

    /// Handle to flip behaviour later (provider exits mid-simulation).
    pub fn behavior_handle(&self) -> BehaviorHandle {
        self.behavior.clone()
    }

    /// The full request path (behaviour gate, parse, answer, encode into
    /// `out`) — needs only shared access: the zones live behind their own
    /// lock and the behaviour is atomic. Returns whether a reply was
    /// written.
    fn respond(&self, payload: &[u8], out: &mut Vec<u8>) -> bool {
        let behavior = self.behavior.get();
        if behavior == ServerBehavior::Silent {
            return false;
        }
        let Ok(query) = MessageView::parse(payload) else {
            return false;
        };
        let Some(q) = query.questions().next() else {
            return false;
        };
        if query.is_response() {
            return false;
        }
        // Lowercased once: the answer is looked up by it and the reply
        // echoes it.
        let mut buf = [0u8; MAX_NAME_LEN];
        let qname = q.name.lowercase_into(&mut buf);
        let query = &query;
        match behavior {
            ServerBehavior::Refused => reply(query, qname, Rcode::Refused, false, NO_RECORDS, out),
            ServerBehavior::ServFail => {
                reply(query, qname, Rcode::ServFail, false, NO_RECORDS, out)
            }
            ServerBehavior::Truncated => {
                let flags = Flags {
                    tc: true,
                    ..Flags::response_to(query.flags(), Rcode::NoError)
                };
                query.encode_reply(qname, flags, NO_RECORDS, out)
            }
            ServerBehavior::Lame => reply(query, qname, Rcode::NoError, false, NO_RECORDS, out),
            ServerBehavior::Normal | ServerBehavior::Silent => {
                read(&self.zones).encode_answer(query, qname, q.rtype, out)
            }
        }
        .is_ok()
    }
}

/// Encode the reply to `query` for `qtype` at `qname` from `zone`,
/// straight from the records the zone holds: nothing is cloned and no
/// reply [`Message`](ruwhere_dns::Message) is built.
pub(crate) fn encode_zone_answer(
    zone: &Zone,
    query: &MessageView<'_>,
    qname: &NameSlice,
    qtype: RType,
    out: &mut Vec<u8>,
) -> Result<(), WireError> {
    let respond =
        |rcode, aa, sections, out: &mut Vec<u8>| reply(query, qname, rcode, aa, sections, out);
    match zone.lookup(qname, qtype) {
        Lookup::Answer(records) => respond(Rcode::NoError, true, [&records, &[], &[]], out),
        Lookup::Cname(cname) => {
            // Chase in-zone as far as possible, like real servers do.
            let mut chain = vec![cname];
            let mut next = cname;
            for _ in 0..8 {
                let RData::Cname(target) = &next.data else {
                    unreachable!("Lookup::Cname holds a CNAME");
                };
                match zone.lookup(target, qtype) {
                    Lookup::Answer(records) => {
                        chain.extend(records.iter().copied());
                        break;
                    }
                    Lookup::Cname(cname) => {
                        chain.push(cname);
                        next = cname;
                    }
                    _ => break,
                }
            }
            respond(Rcode::NoError, true, [&chain, &[], &[]], out)
        }
        Lookup::Delegation { ns, glue } => respond(Rcode::NoError, false, [&[], &ns, &glue], out),
        Lookup::NoData => respond(Rcode::NoError, true, [&[], &[zone.soa_record()], &[]], out),
        Lookup::NxDomain => respond(Rcode::NxDomain, true, [&[], &[zone.soa_record()], &[]], out),
        Lookup::OutOfZone => refuse(query, qname, out),
    }
}

/// Encode the `REFUSED` reply to a question outside every origin.
pub(crate) fn refuse(
    query: &MessageView<'_>,
    qname: &NameSlice,
    out: &mut Vec<u8>,
) -> Result<(), WireError> {
    reply(query, qname, Rcode::Refused, false, NO_RECORDS, out)
}

/// Empty answer, authority and additional sections.
const NO_RECORDS: [&[&Record]; 3] = [&[], &[], &[]];

/// Encode into `out` a reply to `query`, whose first question's name is
/// `qname` lowercased, echoing its id and questions, with `rcode`, the AA
/// bit and the answer, authority and additional sections.
fn reply(
    query: &MessageView<'_>,
    qname: &NameSlice,
    rcode: Rcode,
    aa: bool,
    sections: [&[&Record]; 3],
    out: &mut Vec<u8>,
) -> Result<(), WireError> {
    let flags = Flags {
        aa,
        ..Flags::response_to(query.flags(), rcode)
    };
    query.encode_reply(qname, flags, sections, out)
}

impl<A: Authority> Service for AuthServer<A> {
    fn handle(
        &self,
        payload: &[u8],
        _src: (Ipv4Addr, u16),
        _now: SimTime,
        reply: &mut Vec<u8>,
    ) -> bool {
        self.respond(payload, reply)
    }

    fn processing_us(&self) -> u64 {
        250
    }
}

/// Convenience: build a shared zone set from zones.
pub fn shared_zones<I: IntoIterator<Item = Zone>>(zones: I) -> SharedZoneSet {
    let mut set = ZoneSet::new();
    for z in zones {
        set.insert(z);
    }
    Arc::new(RwLock::new(set))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruwhere_dns::{Message, RData, RType, Record, SoaData};
    use ruwhere_types::sync::write;

    /// Answer `query` against `zones`: the reply [`Service::handle`]
    /// sends for it, decoded.
    fn answer(zones: &SharedZoneSet, query: &Message) -> Message {
        let query = query.encode().unwrap();
        let mut reply = Vec::new();
        assert!(AuthServer::new(Arc::clone(zones)).respond(&query, &mut reply));
        Message::decode(&reply).unwrap()
    }

    /// The service's reply to `query`, if any.
    fn serve(srv: &AuthServer, query: &[u8]) -> Option<Vec<u8>> {
        let src = ("10.0.0.1".parse().unwrap(), 40000);
        let mut out = Vec::new();
        srv.handle(query, src, SimTime::ZERO, &mut out)
            .then_some(out)
    }

    fn name(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn soa() -> SoaData {
        SoaData {
            mname: name("ns.op.ru"),
            rname: name("host.op.ru"),
            serial: 1,
            refresh: 1,
            retry: 1,
            expire: 1,
            minimum: 60,
        }
    }

    fn example_zone() -> Zone {
        let mut z = Zone::new(name("example.ru"), soa(), 3600);
        z.add(Record::new(
            name("example.ru"),
            300,
            RData::A("192.0.2.10".parse().unwrap()),
        ));
        z.add(Record::new(
            name("example.ru"),
            300,
            RData::Ns(name("ns1.dns-op.ru")),
        ));
        z.add(Record::new(
            name("www.example.ru"),
            300,
            RData::Cname(name("example.ru")),
        ));
        z
    }

    #[test]
    fn zoneset_deepest_match() {
        let mut zs = ZoneSet::new();
        zs.insert(Zone::new(name("ru"), soa(), 3600));
        zs.insert(example_zone());
        assert_eq!(
            zs.find_best(&name("www.example.ru")).unwrap().origin(),
            &name("example.ru")
        );
        assert_eq!(
            zs.find_best(&name("other.ru")).unwrap().origin(),
            &name("ru")
        );
        assert!(zs.find_best(&name("example.com")).is_none());
        assert_eq!(zs.len(), 2);
    }

    #[test]
    fn answer_a_query() {
        let zones = shared_zones([example_zone()]);
        let q = Message::query(1, name("example.ru"), RType::A);
        let resp = answer(&zones, &q);
        assert_eq!(resp.flags.rcode, Rcode::NoError);
        assert!(resp.flags.aa);
        assert_eq!(resp.answers.len(), 1);
    }

    #[test]
    fn answer_cname_chases_in_zone() {
        let zones = shared_zones([example_zone()]);
        let q = Message::query(1, name("www.example.ru"), RType::A);
        let resp = answer(&zones, &q);
        // CNAME plus the chased A record.
        assert_eq!(resp.answers.len(), 2);
        assert_eq!(resp.answers[0].data.rtype(), RType::Cname);
        assert_eq!(resp.answers[1].data.rtype(), RType::A);
    }

    #[test]
    fn answer_nxdomain_and_nodata() {
        let zones = shared_zones([example_zone()]);
        let q = Message::query(1, name("missing.example.ru"), RType::A);
        let resp = answer(&zones, &q);
        assert_eq!(resp.flags.rcode, Rcode::NxDomain);
        assert_eq!(resp.authorities.len(), 1, "negative answers carry the SOA");

        let q = Message::query(1, name("example.ru"), RType::Mx);
        let resp = answer(&zones, &q);
        assert_eq!(resp.flags.rcode, Rcode::NoError);
        assert!(resp.answers.is_empty());
        assert_eq!(resp.authorities.len(), 1);
    }

    #[test]
    fn answer_refused_outside_authority() {
        let zones = shared_zones([example_zone()]);
        let q = Message::query(1, name("example.com"), RType::A);
        let resp = answer(&zones, &q);
        assert_eq!(resp.flags.rcode, Rcode::Refused);
    }

    #[test]
    fn service_behaviors() {
        let zones = shared_zones([example_zone()]);
        let srv = AuthServer::new(Arc::clone(&zones));
        let behavior = srv.behavior_handle();
        let q = Message::query(9, name("example.ru"), RType::A)
            .encode()
            .unwrap();

        let out = serve(&srv, &q).unwrap();
        assert_eq!(Message::decode(&out).unwrap().flags.rcode, Rcode::NoError);

        behavior.set(ServerBehavior::Refused);
        let out = serve(&srv, &q).unwrap();
        assert_eq!(Message::decode(&out).unwrap().flags.rcode, Rcode::Refused);

        behavior.set(ServerBehavior::ServFail);
        let out = serve(&srv, &q).unwrap();
        assert_eq!(Message::decode(&out).unwrap().flags.rcode, Rcode::ServFail);

        behavior.set(ServerBehavior::Truncated);
        let out = serve(&srv, &q).unwrap();
        let m = Message::decode(&out).unwrap();
        assert!(m.flags.tc);
        assert!(m.answers.is_empty());

        behavior.set(ServerBehavior::Lame);
        let out = serve(&srv, &q).unwrap();
        let m = Message::decode(&out).unwrap();
        assert_eq!(m.flags.rcode, Rcode::NoError);
        assert!(!m.flags.aa);
        assert!(m.answers.is_empty() && m.authorities.is_empty());

        behavior.set(ServerBehavior::Silent);
        assert!(serve(&srv, &q).is_none());
    }

    #[test]
    fn service_ignores_garbage_and_responses() {
        let zones = shared_zones([example_zone()]);
        let srv = AuthServer::new(zones);
        assert!(serve(&srv, b"not dns").is_none());
        let q = Message::query(9, name("example.ru"), RType::A);
        let mut resp = Message::response_to(&q, Rcode::NoError);
        resp.flags.qr = true;
        assert!(serve(&srv, &resp.encode().unwrap()).is_none());
    }

    #[test]
    fn zone_updates_visible_through_shared_set() {
        let zones = shared_zones([example_zone()]);
        let srv = AuthServer::new(Arc::clone(&zones));
        let q = Message::query(9, name("example.ru"), RType::A)
            .encode()
            .unwrap();

        // Mutate the zone from "outside" (the world driver's daily update).
        {
            let mut g = write(&zones);
            let z = g.get_mut(&name("example.ru")).unwrap();
            z.remove(&name("example.ru"), Some(RType::A));
            z.add(Record::new(
                name("example.ru"),
                300,
                RData::A("198.51.100.99".parse().unwrap()),
            ));
        }
        let out = serve(&srv, &q).unwrap();
        let resp = Message::decode(&out).unwrap();
        assert_eq!(
            resp.answers[0].data,
            RData::A("198.51.100.99".parse().unwrap())
        );
    }
}
