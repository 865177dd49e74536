//! The transport core: virtual time, services, and the synchronous
//! request/response exchange every client drives.
//!
//! All measurement traffic in the workspace is strict request/response
//! (DNS queries, TLS banner grabs), so an exchange is computed directly,
//! with no event queue: the request's one-way hop, the service's reply and
//! the reply's hop back, each paying its own latency, jitter and loss
//! draw. A datagram that would arrive after its attempt's deadline makes
//! the attempt a timeout and is never delivered later. [`Network::request`]
//! runs the exchange on the global clock; a [`Lane`] runs the same code on
//! a clock of its own for parallel sweeps. Latency, jitter and loss are
//! deterministic functions of the topology seed and a per-packet sequence
//! number.

use crate::fault::FaultPlan;
use crate::obs::NetObs;
use crate::topology::{self, PairPath, Topology};
use ruwhere_types::{Asn, FastMap, SeedTree};
use std::fmt;
use std::net::Ipv4Addr;

/// Virtual time in microseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Zero.
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Saturating addition of microseconds.
    #[must_use]
    pub const fn plus_us(self, us: u64) -> Self {
        SimTime(self.0.saturating_add(us))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{:06}s", self.0 / 1_000_000, self.0 % 1_000_000)
    }
}

/// A request/response server bound to an address and port.
///
/// The service table is shared by every [`Lane`] of a sweep, and lanes run
/// on different worker threads, so [`handle`](Service::handle) may be
/// called concurrently. It takes `&self`: an implementer that keeps
/// mutable state guards it with its own lock or atomics.
pub trait Service: Send + Sync {
    /// Handle one datagram payload, writing the reply payload into
    /// `reply` (which arrives empty) and returning `true`; or return
    /// `false` to stay silent (the client will time out — how a
    /// black-holed or decommissioned server manifests to a scanner), in
    /// which case whatever was written is discarded.
    ///
    /// `reply` is the client's buffer, reused from request to request, so
    /// a service that writes its reply into it directly allocates nothing.
    fn handle(
        &self,
        payload: &[u8],
        src: (Ipv4Addr, u16),
        now: SimTime,
        reply: &mut Vec<u8>,
    ) -> bool;

    /// Server-side processing delay in microseconds (default 100 µs).
    fn processing_us(&self) -> u64 {
        100
    }
}

/// Transport-level failures visible to a client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetError {
    /// No reply within the timeout (loss, silent server, or no server).
    Timeout,
    /// The client source address is not attached to any announced prefix.
    NoRoute,
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Timeout => write!(f, "request timed out"),
            NetError::NoRoute => write!(f, "source address has no route"),
        }
    }
}

impl std::error::Error for NetError {}

/// Counters exposed for tests and benchmarks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Packets sent (requests + replies).
    pub sent: u64,
    /// Packets dropped by the loss process.
    pub dropped: u64,
    /// Packets delivered to a service or client.
    pub delivered: u64,
    /// Requests that found no listening service.
    pub unreachable: u64,
    /// Packets black-holed by an active server fault (outage/flapping).
    pub faulted: u64,
}

/// A synchronous request/response transport: the interface measurement
/// clients (the iterative resolver, scanners) drive.
///
/// Implemented by [`Network`] (requests advance the global virtual clock)
/// and by [`Lane`] (a per-worker view with its own clock, for parallel
/// sweeps). Both run the same exchange code.
pub trait Transport {
    /// Current virtual time on this transport's clock.
    fn now(&self) -> SimTime;

    /// Synchronous request/response with retries (see
    /// [`Network::request`] for the semantics). On `Ok` the reply payload
    /// is in `reply`; after an `Err` its contents are unspecified.
    fn request(
        &mut self,
        src_ip: Ipv4Addr,
        dst: (Ipv4Addr, u16),
        payload: &[u8],
        timeout_us: u64,
        attempts: u32,
        reply: &mut Vec<u8>,
    ) -> Result<(), NetError>;
}

/// The simulated network: topology, services, fault plan and the global
/// virtual clock.
pub struct Network {
    topo: Topology,
    seed: SeedTree,
    services: FastMap<(Ipv4Addr, u16), Box<dyn Service>>,
    now: SimTime,
    seq: u64,
    /// Uniform packet loss probability in [0, 1): independent background
    /// loss on every datagram, the one uniform-loss model. Scheduled or
    /// localised faults go in [`faults_mut`](Network::faults_mut) instead.
    pub loss_rate: f64,
    faults: FaultPlan,
    stats: NetStats,
}

impl Network {
    /// New network over `topo`; `seed` drives the loss process.
    pub fn new(topo: Topology, seed: SeedTree) -> Self {
        Network {
            topo,
            seed,
            services: FastMap::default(),
            now: SimTime::ZERO,
            seq: 0,
            loss_rate: 0.0,
            faults: FaultPlan::new(),
            stats: NetStats::default(),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Immutable topology access.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Mutable topology access (provider events re-announce prefixes).
    pub fn topology_mut(&mut self) -> &mut Topology {
        &mut self.topo
    }

    /// Transport statistics so far.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// The installed fault plan.
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// Mutable fault plan access (install/expire scheduled faults).
    pub fn faults_mut(&mut self) -> &mut FaultPlan {
        &mut self.faults
    }

    /// Replace the whole fault plan.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = plan;
    }

    /// Bind a service to `addr:port`, replacing any previous binding.
    pub fn bind(&mut self, addr: Ipv4Addr, port: u16, service: Box<dyn Service>) {
        self.services.insert((addr, port), service);
    }

    /// Remove the service at `addr:port` (the provider shut the box down).
    pub fn unbind(&mut self, addr: Ipv4Addr, port: u16) -> bool {
        self.services.remove(&(addr, port)).is_some()
    }

    /// Whether anything listens at `addr:port`.
    pub fn is_bound(&self, addr: Ipv4Addr, port: u16) -> bool {
        self.services.contains_key(&(addr, port))
    }

    /// All addresses with a service bound on `port`, in sorted order.
    ///
    /// An Internet-wide scanner (Censys-style) conceptually probes the whole
    /// address space and keeps the responders; enumerating the bound
    /// endpoints yields exactly that responder set without simulating
    /// billions of dead probes. Callers still issue a real [`request`]
    /// (latency + loss) per responder.
    ///
    /// [`request`]: Network::request
    pub fn bound_endpoints(&self, port: u16) -> Vec<Ipv4Addr> {
        let mut v: Vec<Ipv4Addr> = self
            .services
            .keys()
            .filter(|(_, p)| *p == port)
            .map(|(a, _)| *a)
            .collect();
        v.sort_unstable();
        v
    }

    /// Synchronous request/response with retries.
    ///
    /// Each attempt waits `timeout_us`; after `attempts` failures the call
    /// returns [`NetError::Timeout`]. On success the reply payload is in
    /// `reply`, and virtual time has advanced by the full round trip (plus
    /// any failed attempts' timeouts). After an `Err` the contents of
    /// `reply` are unspecified. A datagram that would arrive after its
    /// attempt's deadline is lost to that attempt: nothing is left in
    /// flight for a later request.
    ///
    /// Runs the [`Lane`] exchange on the global clock, drawing latency,
    /// jitter and loss from the network's global packet sequence.
    pub fn request(
        &mut self,
        src_ip: Ipv4Addr,
        dst: (Ipv4Addr, u16),
        payload: &[u8],
        timeout_us: u64,
        attempts: u32,
        reply: &mut Vec<u8>,
    ) -> Result<(), NetError> {
        // Only sweep lanes export observability: this lane's is dropped.
        let mut lane = self.open_lane(self.seed, Draws::Global, self.seq);
        let result = lane.request(src_ip, dst, payload, timeout_us, attempts, reply);
        let (now, seq, stats) = (lane.now, lane.seq, lane.stats);
        self.now = now;
        self.seq = seq;
        self.stats.merge(stats);
        result
    }

    /// Open a measurement [`Lane`]: an independent virtual clock over this
    /// network's shared topology, services, and fault plan.
    ///
    /// The lane starts at the network's current instant and draws its
    /// loss/jitter streams from `key`, NOT from the network's global packet
    /// sequence — so a lane's traffic is a pure function of (network
    /// snapshot, key, start instant), independent of any other lane and of
    /// which thread drives it. This is the determinism foundation of the
    /// parallel sweep engine.
    ///
    /// The key is hashed as it is formatted, so
    /// `lane(format_args!("{date}/{domain}"))` draws the same streams as a
    /// key string with that text, without building the string.
    pub fn lane(&self, key: fmt::Arguments<'_>) -> Lane<'_> {
        self.open_lane(self.seed.child("lane").child_fmt(key), Draws::Keyed, 0)
    }

    fn open_lane(&self, stream: SeedTree, draws: Draws, seq: u64) -> Lane<'_> {
        Lane {
            net: self,
            asns: AsnMemo::default(),
            pkt: stream.child("pkt"),
            loss: stream.child("loss"),
            linkfault: stream.child("linkfault"),
            draws,
            start: self.now,
            now: self.now,
            seq,
            stats: NetStats::default(),
            obs: NetObs::default(),
        }
    }

    /// Merge a finished lane's transport counters into the global ones.
    pub fn absorb_lane_stats(&mut self, stats: NetStats) {
        self.stats.merge(stats);
    }

    /// Advance the global clock to `t` (no-op if `t` is in the past). Used
    /// by the sweep engine to account the wall-clock of a set of concurrent
    /// lanes back into the serial timeline.
    pub fn advance_to_time(&mut self, t: SimTime) {
        self.now = self.now.max(t);
    }
}

impl Transport for Network {
    fn now(&self) -> SimTime {
        Network::now(self)
    }

    fn request(
        &mut self,
        src_ip: Ipv4Addr,
        dst: (Ipv4Addr, u16),
        payload: &[u8],
        timeout_us: u64,
        attempts: u32,
        reply: &mut Vec<u8>,
    ) -> Result<(), NetError> {
        Network::request(self, src_ip, dst, payload, timeout_us, attempts, reply)
    }
}

impl NetStats {
    /// Field-wise sum, for folding per-lane counters into a total.
    pub fn merge(&mut self, other: NetStats) {
        self.sent += other.sent;
        self.dropped += other.dropped;
        self.delivered += other.delivered;
        self.unreachable += other.unreachable;
        self.faulted += other.faulted;
    }
}

/// Where a lane's packet numbers and draws come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Draws {
    /// A sweep lane's keyed streams: a packet's jitter id is hashed from
    /// its lane-local sequence number.
    Keyed,
    /// The network's global packet sequence, used by [`Network::request`]:
    /// the jitter id is the sequence number itself, the ephemeral port
    /// counts attempts, and a datagram that survives its loss draws takes
    /// one more number when it is scheduled. Every later draw depends on
    /// this numbering, so changing it changes the outputs.
    Global,
}

/// A per-worker view of a [`Network`] with its own virtual clock.
///
/// All lanes of a sweep start at the same instant and run *logically
/// concurrently*: each models one of the many outstanding resolutions an
/// OpenINTEL-style pipeline keeps in flight. A lane only reads the shared
/// network (`&Network`) and services guard their own state (see
/// [`Service`]), so any number of lanes may be driven from different
/// threads at once.
///
/// Determinism contract: a lane's entire behaviour (latency, jitter, loss,
/// fault interaction) depends only on the network snapshot, the lane key
/// and the start instant — never on other lanes or scheduling order. A
/// datagram that would land after the attempt deadline makes the attempt
/// a timeout and is never delivered.
pub struct Lane<'a> {
    net: &'a Network,
    /// Addresses this lane has sent to or from, with their origin AS.
    asns: AsnMemo,
    /// The lane stream's children for packet ids, uniform loss and
    /// link-fault loss, derived once when the lane opens.
    pkt: SeedTree,
    loss: SeedTree,
    linkfault: SeedTree,
    draws: Draws,
    start: SimTime,
    now: SimTime,
    seq: u64,
    stats: NetStats,
    obs: NetObs,
}

impl Lane<'_> {
    /// Virtual time elapsed on this lane since it was opened.
    pub fn elapsed_us(&self) -> u64 {
        self.now.as_micros() - self.start.as_micros()
    }

    /// The lane's current instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Transport counters accumulated on this lane (merge back into the
    /// network with [`Network::absorb_lane_stats`]).
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Drain this lane's observability aggregates (merge them into a
    /// per-worker total).
    pub fn take_obs(&mut self) -> NetObs {
        self.obs.flush();
        std::mem::take(&mut self.obs)
    }

    /// Hand an already-populated aggregate to this lane to keep recording
    /// into. Paired with [`take_obs`](Lane::take_obs) this threads one
    /// accumulator through a sequence of short-lived lanes instead of
    /// allocating (and merging) fresh histograms per lane — every record
    /// is a commutative integer fold, so totals are identical either way.
    pub fn install_obs(&mut self, obs: NetObs) {
        self.obs = obs;
    }

    /// Deterministic uniform-loss draw for this lane's packet `seq`.
    fn uniformly_lost(&self, seq: u64) -> bool {
        let p = self.net.loss_rate;
        if p <= 0.0 {
            return false;
        }
        unit(self.loss.child_idx(seq).seed()) < p
    }

    /// Whether packet `seq` on the path `a`→`b` is eaten by an active link
    /// fault's extra-loss process (the uniform loss process is a separate
    /// draw, so drops can be attributed to their cause).
    fn fault_lost(&self, seq: u64, a: Ipv4Addr, b: Ipv4Addr, at: SimTime) -> bool {
        if self.net.faults.is_empty() {
            return false;
        }
        let base = self.linkfault.child_idx(seq);
        self.net.faults.active_link_faults(a, b, at).any(|(i, f)| {
            f.extra_loss > 0.0 && unit(base.child_idx(i as u64).seed()) < f.extra_loss
        })
    }

    /// Put one datagram `from`→`to` on the wire at `at`: it takes the next
    /// sequence number, counts as sent and pays its loss draws. Returns
    /// its one-way latency, or `None` if it is unrouted (`path` is
    /// `None`) or lost.
    fn transmit(
        &mut self,
        from: Ipv4Addr,
        to: Ipv4Addr,
        at: SimTime,
        path: Option<Path>,
    ) -> Option<u64> {
        self.seq += 1;
        let seq = self.seq;
        self.stats.sent += 1;
        let Path {
            from: a,
            to: b,
            pair,
        } = path?;
        let packet_id = match self.draws {
            Draws::Keyed => self.pkt.child_idx(seq).seed(),
            Draws::Global => seq,
        };
        let lat = pair.base_us
            + topology::jitter_us(pair.there, packet_id)
            + self.net.faults.extra_latency_us(from, to, at);
        let uniform_loss = self.uniformly_lost(seq);
        if uniform_loss || self.fault_lost(seq, from, to, at) {
            self.stats.dropped += 1;
            self.obs.hop_dropped(a, b, !uniform_loss);
            return None;
        }
        self.obs.hop_delivered(a, b, lat);
        if self.draws == Draws::Global {
            self.seq += 1;
        }
        Some(lat)
    }

    /// Attempt number `attempt` of `req`. On success writes the reply into
    /// `reply` and advances the lane clock to its arrival; on failure
    /// leaves the clock untouched (the caller burns the attempt timeout).
    fn attempt_once(
        &mut self,
        req: &Request<'_>,
        attempt: u32,
        deadline: SimTime,
        reply: &mut Vec<u8>,
    ) -> Option<()> {
        let port_seq = match self.draws {
            Draws::Keyed => self.seq + 1,
            Draws::Global => self.seq + u64::from(attempt),
        };
        let (dst_ip, port) = req.dst;
        let src = (req.src_ip, 49152 + (port_seq % 16384) as u16);
        // Unrouted destination or lost request: the attempt waits out its
        // timeout.
        let at = self
            .now
            .plus_us(self.transmit(req.src_ip, dst_ip, self.now, req.path)?);
        if at > deadline {
            return None;
        }
        // Arrival at the box: faults first, then the service.
        if self.net.faults.server_down(dst_ip, port, at) {
            self.stats.faulted += 1;
            self.obs.fault_blackholes += 1;
            return None;
        }
        let Some(svc) = self.net.services.get(&req.dst) else {
            self.stats.unreachable += 1;
            return None;
        };
        reply.clear();
        let answered = svc.handle(req.payload, src, at, reply);
        let proc = svc.processing_us();
        self.stats.delivered += 1;
        // Silent server: wait out the timeout.
        if !answered {
            return None;
        }
        // The reply leaves at the request's arrival, over the same path
        // reversed, and pays its own draws.
        let reverse = req.path.map(Path::reversed);
        let back_at = at.plus_us(proc + self.transmit(dst_ip, req.src_ip, at, reverse)?);
        if back_at > deadline {
            // Too late: counts as this attempt's timeout.
            return None;
        }
        self.now = back_at;
        self.stats.delivered += 1;
        Some(())
    }
}

/// The uniform draw in `[0, 1)` a 64-bit hash stands for.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// One direction of a request's AS-level path: the AS pair a datagram
/// crosses and the pair's path constants, oriented this way. Latency is
/// symmetric, so the reply leg reuses it.
#[derive(Debug, Clone, Copy)]
struct Path {
    from: Asn,
    to: Asn,
    pair: PairPath,
}

impl Path {
    fn reversed(self) -> Path {
        Path {
            from: self.to,
            to: self.from,
            pair: self.pair.reversed(),
        }
    }
}

/// A lane's memo of origin ASes by address, with each AS's position in
/// the topology. A lane borrows its network, so the routing table cannot
/// change while the memo lives. A full memo overwrites its slots in turn.
#[derive(Debug)]
struct AsnMemo {
    slots: [(Ipv4Addr, Asn, u32); 8],
    len: usize,
    next: usize,
}

impl Default for AsnMemo {
    fn default() -> Self {
        AsnMemo {
            slots: [(Ipv4Addr::UNSPECIFIED, Asn::default(), 0); 8],
            len: 0,
            next: 0,
        }
    }
}

impl AsnMemo {
    /// The origin AS of `ip` and its position, looked up in `topo` on
    /// first sight; an unrouted address is not remembered.
    fn asn_of(&mut self, topo: &Topology, ip: Ipv4Addr) -> Option<(Asn, u32)> {
        if let Some(&(_, asn, i)) = self.slots[..self.len].iter().find(|(a, ..)| *a == ip) {
            return Some((asn, i));
        }
        let asn = topo.asn_of(ip)?;
        let i = topo
            .as_index(asn)
            .expect("only registered ASes announce prefixes");
        self.slots[self.next] = (ip, asn, i);
        self.next = (self.next + 1) % self.slots.len();
        self.len = (self.len + 1).min(self.slots.len());
        Some((asn, i))
    }
}

/// What one request keeps fixed across its attempts, looked up once.
struct Request<'p> {
    src_ip: Ipv4Addr,
    dst: (Ipv4Addr, u16),
    payload: &'p [u8],
    /// The request leg's path; `None` if the destination is unrouted.
    path: Option<Path>,
}

impl Transport for Lane<'_> {
    fn now(&self) -> SimTime {
        self.now
    }

    fn request(
        &mut self,
        src_ip: Ipv4Addr,
        dst: (Ipv4Addr, u16),
        payload: &[u8],
        timeout_us: u64,
        attempts: u32,
        reply: &mut Vec<u8>,
    ) -> Result<(), NetError> {
        let topo = &self.net.topo;
        let Some((from, from_i)) = self.asns.asn_of(topo, src_ip) else {
            return Err(NetError::NoRoute);
        };
        let path = self.asns.asn_of(topo, dst.0).map(|(to, to_i)| Path {
            from,
            to,
            pair: topo.path(from_i, to_i),
        });
        let req = Request {
            src_ip,
            dst,
            payload,
            path,
        };
        let t0 = self.now;
        for attempt in 0..attempts.max(1) {
            let deadline = self.now.plus_us(timeout_us);
            // Fault-window occupancy: was the destination inside an active
            // server-fault window when this attempt was issued?
            let faulted_at_send =
                !self.net.faults.is_empty() && self.net.faults.server_down(dst.0, dst.1, self.now);
            if self.attempt_once(&req, attempt, deadline, reply).is_some() {
                self.obs
                    .request_us
                    .record(self.now.as_micros() - t0.as_micros());
                return Ok(());
            }
            self.now = deadline;
            if faulted_at_send {
                self.obs.fault_occupied_us += timeout_us;
            }
        }
        Err(NetError::Timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::AsInfo;
    use ruwhere_types::{Asn, Country};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    struct Echo;
    impl Service for Echo {
        fn handle(&self, p: &[u8], _s: (Ipv4Addr, u16), _n: SimTime, out: &mut Vec<u8>) -> bool {
            out.extend(p.iter().rev());
            true
        }
    }

    struct Silent;
    impl Service for Silent {
        fn handle(&self, _p: &[u8], _s: (Ipv4Addr, u16), _n: SimTime, _o: &mut Vec<u8>) -> bool {
            false
        }
    }

    /// Counts the requests it sees and answers with the running count.
    #[derive(Default)]
    struct Counter(Arc<AtomicU64>);
    impl Service for Counter {
        fn handle(&self, _p: &[u8], _s: (Ipv4Addr, u16), _n: SimTime, out: &mut Vec<u8>) -> bool {
            let n = self.0.fetch_add(1, Ordering::SeqCst) + 1;
            out.extend_from_slice(&n.to_be_bytes());
            true
        }
    }

    fn network() -> Network {
        let mut topo = Topology::new(SeedTree::new(5).child("topo"));
        topo.add_as(AsInfo {
            asn: Asn(100),
            org: "CLIENT".into(),
            country: Country::NL,
        });
        topo.add_as(AsInfo {
            asn: Asn(200),
            org: "SERVER".into(),
            country: Country::RU,
        });
        topo.announce("10.0.0.0/8".parse().unwrap(), Asn(100));
        topo.announce("192.0.2.0/24".parse().unwrap(), Asn(200));
        Network::new(topo, SeedTree::new(5).child("net"))
    }

    const CLIENT: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const SERVER: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 53);

    #[test]
    fn request_reply_roundtrip() {
        let mut net = network();
        net.bind(SERVER, 53, Box::new(Echo));
        let t0 = net.now();
        let mut reply = Vec::new();
        net.request(CLIENT, (SERVER, 53), b"abc", 5_000_000, 1, &mut reply)
            .unwrap();
        assert_eq!(reply, b"cba");
        // Time advanced by a plausible RTT (2 one-way latencies + proc).
        let elapsed = net.now().as_micros() - t0.as_micros();
        assert!(elapsed > 10_000, "elapsed {elapsed}us too fast");
        assert!(elapsed < 400_000, "elapsed {elapsed}us too slow");
    }

    #[test]
    fn timeout_when_no_service() {
        let mut net = network();
        let t0 = net.now();
        let err = net
            .request(CLIENT, (SERVER, 53), b"x", 1_000_000, 2, &mut Vec::new())
            .unwrap_err();
        assert_eq!(err, NetError::Timeout);
        assert_eq!(net.now().as_micros() - t0.as_micros(), 2_000_000);
        assert_eq!(net.stats().unreachable, 2);
    }

    #[test]
    fn timeout_when_server_silent() {
        let mut net = network();
        net.bind(SERVER, 53, Box::new(Silent));
        let err = net
            .request(CLIENT, (SERVER, 53), b"x", 1_000_000, 1, &mut Vec::new())
            .unwrap_err();
        assert_eq!(err, NetError::Timeout);
        assert_eq!(net.stats().delivered, 1);
    }

    #[test]
    fn no_route_source() {
        let mut net = network();
        net.bind(SERVER, 53, Box::new(Echo));
        let err = net
            .request(
                Ipv4Addr::new(203, 0, 113, 1),
                (SERVER, 53),
                b"x",
                1_000,
                1,
                &mut Vec::new(),
            )
            .unwrap_err();
        assert_eq!(err, NetError::NoRoute);
    }

    #[test]
    fn unbind_makes_unreachable() {
        let mut net = network();
        net.bind(SERVER, 53, Box::new(Echo));
        assert!(net.is_bound(SERVER, 53));
        assert!(net
            .request(CLIENT, (SERVER, 53), b"x", 1_000_000, 1, &mut Vec::new())
            .is_ok());
        assert!(net.unbind(SERVER, 53));
        assert!(!net.unbind(SERVER, 53));
        assert!(net
            .request(CLIENT, (SERVER, 53), b"x", 1_000_000, 1, &mut Vec::new())
            .is_err());
    }

    #[test]
    fn loss_causes_retries_and_determinism() {
        let run = |loss: f64| -> (u64, u64) {
            let mut net = network();
            net.loss_rate = loss;
            net.bind(SERVER, 53, Box::new(Echo));
            let mut ok = 0u64;
            for _ in 0..200 {
                if net
                    .request(CLIENT, (SERVER, 53), b"q", 200_000, 3, &mut Vec::new())
                    .is_ok()
                {
                    ok += 1;
                }
            }
            (ok, net.stats().dropped)
        };
        let (ok_lossless, dropped_lossless) = run(0.0);
        assert_eq!(ok_lossless, 200);
        assert_eq!(dropped_lossless, 0);

        let (ok_lossy, dropped_lossy) = run(0.3);
        assert!(dropped_lossy > 0, "loss process never fired");
        // With 3 attempts and 30% per-packet loss, nearly all succeed:
        // P(fail) = (1 - 0.7^2)^3 ≈ 13%.
        assert!(ok_lossy > 140, "only {ok_lossy}/200 succeeded");
        assert!(ok_lossy < 200, "loss had no observable effect");

        // Determinism: identical runs, identical counters.
        assert_eq!(run(0.3), (ok_lossy, dropped_lossy));
    }

    #[test]
    fn stateful_service_sees_all_requests() {
        let mut net = network();
        net.bind(SERVER, 80, Box::new(Counter::default()));
        let mut r = Vec::new();
        for expect in 1..=3u64 {
            net.request(CLIENT, (SERVER, 80), b"", 1_000_000, 1, &mut r)
                .unwrap();
            assert_eq!(r, expect.to_be_bytes());
        }
    }

    #[test]
    fn lanes_on_many_threads_share_one_service() {
        const K: u64 = 4;
        const M: u64 = 50;
        let count = Arc::new(AtomicU64::new(0));
        let mut net = network();
        net.bind(SERVER, 80, Box::new(Counter(Arc::clone(&count))));
        let net = &net;
        std::thread::scope(|s| {
            for k in 0..K {
                s.spawn(move || {
                    let mut lane = net.lane(format_args!("worker-{k}"));
                    for _ in 0..M {
                        let reply =
                            lane.request(CLIENT, (SERVER, 80), b"", 1_000_000, 1, &mut Vec::new());
                        assert!(reply.is_ok(), "lane {k}: {reply:?}");
                    }
                });
            }
        });
        assert_eq!(count.load(Ordering::SeqCst), K * M);
    }

    #[test]
    fn sim_time_display() {
        assert_eq!(SimTime::from_millis(1500).to_string(), "1.500000s");
        assert_eq!(SimTime::ZERO.to_string(), "0.000000s");
    }

    #[test]
    fn server_outage_window_blackholes_then_recovers() {
        use crate::fault::{FaultWindow, ServerFault, ServerFaultMode};
        let mut net = network();
        net.bind(SERVER, 53, Box::new(Echo));
        // Outage of 10 virtual seconds starting 1s in.
        net.faults_mut().add_server_fault(ServerFault {
            addr: SERVER,
            port: Some(53),
            mode: ServerFaultMode::Outage,
            window: FaultWindow::between(SimTime(1_000_000), SimTime(11_000_000)),
        });
        // Before the window: healthy.
        assert!(net
            .request(CLIENT, (SERVER, 53), b"a", 500_000, 1, &mut Vec::new())
            .is_ok());
        // Burn time into the window via timeouts, observing the outage.
        let mut failures = 0;
        while net.now().as_micros() < 11_000_000 {
            if net
                .request(CLIENT, (SERVER, 53), b"b", 1_000_000, 1, &mut Vec::new())
                .is_err()
            {
                failures += 1;
            }
        }
        assert!(failures > 5, "outage produced only {failures} timeouts");
        assert!(net.stats().faulted > 0);
        // After the window: healthy again, no rebind needed.
        assert!(net
            .request(CLIENT, (SERVER, 53), b"c", 500_000, 2, &mut Vec::new())
            .is_ok());
    }

    #[test]
    fn flapping_server_alternates_and_is_deterministic() {
        use crate::fault::{FaultWindow, ServerFault, ServerFaultMode};
        let run = || {
            let mut net = network();
            net.bind(SERVER, 53, Box::new(Echo));
            net.faults_mut().add_server_fault(ServerFault {
                addr: SERVER,
                port: None,
                mode: ServerFaultMode::Flapping {
                    period_us: 2_000_000,
                },
                window: FaultWindow::from(SimTime::ZERO),
            });
            let mut outcomes = Vec::new();
            for _ in 0..20 {
                outcomes.push(
                    net.request(CLIENT, (SERVER, 53), b"q", 500_000, 1, &mut Vec::new())
                        .is_ok(),
                );
            }
            (outcomes, net.stats())
        };
        let (outcomes, stats) = run();
        let ok = outcomes.iter().filter(|o| **o).count();
        assert!(ok > 0, "flapping server never answered");
        assert!(ok < 20, "flapping server never failed");
        assert!(stats.faulted > 0);
        assert_eq!(run(), (outcomes, stats), "flapping must be deterministic");
    }

    #[test]
    fn degraded_link_raises_loss_and_latency() {
        use crate::fault::{FaultWindow, LinkFault};
        let run = |fault: bool| {
            let mut net = network();
            net.bind(SERVER, 53, Box::new(Echo));
            if fault {
                net.faults_mut().add_link_fault(LinkFault {
                    prefix: "192.0.2.0/24".parse().unwrap(),
                    extra_loss: 0.4,
                    extra_latency_us: 50_000,
                    window: FaultWindow::always(),
                });
            }
            let mut ok = 0u64;
            for _ in 0..200 {
                if net
                    .request(CLIENT, (SERVER, 53), b"q", 400_000, 1, &mut Vec::new())
                    .is_ok()
                {
                    ok += 1;
                }
            }
            (ok, net.stats().dropped, net.now().as_micros())
        };
        let (ok_clean, dropped_clean, _) = run(false);
        let (ok_degraded, dropped_degraded, elapsed_degraded) = run(true);
        assert_eq!(ok_clean, 200);
        assert_eq!(dropped_clean, 0);
        assert!(dropped_degraded > 0, "link fault never dropped a packet");
        assert!(ok_degraded < ok_clean, "link fault had no effect");
        // Surviving round trips each paid 2 × 50ms extra latency.
        assert!(elapsed_degraded > u64::from(ok_degraded as u32) * 100_000);
        // Determinism under faults.
        assert_eq!(run(true), (ok_degraded, dropped_degraded, elapsed_degraded));
    }

    #[test]
    fn reply_pays_link_latency_of_a_window_opened_in_flight() {
        use crate::fault::{FaultWindow, LinkFault};
        // The window opens 1 µs after the send: the request misses it, the
        // reply leaves at the request's arrival and must pay it.
        let elapsed = |fault: bool, on_lane: bool| {
            let mut net = network();
            net.bind(SERVER, 53, Box::new(Echo));
            if fault {
                net.faults_mut().add_link_fault(LinkFault {
                    prefix: "192.0.2.0/24".parse().unwrap(),
                    extra_loss: 0.0,
                    extra_latency_us: 50_000,
                    window: FaultWindow::from(SimTime(1)),
                });
            }
            if on_lane {
                let mut lane = net.lane(format_args!("probe"));
                lane.request(CLIENT, (SERVER, 53), b"q", 1_000_000, 1, &mut Vec::new())
                    .unwrap();
                lane.elapsed_us()
            } else {
                net.request(CLIENT, (SERVER, 53), b"q", 1_000_000, 1, &mut Vec::new())
                    .unwrap();
                net.now().as_micros()
            }
        };
        for on_lane in [false, true] {
            assert_eq!(
                elapsed(true, on_lane),
                elapsed(false, on_lane) + 50_000,
                "on_lane = {on_lane}"
            );
        }
    }

    #[test]
    fn late_request_is_never_served() {
        use crate::fault::{FaultWindow, LinkFault};
        let count = Arc::new(AtomicU64::new(0));
        let mut net = network();
        net.bind(SERVER, 80, Box::new(Counter(Arc::clone(&count))));
        // Two extra seconds one way against a one-second attempt timeout.
        net.faults_mut().add_link_fault(LinkFault {
            prefix: "192.0.2.0/24".parse().unwrap(),
            extra_loss: 0.0,
            extra_latency_us: 2_000_000,
            window: FaultWindow::always(),
        });
        let late = net.request(CLIENT, (SERVER, 80), b"", 1_000_000, 1, &mut Vec::new());
        assert_eq!(late, Err(NetError::Timeout));
        assert_eq!(count.load(Ordering::SeqCst), 0);
        net.advance_to_time(net.now().plus_us(10_000_000));
        let again = net.request(CLIENT, (SERVER, 80), b"", 1_000_000, 1, &mut Vec::new());
        assert_eq!(again, Err(NetError::Timeout));
        assert_eq!(count.load(Ordering::SeqCst), 0, "a late request was served");
        assert_eq!(net.stats().unreachable, 0);
    }
}
