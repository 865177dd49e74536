//! The discrete-event core: virtual time, scheduled datagram delivery,
//! services, and a synchronous client facade.
//!
//! All measurement traffic in the workspace is strict request/response
//! (DNS queries, TLS banner grabs), so the public entry point is
//! [`Network::request`]: it injects a datagram, then drives the event loop
//! until the matching reply arrives at the client's ephemeral port or the
//! timeout expires. Latency, jitter and loss are deterministic functions of
//! the topology seed and a per-packet sequence number.

use crate::fault::FaultPlan;
use crate::obs::NetObs;
use crate::topology::Topology;
use ruwhere_types::{Asn, SeedTree};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
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

/// A UDP-like datagram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Datagram {
    /// Source address and port.
    pub src: (Ipv4Addr, u16),
    /// Destination address and port.
    pub dst: (Ipv4Addr, u16),
    /// Payload bytes.
    pub payload: Vec<u8>,
}

/// A request/response server bound to an address and port.
///
/// The service table is shared by every [`Lane`] of a sweep, and lanes run
/// on different worker threads, so [`handle`](Service::handle) may be
/// called concurrently. It takes `&self`: an implementer that keeps
/// mutable state guards it with its own lock or atomics.
pub trait Service: Send + Sync {
    /// Handle one datagram payload; return the reply payload, or `None` to
    /// stay silent (the client will time out — how a black-holed or
    /// decommissioned server manifests to a scanner).
    fn handle(&self, payload: &[u8], src: (Ipv4Addr, u16), now: SimTime) -> Option<Vec<u8>>;

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
    /// Datagrams injected (requests + replies).
    pub sent: u64,
    /// Datagrams dropped by the loss process.
    pub dropped: u64,
    /// Datagrams delivered to a service or client.
    pub delivered: u64,
    /// Requests that found no listening service.
    pub unreachable: u64,
    /// Datagrams black-holed by an active server fault (outage/flapping).
    pub faulted: u64,
}

enum Event {
    Deliver(Datagram),
}

/// A synchronous request/response transport: the interface measurement
/// clients (the iterative resolver, scanners) drive.
///
/// Implemented by [`Network`] (the serial engine: requests advance the
/// global virtual clock) and by [`Lane`] (a per-worker view with its own
/// clock, for parallel sweeps).
pub trait Transport {
    /// Current virtual time on this transport's clock.
    fn now(&self) -> SimTime;

    /// Synchronous request/response with retries (see
    /// [`Network::request`] for the semantics).
    fn request(
        &mut self,
        src_ip: Ipv4Addr,
        dst: (Ipv4Addr, u16),
        payload: &[u8],
        timeout_us: u64,
        attempts: u32,
    ) -> Result<Vec<u8>, NetError>;
}

/// The simulated network: topology + services + event queue.
pub struct Network {
    topo: Topology,
    seed: SeedTree,
    services: HashMap<(Ipv4Addr, u16), Box<dyn Service>>,
    queue: BinaryHeap<Reverse<(SimTime, u64)>>,
    pending: HashMap<u64, Event>,
    now: SimTime,
    seq: u64,
    /// Uniform packet loss probability in [0, 1).
    ///
    /// Legacy convenience knob: semantically it compiles down to the trivial
    /// fault plan [`FaultPlan::uniform_loss`] — one always-on link fault
    /// covering the whole address space. Scheduled or localised faults go in
    /// [`faults_mut`](Network::faults_mut) instead.
    pub loss_rate: f64,
    faults: FaultPlan,
    stats: NetStats,
    obs: NetObs,
}

impl Network {
    /// New network over `topo`; `seed` drives the loss process.
    pub fn new(topo: Topology, seed: SeedTree) -> Self {
        Network {
            topo,
            seed,
            services: HashMap::new(),
            queue: BinaryHeap::new(),
            pending: HashMap::new(),
            now: SimTime::ZERO,
            seq: 0,
            loss_rate: 0.0,
            faults: FaultPlan::new(),
            stats: NetStats::default(),
            obs: NetObs::default(),
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

    /// Transport observability aggregates recorded so far on the serial
    /// engine (lanes carry their own; see [`Lane::take_obs`]).
    pub fn obs(&self) -> &NetObs {
        &self.obs
    }

    /// Drain the serial engine's observability aggregates.
    pub fn take_obs(&mut self) -> NetObs {
        self.obs.flush();
        std::mem::take(&mut self.obs)
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

    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    /// Deterministic Bernoulli(loss_rate) draw for packet `seq`.
    fn lost(&self, seq: u64) -> bool {
        if self.loss_rate <= 0.0 {
            return false;
        }
        let h = self.seed.child("loss").child_idx(seq).seed();
        // Map to [0,1) with 53-bit precision.
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        u < self.loss_rate
    }

    /// Deterministic extra-loss draw for packet `seq` on the path `a`↔`b`:
    /// each active matching link fault contributes an independent Bernoulli
    /// stream keyed by (fault index, seq).
    fn fault_lost(&self, seq: u64, a: Ipv4Addr, b: Ipv4Addr) -> bool {
        if self.faults.is_empty() {
            return false;
        }
        let base = self.seed.child("linkfault").child_idx(seq);
        self.faults
            .active_link_faults(a, b, self.now)
            .any(|(i, f)| {
                if f.extra_loss <= 0.0 {
                    return false;
                }
                let h = base.child_idx(i as u64).seed();
                let u = (h >> 11) as f64 / (1u64 << 53) as f64;
                u < f.extra_loss
            })
    }

    /// One-way hop for packet `packet_id`: the AS pair it crosses and its
    /// latency, `None` if either side is unrouted.
    fn hop(&self, from: Ipv4Addr, to: Ipv4Addr, packet_id: u64) -> Option<(Asn, Asn, u64)> {
        let a = self.topo.asn_of(from)?;
        let b = self.topo.asn_of(to)?;
        let degraded = self.faults.extra_latency_us(from, to, self.now);
        let lat = self.topo.latency_us(a, b) + self.topo.jitter_us(a, b, packet_id) + degraded;
        Some((a, b, lat))
    }

    fn schedule(&mut self, at: SimTime, ev: Event) {
        let id = self.next_seq();
        self.pending.insert(id, ev);
        self.queue.push(Reverse((at, id)));
    }

    /// Inject a datagram from `dgram.src` at the current time. Applies the
    /// loss process and schedules delivery. Returns `false` if the source
    /// has no route (nothing is scheduled).
    pub fn send(&mut self, dgram: Datagram) -> bool {
        let seq = self.next_seq();
        self.stats.sent += 1;
        let Some((a, b, lat)) = self.hop(dgram.src.0, dgram.dst.0, seq) else {
            return false;
        };
        if self.lost(seq) {
            self.stats.dropped += 1;
            self.obs.hop_dropped(a, b, false);
            return true; // it was sent; the network ate it
        }
        if self.fault_lost(seq, dgram.src.0, dgram.dst.0) {
            self.stats.dropped += 1;
            self.obs.hop_dropped(a, b, true);
            return true;
        }
        self.obs.hop_delivered(a, b, lat);
        let at = self.now.plus_us(lat);
        self.schedule(at, Event::Deliver(dgram));
        true
    }

    /// Process events until `deadline`, watching for a datagram addressed to
    /// `watch` (a client's ephemeral binding). Returns the matching payload
    /// if it arrives. Time advances to the arrival or to the deadline.
    fn run_until(&mut self, deadline: SimTime, watch: (Ipv4Addr, u16)) -> Option<Vec<u8>> {
        while let Some(&Reverse((at, id))) = self.queue.peek() {
            if at > deadline {
                break;
            }
            self.queue.pop();
            let Some(Event::Deliver(dgram)) = self.pending.remove(&id) else {
                continue;
            };
            self.now = at;
            if dgram.dst == watch {
                self.stats.delivered += 1;
                return Some(dgram.payload);
            }
            self.deliver_to_service(dgram);
        }
        self.now = deadline;
        None
    }

    fn deliver_to_service(&mut self, dgram: Datagram) {
        let key = dgram.dst;
        // A server fault black-holes the datagram at the box: the packet
        // crossed the network (latency was paid) but nothing answers.
        if self.faults.server_down(key.0, key.1, self.now) {
            self.stats.faulted += 1;
            self.obs.fault_blackholes += 1;
            return;
        }
        let Some(svc) = self.services.get(&key) else {
            self.stats.unreachable += 1;
            return;
        };
        self.stats.delivered += 1;
        let reply = svc.handle(&dgram.payload, dgram.src, self.now);
        let proc = svc.processing_us();
        if let Some(payload) = reply {
            let seq = self.next_seq();
            self.stats.sent += 1;
            // Loss/jitter draws are pure functions of `seq`, so looking the
            // hop up first (for the link key) cannot perturb them.
            let Some((a, b, lat)) = self.hop(dgram.dst.0, dgram.src.0, seq) else {
                return;
            };
            if self.lost(seq) {
                self.stats.dropped += 1;
                self.obs.hop_dropped(a, b, false);
                return;
            }
            if self.fault_lost(seq, dgram.dst.0, dgram.src.0) {
                self.stats.dropped += 1;
                self.obs.hop_dropped(a, b, true);
                return;
            }
            self.obs.hop_delivered(a, b, lat);
            let at = self.now.plus_us(proc + lat);
            self.schedule(
                at,
                Event::Deliver(Datagram {
                    src: dgram.dst,
                    dst: dgram.src,
                    payload,
                }),
            );
        }
    }

    /// Synchronous request/response with retries.
    ///
    /// Each attempt waits `timeout_us`; after `attempts` failures the call
    /// returns [`NetError::Timeout`]. On success, virtual time has advanced
    /// by the full round trip (plus any failed attempts' timeouts).
    pub fn request(
        &mut self,
        src_ip: Ipv4Addr,
        dst: (Ipv4Addr, u16),
        payload: &[u8],
        timeout_us: u64,
        attempts: u32,
    ) -> Result<Vec<u8>, NetError> {
        if self.topo.asn_of(src_ip).is_none() {
            return Err(NetError::NoRoute);
        }
        let t0 = self.now;
        for attempt in 0..attempts.max(1) {
            // Fault-window occupancy: was the destination inside an active
            // server-fault window when this attempt was issued?
            let faulted_at_send =
                !self.faults.is_empty() && self.faults.server_down(dst.0, dst.1, self.now);
            // Fresh ephemeral port per attempt so a late reply to an earlier
            // attempt is not mistaken for this one.
            let port = 49152 + ((self.seq.wrapping_add(u64::from(attempt))) % 16384) as u16;
            let me = (src_ip, port);
            self.send(Datagram {
                src: me,
                dst,
                payload: payload.to_vec(),
            });
            let deadline = self.now.plus_us(timeout_us);
            if let Some(reply) = self.run_until(deadline, me) {
                self.obs
                    .request_us
                    .record(self.now.as_micros() - t0.as_micros());
                return Ok(reply);
            }
            if faulted_at_send {
                self.obs.fault_occupied_us += timeout_us;
            }
        }
        Err(NetError::Timeout)
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
        let start = self.now;
        Lane {
            net: self,
            stream: self.seed.child("lane").child_fmt(key),
            start,
            now: start,
            seq: 0,
            stats: NetStats::default(),
            obs: NetObs::default(),
        }
    }

    /// Merge a finished lane's transport counters into the global ones.
    pub fn absorb_lane_stats(&mut self, stats: NetStats) {
        self.stats.merge(stats);
    }

    /// Merge a finished lane's observability aggregates into the global
    /// ones.
    pub fn absorb_lane_obs(&mut self, obs: &NetObs) {
        self.obs.merge(obs);
    }

    /// Advance the global clock to `t` (no-op if `t` is in the past),
    /// delivering any still-queued datagrams due by then. Used by the sweep
    /// engine to account the wall-clock of a set of concurrent lanes back
    /// into the serial timeline.
    pub fn advance_to_time(&mut self, t: SimTime) {
        if t <= self.now {
            return;
        }
        // Nobody is watching: every due event is delivered to its service
        // (or dropped as unreachable) and time lands exactly on `t`.
        let _ = self.run_until(t, (Ipv4Addr::UNSPECIFIED, 0));
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
    ) -> Result<Vec<u8>, NetError> {
        Network::request(self, src_ip, dst, payload, timeout_us, attempts)
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
/// and the start instant — never on other lanes or scheduling order.
/// Unlike the serial engine, a reply that would land after the attempt
/// deadline is simply a timeout (there is no cross-request event queue for
/// it to linger in).
pub struct Lane<'a> {
    net: &'a Network,
    stream: SeedTree,
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

    /// Observability aggregates accumulated on this lane.
    pub fn obs(&self) -> &NetObs {
        &self.obs
    }

    /// Drain this lane's observability aggregates (merge them into a
    /// per-worker total, and/or back into the network with
    /// [`Network::absorb_lane_obs`]).
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

    /// Deterministic Bernoulli draw for this lane's packet `seq` against
    /// probability `p`.
    fn bernoulli(&self, label: &str, seq: u64, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        let h = self.stream.child(label).child_idx(seq).seed();
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        u < p
    }

    /// Whether packet `seq` on the path `a`→`b` is eaten by an active link
    /// fault's extra-loss process (the uniform loss process is a separate
    /// [`bernoulli`](Lane::bernoulli) draw, so drops can be attributed to
    /// their cause).
    fn fault_lost(&self, seq: u64, a: Ipv4Addr, b: Ipv4Addr, at: SimTime) -> bool {
        if self.net.faults.is_empty() {
            return false;
        }
        let base = self.stream.child("linkfault").child_idx(seq);
        self.net.faults.active_link_faults(a, b, at).any(|(i, f)| {
            if f.extra_loss <= 0.0 {
                return false;
            }
            let h = base.child_idx(i as u64).seed();
            let u = (h >> 11) as f64 / (1u64 << 53) as f64;
            u < f.extra_loss
        })
    }

    /// One-way hop for this lane's packet `seq`: the AS pair it crosses and
    /// its latency, `None` if either side is unrouted.
    fn hop(&self, from: Ipv4Addr, to: Ipv4Addr, seq: u64) -> Option<(Asn, Asn, u64)> {
        let a = self.net.topo.asn_of(from)?;
        let b = self.net.topo.asn_of(to)?;
        let packet_id = self.stream.child("pkt").child_idx(seq).seed();
        let degraded = self.net.faults.extra_latency_us(from, to, self.now);
        let lat =
            self.net.topo.latency_us(a, b) + self.net.topo.jitter_us(a, b, packet_id) + degraded;
        Some((a, b, lat))
    }

    /// One request attempt against `dst`. On success advances the lane
    /// clock to the reply's arrival and returns the payload; on failure
    /// leaves the clock untouched (the caller burns the attempt timeout).
    fn attempt_once(
        &mut self,
        src_ip: Ipv4Addr,
        dst: (Ipv4Addr, u16),
        payload: &[u8],
        deadline: SimTime,
    ) -> Option<Vec<u8>> {
        self.seq += 1;
        let out_seq = self.seq;
        self.stats.sent += 1;
        let src = (src_ip, 49152 + (out_seq % 16384) as u16);
        // Unrouted destination: nothing is scheduled; the attempt waits out
        // its timeout, as in the serial engine.
        let (a, b, lat) = self.hop(src_ip, dst.0, out_seq)?;
        if self.bernoulli("loss", out_seq, self.net.loss_rate) {
            self.stats.dropped += 1;
            self.obs.hop_dropped(a, b, false);
            return None;
        }
        if self.fault_lost(out_seq, src_ip, dst.0, self.now) {
            self.stats.dropped += 1;
            self.obs.hop_dropped(a, b, true);
            return None;
        }
        self.obs.hop_delivered(a, b, lat);
        let at = self.now.plus_us(lat);
        if at > deadline {
            return None;
        }
        // Arrival at the box: faults first, then the service.
        if self.net.faults.server_down(dst.0, dst.1, at) {
            self.stats.faulted += 1;
            self.obs.fault_blackholes += 1;
            return None;
        }
        let Some(svc) = self.net.services.get(&dst) else {
            self.stats.unreachable += 1;
            return None;
        };
        let reply = svc.handle(payload, src, at);
        let proc = svc.processing_us();
        self.stats.delivered += 1;
        // Silent server: wait out the timeout.
        let reply = reply?;
        // The reply datagram pays its own loss draw and latency. Draws are
        // pure functions of the sequence number, so looking the hop up
        // first (for the link key) cannot perturb them.
        self.seq += 1;
        let back_seq = self.seq;
        self.stats.sent += 1;
        let (ra, rb, back_lat) = self.hop(dst.0, src_ip, back_seq)?;
        if self.bernoulli("loss", back_seq, self.net.loss_rate) {
            self.stats.dropped += 1;
            self.obs.hop_dropped(ra, rb, false);
            return None;
        }
        if self.fault_lost(back_seq, dst.0, src_ip, at) {
            self.stats.dropped += 1;
            self.obs.hop_dropped(ra, rb, true);
            return None;
        }
        self.obs.hop_delivered(ra, rb, back_lat);
        let back_at = at.plus_us(proc + back_lat);
        if back_at > deadline {
            // Too late: counts as this attempt's timeout.
            return None;
        }
        self.now = back_at;
        self.stats.delivered += 1;
        Some(reply)
    }
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
    ) -> Result<Vec<u8>, NetError> {
        if self.net.topo.asn_of(src_ip).is_none() {
            return Err(NetError::NoRoute);
        }
        let t0 = self.now;
        for _attempt in 0..attempts.max(1) {
            let deadline = self.now.plus_us(timeout_us);
            // Fault-window occupancy: was the destination inside an active
            // server-fault window when this attempt was issued?
            let faulted_at_send =
                !self.net.faults.is_empty() && self.net.faults.server_down(dst.0, dst.1, self.now);
            if let Some(reply) = self.attempt_once(src_ip, dst, payload, deadline) {
                self.obs
                    .request_us
                    .record(self.now.as_micros() - t0.as_micros());
                return Ok(reply);
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
        fn handle(&self, payload: &[u8], _src: (Ipv4Addr, u16), _now: SimTime) -> Option<Vec<u8>> {
            let mut v = payload.to_vec();
            v.reverse();
            Some(v)
        }
    }

    struct Silent;
    impl Service for Silent {
        fn handle(&self, _p: &[u8], _s: (Ipv4Addr, u16), _n: SimTime) -> Option<Vec<u8>> {
            None
        }
    }

    /// Counts the requests it sees and answers with the running count.
    #[derive(Default)]
    struct Counter(Arc<AtomicU64>);
    impl Service for Counter {
        fn handle(&self, _p: &[u8], _s: (Ipv4Addr, u16), _n: SimTime) -> Option<Vec<u8>> {
            let n = self.0.fetch_add(1, Ordering::SeqCst) + 1;
            Some(n.to_be_bytes().to_vec())
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
        let reply = net
            .request(CLIENT, (SERVER, 53), b"abc", 5_000_000, 1)
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
            .request(CLIENT, (SERVER, 53), b"x", 1_000_000, 2)
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
            .request(CLIENT, (SERVER, 53), b"x", 1_000_000, 1)
            .unwrap_err();
        assert_eq!(err, NetError::Timeout);
        assert_eq!(net.stats().delivered, 1);
    }

    #[test]
    fn no_route_source() {
        let mut net = network();
        net.bind(SERVER, 53, Box::new(Echo));
        let err = net
            .request(Ipv4Addr::new(203, 0, 113, 1), (SERVER, 53), b"x", 1_000, 1)
            .unwrap_err();
        assert_eq!(err, NetError::NoRoute);
    }

    #[test]
    fn unbind_makes_unreachable() {
        let mut net = network();
        net.bind(SERVER, 53, Box::new(Echo));
        assert!(net.is_bound(SERVER, 53));
        assert!(net
            .request(CLIENT, (SERVER, 53), b"x", 1_000_000, 1)
            .is_ok());
        assert!(net.unbind(SERVER, 53));
        assert!(!net.unbind(SERVER, 53));
        assert!(net
            .request(CLIENT, (SERVER, 53), b"x", 1_000_000, 1)
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
                if net.request(CLIENT, (SERVER, 53), b"q", 200_000, 3).is_ok() {
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
        for expect in 1..=3u64 {
            let r = net
                .request(CLIENT, (SERVER, 80), b"", 1_000_000, 1)
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
                        let reply = lane.request(CLIENT, (SERVER, 80), b"", 1_000_000, 1);
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
        assert!(net.request(CLIENT, (SERVER, 53), b"a", 500_000, 1).is_ok());
        // Burn time into the window via timeouts, observing the outage.
        let mut failures = 0;
        while net.now().as_micros() < 11_000_000 {
            if net
                .request(CLIENT, (SERVER, 53), b"b", 1_000_000, 1)
                .is_err()
            {
                failures += 1;
            }
        }
        assert!(failures > 5, "outage produced only {failures} timeouts");
        assert!(net.stats().faulted > 0);
        // After the window: healthy again, no rebind needed.
        assert!(net.request(CLIENT, (SERVER, 53), b"c", 500_000, 2).is_ok());
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
                outcomes.push(net.request(CLIENT, (SERVER, 53), b"q", 500_000, 1).is_ok());
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
                if net.request(CLIENT, (SERVER, 53), b"q", 400_000, 1).is_ok() {
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
    fn uniform_loss_plan_matches_loss_rate_semantics() {
        use crate::fault::FaultPlan;
        // The legacy knob and the trivial plan are the same model: uniform
        // independent loss on every datagram. Streams differ (different seed
        // children) but behaviour must be statistically indistinguishable.
        let run = |knob: f64, plan: f64| {
            let mut net = network();
            net.loss_rate = knob;
            net.set_fault_plan(FaultPlan::uniform_loss(plan));
            net.bind(SERVER, 53, Box::new(Echo));
            let mut ok = 0u64;
            for _ in 0..300 {
                if net.request(CLIENT, (SERVER, 53), b"q", 200_000, 3).is_ok() {
                    ok += 1;
                }
            }
            (ok, net.stats().dropped)
        };
        let (ok_knob, dropped_knob) = run(0.3, 0.0);
        let (ok_plan, dropped_plan) = run(0.0, 0.3);
        assert!(dropped_knob > 0 && dropped_plan > 0);
        let diff = ok_knob.abs_diff(ok_plan);
        assert!(
            diff < 30,
            "knob {ok_knob} vs plan {ok_plan} diverge too far"
        );
    }
}
