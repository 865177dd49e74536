//! Equivalence oracle for [`Network::request`].
//!
//! `Serial` below is the event-queue engine `Network::request` used to
//! run on: every datagram is scheduled into a binary heap and delivered in
//! time order, and a request drives the queue until its reply reaches the
//! client's ephemeral port or the attempt deadline passes. It is built
//! only on the crate's public API. With every timeout above the longest
//! possible round trip no datagram outlives its attempt, and then the two
//! engines must agree exactly: same reply bytes or error, same clock and
//! same counters after every request. Services stamp the source port and
//! arrival instant into their replies, so the ephemeral port and the
//! arrival time are compared too.

use proptest::prelude::*;
use ruwhere_netsim::{
    AsInfo, FaultPlan, FaultWindow, Ipv4Net, LinkFault, NetError, NetStats, Network, ServerFault,
    ServerFaultMode, Service, SimTime, Topology,
};
use ruwhere_types::{Asn, Country, SeedTree};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering};

struct Datagram {
    src: (Ipv4Addr, u16),
    dst: (Ipv4Addr, u16),
    payload: Vec<u8>,
}

/// The serial event-queue engine, minus observability.
struct Serial {
    topo: Topology,
    seed: SeedTree,
    services: HashMap<(Ipv4Addr, u16), Box<dyn Service>>,
    queue: BinaryHeap<Reverse<(SimTime, u64)>>,
    pending: HashMap<u64, Datagram>,
    now: SimTime,
    seq: u64,
    loss_rate: f64,
    faults: FaultPlan,
    stats: NetStats,
}

fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

impl Serial {
    fn new(topo: Topology, seed: SeedTree) -> Self {
        Serial {
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
        }
    }

    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    fn lost(&self, seq: u64) -> bool {
        self.loss_rate > 0.0 && unit(self.seed.child("loss").child_idx(seq).seed()) < self.loss_rate
    }

    fn fault_lost(&self, seq: u64, a: Ipv4Addr, b: Ipv4Addr) -> bool {
        let base = self.seed.child("linkfault").child_idx(seq);
        self.faults
            .active_link_faults(a, b, self.now)
            .any(|(i, f)| {
                f.extra_loss > 0.0 && unit(base.child_idx(i as u64).seed()) < f.extra_loss
            })
    }

    fn hop(&self, from: Ipv4Addr, to: Ipv4Addr, packet_id: u64) -> Option<u64> {
        let a = self.topo.asn_of(from)?;
        let b = self.topo.asn_of(to)?;
        let degraded = self.faults.extra_latency_us(from, to, self.now);
        Some(self.topo.latency_us(a, b) + self.topo.jitter_us(a, b, packet_id) + degraded)
    }

    fn schedule(&mut self, at: SimTime, dgram: Datagram) {
        let id = self.next_seq();
        self.pending.insert(id, dgram);
        self.queue.push(Reverse((at, id)));
    }

    /// Put `dgram` on the wire at `self.now + extra_us` (plus its hop).
    fn send(&mut self, dgram: Datagram, extra_us: u64) {
        let seq = self.next_seq();
        self.stats.sent += 1;
        let Some(lat) = self.hop(dgram.src.0, dgram.dst.0, seq) else {
            return;
        };
        if self.lost(seq) || self.fault_lost(seq, dgram.src.0, dgram.dst.0) {
            self.stats.dropped += 1;
            return;
        }
        let at = self.now.plus_us(extra_us + lat);
        self.schedule(at, dgram);
    }

    fn run_until(&mut self, deadline: SimTime, watch: (Ipv4Addr, u16)) -> Option<Vec<u8>> {
        while let Some(&Reverse((at, id))) = self.queue.peek() {
            if at > deadline {
                break;
            }
            self.queue.pop();
            let dgram = self.pending.remove(&id).unwrap();
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
        if self.faults.server_down(key.0, key.1, self.now) {
            self.stats.faulted += 1;
            return;
        }
        let Some(svc) = self.services.get(&key) else {
            self.stats.unreachable += 1;
            return;
        };
        self.stats.delivered += 1;
        let mut payload = Vec::new();
        let answered = svc.handle(&dgram.payload, dgram.src, self.now, &mut payload);
        let proc = svc.processing_us();
        if answered {
            let back = Datagram {
                src: dgram.dst,
                dst: dgram.src,
                payload,
            };
            self.send(back, proc);
        }
    }

    fn request(
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
        for attempt in 0..attempts.max(1) {
            let port = 49152 + ((self.seq.wrapping_add(u64::from(attempt))) % 16384) as u16;
            let me = (src_ip, port);
            let dgram = Datagram {
                src: me,
                dst,
                payload: payload.to_vec(),
            };
            self.send(dgram, 0);
            let deadline = self.now.plus_us(timeout_us);
            if let Some(reply) = self.run_until(deadline, me) {
                return Ok(reply);
            }
        }
        Err(NetError::Timeout)
    }

    fn advance_to_time(&mut self, t: SimTime) {
        if t > self.now {
            let _ = self.run_until(t, (Ipv4Addr::UNSPECIFIED, 0));
        }
    }
}

/// Replies with the source port, the arrival instant and the payload.
struct Stamp;
impl Service for Stamp {
    fn handle(&self, payload: &[u8], src: (Ipv4Addr, u16), now: SimTime, v: &mut Vec<u8>) -> bool {
        v.extend_from_slice(&src.1.to_be_bytes());
        v.extend_from_slice(&now.as_micros().to_be_bytes());
        v.extend_from_slice(payload);
        true
    }
}

struct Silent;
impl Service for Silent {
    fn handle(&self, _p: &[u8], _s: (Ipv4Addr, u16), _n: SimTime, _v: &mut Vec<u8>) -> bool {
        false
    }
}

/// Answers with the running count of requests it has seen, slowly.
#[derive(Default)]
struct Counter(AtomicU64);
impl Service for Counter {
    fn handle(&self, _p: &[u8], _s: (Ipv4Addr, u16), _n: SimTime, v: &mut Vec<u8>) -> bool {
        v.extend_from_slice(&(self.0.fetch_add(1, Ordering::SeqCst) + 1).to_be_bytes());
        true
    }
    fn processing_us(&self) -> u64 {
        5_000
    }
}

const CLIENT: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const UNROUTED_CLIENT: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 9);

/// Request targets: bound, silent, stateful, another AS, a routed
/// address with nothing bound, an unbound port on a bound host, and an
/// unrouted address.
const TARGETS: [(Ipv4Addr, u16); 7] = [
    (Ipv4Addr::new(192, 0, 2, 1), 53),
    (Ipv4Addr::new(192, 0, 2, 2), 53),
    (Ipv4Addr::new(192, 0, 2, 3), 53),
    (Ipv4Addr::new(198, 51, 100, 1), 43),
    (Ipv4Addr::new(198, 51, 100, 2), 43),
    (Ipv4Addr::new(192, 0, 2, 1), 80),
    (Ipv4Addr::new(203, 0, 113, 1), 53),
];

const FAULT_PREFIXES: [&str; 4] = ["192.0.2.0/24", "198.51.100.0/24", "10.0.0.0/8", "0.0.0.0/0"];

fn services() -> Vec<((Ipv4Addr, u16), Box<dyn Service>)> {
    vec![
        (TARGETS[0], Box::new(Stamp)),
        (TARGETS[1], Box::new(Silent)),
        (TARGETS[2], Box::new(Counter::default())),
        (TARGETS[3], Box::new(Stamp)),
    ]
}

fn topology() -> Topology {
    let mut topo = Topology::new(SeedTree::new(11).child("topo"));
    for (asn, country, prefix) in [
        (100, Country::NL, "10.0.0.0/8"),
        (200, Country::RU, "192.0.2.0/24"),
        (300, Country::RU, "198.51.100.0/24"),
    ] {
        topo.add_as(AsInfo {
            asn: Asn(asn),
            org: format!("AS{asn}"),
            country,
        });
        topo.announce(prefix.parse().unwrap(), Asn(asn));
    }
    topo
}

/// A window over the first minute of virtual time: always, open-ended
/// or bounded.
fn window((kind, start_ms, len_ms): (u8, u64, u64)) -> FaultWindow {
    let start = SimTime::from_millis(start_ms);
    match kind {
        0 => FaultWindow::always(),
        1 => FaultWindow::from(start),
        _ => FaultWindow::between(start, start.plus_us(len_ms * 1_000)),
    }
}

fn window_strategy() -> impl Strategy<Value = (u8, u64, u64)> {
    (0u8..3, 0u64..60_000, 0u64..20_000)
}

fn link_fault_strategy() -> impl Strategy<Value = LinkFault> {
    (0usize..4, 0u32..=30, 0u64..=50_000, window_strategy()).prop_map(
        |(prefix, loss_pct, latency_us, w)| LinkFault {
            prefix: FAULT_PREFIXES[prefix].parse::<Ipv4Net>().unwrap(),
            extra_loss: f64::from(loss_pct) / 100.0,
            extra_latency_us: latency_us,
            window: window(w),
        },
    )
}

fn server_fault_strategy() -> impl Strategy<Value = ServerFault> {
    (0usize..4, any::<bool>(), 0u64..3_000_000, window_strategy()).prop_map(
        |(target, whole_host, period_us, w)| ServerFault {
            addr: TARGETS[target].0,
            port: (!whole_host).then_some(TARGETS[target].1),
            // Short draws make an outage, longer ones a flapping box.
            mode: if period_us < 300_000 {
                ServerFaultMode::Outage
            } else {
                ServerFaultMode::Flapping { period_us }
            },
            window: window(w),
        },
    )
}

/// One client call: target, attempts, timeout, idle time before it, and
/// whether it is sourced from an unrouted address.
type Call = (usize, u32, u64, u64, u8);

fn call_strategy() -> impl Strategy<Value = Call> {
    (
        0usize..TARGETS.len(),
        1u32..=3,
        0u64..1_300_000,
        0u64..3_000_000,
        0u8..20,
    )
}

/// Above the longest round trip: two one-way hops of at most 150 ms base
/// latency, 2 ms jitter and 3 × 50 ms link-fault latency, plus 5 ms of
/// processing.
const MIN_TIMEOUT_US: u64 = 700_000;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn network_request_matches_the_serial_engine(
        loss_pct in 0u32..=30,
        link_faults in prop::collection::vec(link_fault_strategy(), 0..4),
        server_faults in prop::collection::vec(server_fault_strategy(), 0..3),
        calls in prop::collection::vec(call_strategy(), 1..40),
    ) {
        let seed = SeedTree::new(u64::from(loss_pct)).child("net");
        let mut net = Network::new(topology(), seed);
        let mut serial = Serial::new(topology(), seed);
        let mut plan = FaultPlan::new();
        for f in &link_faults {
            plan.add_link_fault(*f);
        }
        for f in &server_faults {
            plan.add_server_fault(*f);
        }
        net.loss_rate = f64::from(loss_pct) / 100.0;
        serial.loss_rate = net.loss_rate;
        net.set_fault_plan(plan.clone());
        serial.faults = plan;
        for (addr, svc) in services() {
            net.bind(addr.0, addr.1, svc);
        }
        for (addr, svc) in services() {
            serial.services.insert(addr, svc);
        }

        for (i, &(target, attempts, timeout, idle_us, unrouted)) in calls.iter().enumerate() {
            let t = net.now().plus_us(idle_us);
            net.advance_to_time(t);
            serial.advance_to_time(t);
            let src = if unrouted == 0 { UNROUTED_CLIENT } else { CLIENT };
            let timeout_us = MIN_TIMEOUT_US + timeout;
            let payload = (i as u32).to_be_bytes();
            let mut reply = Vec::new();
            let got = net
                .request(src, TARGETS[target], &payload, timeout_us, attempts, &mut reply)
                .map(|()| reply);
            let want = serial.request(src, TARGETS[target], &payload, timeout_us, attempts);
            prop_assert_eq!(&got, &want, "call {}: {:?}", i, calls[i]);
            prop_assert_eq!(net.now(), serial.now, "call {}", i);
            prop_assert_eq!(net.stats(), serial.stats, "call {}", i);
        }
        prop_assert!(serial.queue.is_empty(), "a datagram outlived its attempt");
    }
}
