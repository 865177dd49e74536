//! Scheduled fault injection: outages, flapping servers, degraded links.
//!
//! The paper's central natural experiment — the 2021-03-22 `.ru` TLD server
//! outage behind Figure 1's dip (footnote 8) — is a *scheduled infrastructure
//! fault*, not uniform background packet loss. This module models such
//! faults as first-class simulation objects: a [`FaultPlan`] holds a set of
//! fault declarations, each active during a window of virtual time, and the
//! [`Network`](crate::Network) consults the plan on every datagram.
//!
//! Three fault shapes cover the paper's scenarios:
//!
//! * [`ServerFault`] with [`ServerFaultMode::Outage`] — a black-holed box:
//!   every datagram addressed to it during the window is silently eaten
//!   (clients observe timeouts, exactly like the real outage).
//! * [`ServerFault`] with [`ServerFaultMode::Flapping`] — the box
//!   alternates between dead and alive phases of a fixed period, the
//!   pathology that motivates resolver-side penalty boxes.
//! * [`LinkFault`] — a degraded path: traffic to or from a prefix suffers
//!   elevated loss and extra one-way latency while the window is open.
//!
//! All stochastic draws (link-fault loss) are pure functions of the network
//! seed, the packet sequence number and the fault index, so a run with a
//! fault plan is exactly as reproducible as one without. Uniform background
//! loss on every datagram is not a fault: it is the one uniform-loss model,
//! `Network::loss_rate`.

use crate::ip::Ipv4Net;
use crate::sim::SimTime;
use std::net::Ipv4Addr;

/// A half-open window of virtual time `[start, end)`; `end = None` means the
/// fault never clears on its own (the world layer expires it explicitly).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultWindow {
    /// First instant at which the fault is active.
    pub start: SimTime,
    /// First instant at which the fault is no longer active, if bounded.
    pub end: Option<SimTime>,
}

impl FaultWindow {
    /// Window covering `[start, end)`.
    pub const fn between(start: SimTime, end: SimTime) -> Self {
        FaultWindow {
            start,
            end: Some(end),
        }
    }

    /// Open-ended window starting at `start`.
    pub const fn from(start: SimTime) -> Self {
        FaultWindow { start, end: None }
    }

    /// Window covering all of virtual time.
    pub const fn always() -> Self {
        FaultWindow {
            start: SimTime::ZERO,
            end: None,
        }
    }

    /// Whether `t` falls inside the window.
    pub fn contains(&self, t: SimTime) -> bool {
        t >= self.start && self.end.is_none_or(|e| t < e)
    }

    /// Whether the window is entirely in the past at `t`.
    pub fn expired_by(&self, t: SimTime) -> bool {
        self.end.is_some_and(|e| e <= t)
    }
}

/// How a faulted server misbehaves at the transport layer.
///
/// Both modes are *silent* from the client's perspective — inbound datagrams
/// are eaten, producing timeouts. Protocol-visible misbehaviour (SERVFAIL,
/// truncation, lame delegation) lives in the application layer
/// (`ruwhere-authdns`), where the server still answers but answers badly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerFaultMode {
    /// Hard outage: unreachable for the whole window.
    Outage,
    /// Deterministic flapping: alternating dead/alive phases of
    /// `period_us` each, starting dead at the window start.
    Flapping {
        /// Length of each dead and each alive phase, in microseconds.
        period_us: u64,
    },
}

/// A per-server fault: datagrams addressed to `addr` (and `port`, if set)
/// are black-holed while the fault is active.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerFault {
    /// The faulted server's address.
    pub addr: Ipv4Addr,
    /// Restrict to one port; `None` faults the whole host.
    pub port: Option<u16>,
    /// Outage or flapping.
    pub mode: ServerFaultMode,
    /// When the fault is in force.
    pub window: FaultWindow,
}

impl ServerFault {
    /// Whether a datagram to `(addr, port)` arriving at `t` is black-holed.
    fn swallows(&self, addr: Ipv4Addr, port: u16, t: SimTime) -> bool {
        if addr != self.addr || self.port.is_some_and(|p| p != port) || !self.window.contains(t) {
            return false;
        }
        match self.mode {
            ServerFaultMode::Outage => true,
            ServerFaultMode::Flapping { period_us } => {
                let period = period_us.max(1);
                // Phase 0 (dead) first, so the fault bites at onset.
                (t.as_micros().saturating_sub(self.window.start.as_micros()) / period)
                    .is_multiple_of(2)
            }
        }
    }
}

/// A degraded link: extra loss probability and extra one-way latency for any
/// datagram whose source or destination falls inside `prefix`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFault {
    /// Affected address range.
    pub prefix: Ipv4Net,
    /// Additional independent loss probability in `[0, 1]`, applied on top
    /// of the network's baseline loss process.
    pub extra_loss: f64,
    /// Additional one-way latency in microseconds.
    pub extra_latency_us: u64,
    /// When the degradation is in force.
    pub window: FaultWindow,
}

impl LinkFault {
    fn applies(&self, a: Ipv4Addr, b: Ipv4Addr, t: SimTime) -> bool {
        self.window.contains(t) && (self.prefix.contains(a) || self.prefix.contains(b))
    }
}

/// A schedule of faults consulted by the [`Network`](crate::Network) on
/// every datagram. Empty by default; faults are installed by tests and by
/// the world layer when a timeline `InfrastructureFault` event fires.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    servers: Vec<ServerFault>,
    links: Vec<LinkFault>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Whether the plan has no faults at all (fast path for the hot loop).
    pub fn is_empty(&self) -> bool {
        self.servers.is_empty() && self.links.is_empty()
    }

    /// Install a server fault.
    pub fn add_server_fault(&mut self, fault: ServerFault) {
        self.servers.push(fault);
    }

    /// Install a link fault.
    pub fn add_link_fault(&mut self, fault: LinkFault) {
        self.links.push(fault);
    }

    /// Remove every server fault targeting exactly `(addr, port)`,
    /// regardless of mode or window. The world layer uses this to lift an
    /// outage at day rollover — virtual time may not have reached the
    /// window end if nothing was measured meanwhile.
    pub fn remove_server_faults(&mut self, addr: Ipv4Addr, port: Option<u16>) {
        self.servers.retain(|f| f.addr != addr || f.port != port);
    }

    /// Installed server faults, in insertion order.
    pub fn server_faults(&self) -> &[ServerFault] {
        &self.servers
    }

    /// Installed link faults, in insertion order.
    pub fn link_faults(&self) -> &[LinkFault] {
        &self.links
    }

    /// Whether a datagram to `(addr, port)` arriving at `t` is black-holed
    /// by some active server fault.
    pub fn server_down(&self, addr: Ipv4Addr, port: u16, t: SimTime) -> bool {
        self.servers.iter().any(|f| f.swallows(addr, port, t))
    }

    /// Active link faults touching a datagram between `a` and `b` at `t`,
    /// with their plan-wide indices (the index keys the loss draw so each
    /// fault has an independent deterministic loss stream).
    pub fn active_link_faults(
        &self,
        a: Ipv4Addr,
        b: Ipv4Addr,
        t: SimTime,
    ) -> impl Iterator<Item = (usize, &LinkFault)> {
        self.links
            .iter()
            .enumerate()
            .filter(move |(_, f)| f.applies(a, b, t))
    }

    /// Total extra one-way latency for a datagram between `a` and `b` at `t`.
    pub fn extra_latency_us(&self, a: Ipv4Addr, b: Ipv4Addr, t: SimTime) -> u64 {
        self.active_link_faults(a, b, t)
            .map(|(_, f)| f.extra_latency_us)
            .sum()
    }

    /// Drop every fault whose window has fully elapsed by `t`. The world
    /// layer calls this at day rollover, because virtual time only advances
    /// while measurements run — an expired fault must not linger just
    /// because nobody sent a packet after its window closed.
    pub fn clear_expired(&mut self, t: SimTime) {
        self.servers.retain(|f| !f.window.expired_by(t));
        self.links.retain(|f| !f.window.expired_by(t));
    }

    /// Remove all faults.
    pub fn clear(&mut self) {
        self.servers.clear();
        self.links.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const S: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 53);

    #[test]
    fn window_semantics() {
        let w = FaultWindow::between(SimTime(100), SimTime(200));
        assert!(!w.contains(SimTime(99)));
        assert!(w.contains(SimTime(100)));
        assert!(w.contains(SimTime(199)));
        assert!(!w.contains(SimTime(200)));
        assert!(!w.expired_by(SimTime(199)));
        assert!(w.expired_by(SimTime(200)));
        let open = FaultWindow::from(SimTime(50));
        assert!(open.contains(SimTime(1_000_000_000)));
        assert!(!open.expired_by(SimTime(u64::MAX)));
    }

    #[test]
    fn outage_respects_port_filter() {
        let mut plan = FaultPlan::new();
        plan.add_server_fault(ServerFault {
            addr: S,
            port: Some(53),
            mode: ServerFaultMode::Outage,
            window: FaultWindow::always(),
        });
        assert!(plan.server_down(S, 53, SimTime(5)));
        assert!(!plan.server_down(S, 80, SimTime(5)));
        assert!(!plan.server_down(Ipv4Addr::new(192, 0, 2, 54), 53, SimTime(5)));
    }

    #[test]
    fn flapping_alternates_phases() {
        let f = ServerFault {
            addr: S,
            port: None,
            mode: ServerFaultMode::Flapping { period_us: 100 },
            window: FaultWindow::from(SimTime(1_000)),
        };
        // Dead first phase, alive second, dead third…
        assert!(f.swallows(S, 53, SimTime(1_000)));
        assert!(f.swallows(S, 53, SimTime(1_099)));
        assert!(!f.swallows(S, 53, SimTime(1_100)));
        assert!(!f.swallows(S, 53, SimTime(1_199)));
        assert!(f.swallows(S, 53, SimTime(1_200)));
        // Outside the window: healthy.
        assert!(!f.swallows(S, 53, SimTime(999)));
    }

    #[test]
    fn link_fault_matches_either_endpoint() {
        let f = LinkFault {
            prefix: "192.0.2.0/24".parse().unwrap(),
            extra_loss: 0.5,
            extra_latency_us: 7_000,
            window: FaultWindow::always(),
        };
        let outside = Ipv4Addr::new(10, 0, 0, 1);
        assert!(f.applies(S, outside, SimTime(0)));
        assert!(f.applies(outside, S, SimTime(0)));
        assert!(!f.applies(outside, outside, SimTime(0)));
    }

    #[test]
    fn clear_expired_retains_live_faults() {
        let mut plan = FaultPlan::new();
        plan.add_server_fault(ServerFault {
            addr: S,
            port: None,
            mode: ServerFaultMode::Outage,
            window: FaultWindow::between(SimTime(0), SimTime(100)),
        });
        plan.add_server_fault(ServerFault {
            addr: S,
            port: None,
            mode: ServerFaultMode::Outage,
            window: FaultWindow::from(SimTime(0)),
        });
        plan.add_link_fault(LinkFault {
            prefix: "0.0.0.0/0".parse().unwrap(),
            extra_loss: 0.1,
            extra_latency_us: 0,
            window: FaultWindow::between(SimTime(0), SimTime(50)),
        });
        plan.clear_expired(SimTime(100));
        assert_eq!(plan.server_faults().len(), 1);
        assert!(plan.link_faults().is_empty());
        plan.clear();
        assert!(plan.is_empty());
    }
}
