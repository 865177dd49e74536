//! Authoritative DNS service and iterative resolution over the simulated
//! network.
//!
//! * [`ZoneSet`] — a collection of zones served by one operator, with
//!   deepest-origin matching (a hosting provider serves many customer
//!   zones from the same addresses).
//! * [`AuthServer`] — a [`ruwhere_netsim::Service`] that answers DNS
//!   queries from a shared, mutable [`ZoneSet`], encoding each reply
//!   straight from the records the zones hold; its [`ServerBehavior`]
//!   models provider disengagement (answer normally, answer `REFUSED`, or
//!   go silent) — the three ways the 2022 exits manifested to scanners.
//! * [`IterativeResolver`] — referral-chasing resolution from the root,
//!   with glue use, out-of-bailiwick NS resolution, CNAME chasing and
//!   loop/budget protection. This is the measurement client used by the
//!   OpenINTEL-style sweep. It is hardened against misbehaving servers:
//!   per-server health (smoothed RTT + exponential-backoff penalty box),
//!   a per-resolution retry budget, and cause-specific failures
//!   ([`resolver::ResolveError`]) with cumulative counters
//!   ([`ResolverStats`]) for the measurement layer. A primed resolver
//!   [freezes](IterativeResolver::freeze) into a shared [`PrimedBase`]
//!   that per-worker [overlays](IterativeResolver::overlay) read through.
//!   [`IterativeResolver::resolve_into`] hands an answer's records to a
//!   sink as [`AnswerRecord`]s, read in place from the reply, for answers
//!   only the caller reads (the sweep's per-domain queries).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod resolver;
pub mod server;

pub use resolver::{
    AnswerRecord, IterativeResolver, NoDependencyCache, NsDependencyCache, PrimedBase, Resolution,
    ResolveError, ResolverObs, ResolverStats, RootHint, TraceEvent,
};
pub use server::{AuthServer, ServerBehavior, SharedZoneSet, ZoneSet};
