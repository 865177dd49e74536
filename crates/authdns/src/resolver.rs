//! Iterative (referral-chasing) resolution, as a measurement client.
//!
//! Beyond the basic referral walk, the resolver is hardened against the
//! server pathologies the fault-injection layer can produce (outages,
//! flapping boxes, SERVFAIL backends, truncated replies, lame
//! delegations): it keeps per-server health state — a smoothed RTT
//! estimate and an exponential-backoff penalty box, in the style of
//! unbound's infra cache — prefers healthy servers, caps the failures any
//! single resolution may absorb, and reports *why* a name failed through
//! distinct [`ResolveError`] variants so the measurement layer can count
//! failure causes instead of lumping everything into "timeout".

use ruwhere_dns::{
    Message, MessageView, Name, NameSlice, RData, RType, Rcode, Record, RecordView, MAX_NAME_LEN,
};
use ruwhere_netsim::{SimTime, Transport};
use ruwhere_obs::Histogram;
use ruwhere_types::FastMap;
use std::fmt;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// A root name-server hint: where resolution starts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RootHint {
    /// Root server host name (informational).
    pub name: Name,
    /// Root server address.
    pub addr: Ipv4Addr,
}

/// Outcome of a successful resolution exchange.
///
/// Cloning is cheap: a positive answer's records are shared, so the
/// answer cache hands out the same records it keeps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Resolution {
    /// Positive answer: the full answer section (CNAME chain included).
    Records(Arc<[Record]>),
    /// Authoritative denial: the name does not exist.
    NxDomain,
    /// The name exists but has no records of the queried type.
    NoData,
}

impl Resolution {
    /// All IPv4 addresses in the answer.
    pub fn addresses(&self) -> Vec<Ipv4Addr> {
        match self {
            Resolution::Records(recs) => recs
                .iter()
                .filter_map(|r| match &r.data {
                    RData::A(ip) => Some(*ip),
                    _ => None,
                })
                .collect(),
            _ => Vec::new(),
        }
    }

    /// All NS target names in the answer.
    pub fn ns_targets(&self) -> Vec<Name> {
        match self {
            Resolution::Records(recs) => recs
                .iter()
                .filter_map(|r| match &r.data {
                    RData::Ns(n) => Some(n.clone()),
                    _ => None,
                })
                .collect(),
            _ => Vec::new(),
        }
    }

    /// How the walk that produced this resolution ended.
    fn answer(&self) -> Answer {
        match self {
            Resolution::Records(r) => Answer::Records(r.len()),
            Resolution::NxDomain => Answer::NxDomain,
            Resolution::NoData => Answer::NoData,
        }
    }
}

/// One record of an answer that [`IterativeResolver::resolve_into`]
/// hands to its sink: read in place from the reply buffer, or borrowed
/// from the answer cache. Neither is copied.
#[derive(Debug, Clone, Copy)]
pub enum AnswerRecord<'a> {
    /// A record of the reply that answered, valid for the sink call.
    View(RecordView<'a>),
    /// A record of a cached answer.
    Cached(&'a Record),
}

impl AnswerRecord<'_> {
    /// The address of an A record.
    pub fn a(&self) -> Option<Ipv4Addr> {
        match self {
            AnswerRecord::View(r) => r.a(),
            AnswerRecord::Cached(r) => match r.data {
                RData::A(ip) => Some(ip),
                _ => None,
            },
        }
    }

    /// The target of an NS record, lowercased: copied into `buf` from a
    /// reply, borrowed from a cached record.
    pub fn ns_target<'b>(&'b self, buf: &'b mut [u8; MAX_NAME_LEN]) -> Option<&'b NameSlice> {
        match self {
            AnswerRecord::View(r) if r.rtype() == RType::Ns => {
                Some(r.target()?.lowercase_into(buf))
            }
            AnswerRecord::Cached(Record {
                data: RData::Ns(n), ..
            }) => Some(n),
            _ => None,
        }
    }

    /// Copy the record out into an owned [`Record`].
    pub fn to_record(&self) -> Record {
        match self {
            AnswerRecord::View(r) => r.to_record(),
            AnswerRecord::Cached(r) => (*r).clone(),
        }
    }
}

/// One step in a resolution trace (for diagnostics and the
/// `resolver_trace` example).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A query was sent to `server`.
    Query {
        /// Target server address.
        server: Ipv4Addr,
        /// Queried name.
        qname: Name,
        /// Queried type.
        rtype: RType,
    },
    /// A referral moved resolution below `cut`.
    Referral {
        /// The zone cut.
        cut: Name,
        /// Glue addresses accepted (after bailiwick filtering).
        glue: usize,
        /// Glue records discarded by the bailiwick check.
        rejected_glue: usize,
    },
    /// A server timed out.
    Timeout {
        /// The unresponsive server.
        server: Ipv4Addr,
    },
    /// A server answered SERVFAIL.
    ServFail {
        /// The failing server.
        server: Ipv4Addr,
    },
    /// A server gave a lame (non-authoritative, answerless) response.
    Lame {
        /// The lame server.
        server: Ipv4Addr,
    },
    /// A server sent a truncated reply the client could not use.
    Truncated {
        /// The truncating server.
        server: Ipv4Addr,
    },
    /// A CNAME redirected resolution.
    Cname {
        /// The alias target.
        target: Name,
    },
    /// Terminal outcome (answer / nxdomain / nodata / error), rendered.
    Done {
        /// Human-readable outcome.
        outcome: String,
    },
}

/// Resolution failures, by cause. The measurement pipeline keys its
/// per-sweep failure counters off these variants, so Figure-1-style gap
/// analyses can distinguish "the TLD was down" from "a backend broke".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResolveError {
    /// Every candidate server timed out.
    Timeout,
    /// Servers answered but returned SERVFAIL.
    ServFail,
    /// Servers answered but were lame for the zone (non-authoritative,
    /// no answer, no referral).
    Lame,
    /// Servers answered but refused.
    Refused,
    /// Query/retry budget exhausted (flapping servers, lame delegation
    /// loop, or a too-deep dependency chain).
    BudgetExhausted,
    /// A referral pointed at name servers whose addresses could not be
    /// resolved.
    NoNameservers,
    /// A malformed response that could not be decoded.
    BadResponse,
}

impl fmt::Display for ResolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResolveError::Timeout => write!(f, "all name servers timed out"),
            ResolveError::ServFail => write!(f, "all name servers answered SERVFAIL"),
            ResolveError::Lame => write!(f, "all name servers were lame for the zone"),
            ResolveError::Refused => write!(f, "all name servers refused"),
            ResolveError::BudgetExhausted => write!(f, "resolution budget exhausted"),
            ResolveError::NoNameservers => write!(f, "referral with unresolvable name servers"),
            ResolveError::BadResponse => write!(f, "malformed response"),
        }
    }
}

impl std::error::Error for ResolveError {}

/// Cumulative failure-cause counters, for measurement accounting.
///
/// Monotone over the resolver's lifetime; callers diff snapshots to get
/// per-sweep numbers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResolverStats {
    /// Queries that timed out at the transport.
    pub timeouts: u64,
    /// Queries answered with SERVFAIL.
    pub servfails: u64,
    /// Queries answered lamely (non-authoritative, answerless).
    pub lame: u64,
    /// Queries answered with TC=1 (unusable over this transport).
    pub truncated: u64,
    /// Failed queries charged against retry budgets — the resolver-level
    /// cost of server misbehaviour (each one is a wasted exchange).
    pub retries_spent: u64,
}

/// Observability aggregates for one resolver (or one domain's turn on an
/// overlay).
///
/// Like [`ResolverStats`] these are monotone and zeroed by
/// [`reset`](IterativeResolver::reset), so an overlay's aggregates after
/// a reset are exactly one domain's resolution behaviour. All fields merge
/// by addition (histograms bucket-wise), so per-domain instances fold into
/// sweep totals independent of worker count.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResolverObs {
    /// Smoothed-RTT estimate (µs), sampled after every successful
    /// exchange — the resolver's evolving view of server speed.
    pub srtt_us: Histogram,
    /// Servers entering the penalty box (a first failure after a clean
    /// streak; consecutive failures extend the box, they don't re-enter).
    pub penalty_entries: u64,
    /// Penalized servers observed healthy again (a success that cleared a
    /// non-zero failure streak).
    pub penalty_exits: u64,
    /// Resolutions answered from the in-resolver answer cache.
    pub answer_cache_hits: u64,
    /// NS-target lookups served by the shared [`NsDependencyCache`].
    pub deps_cache_hits: u64,
}

impl ResolverObs {
    /// Fold another aggregate in (commutative, associative).
    pub fn merge(&mut self, other: &ResolverObs) {
        self.srtt_us.merge(&other.srtt_us);
        self.penalty_entries += other.penalty_entries;
        self.penalty_exits += other.penalty_exits;
        self.answer_cache_hits += other.answer_cache_hits;
        self.deps_cache_hits += other.deps_cache_hits;
    }
}

/// Per-server health, unbound-infra-cache style: a smoothed RTT estimate
/// and an exponentially growing penalty box for consecutive failures.
#[derive(Debug, Clone, Copy)]
struct ServerHealth {
    /// Smoothed RTT in µs (EWMA, 1/8 gain). Starts at the optimistic
    /// default so unprobed servers sort after known-fast ones.
    srtt_us: u64,
    /// Consecutive failures since the last success.
    fails: u32,
    /// Penalized (deprioritized) until this virtual instant.
    penalized_until: SimTime,
}

/// Initial SRTT for never-probed servers (µs).
const SRTT_DEFAULT_US: u64 = 120_000;
/// First penalty-box duration; doubles per consecutive failure (µs).
const PENALTY_BASE_US: u64 = 2_000_000;
/// Cap on the penalty exponent (base << 5 = 64 s).
const PENALTY_MAX_SHIFT: u32 = 5;

impl Default for ServerHealth {
    fn default() -> Self {
        ServerHealth {
            srtt_us: SRTT_DEFAULT_US,
            fails: 0,
            penalized_until: SimTime::ZERO,
        }
    }
}

/// Hook for centrally shared NS-target address resolution.
///
/// While chasing a referral the resolver must learn the addresses of
/// out-of-bailiwick NS targets (no usable glue). In a sweep those targets
/// — hoster name servers — are shared by thousands of domains, so the
/// parallel engine routes the lookups through a sweep-wide read-through
/// cache: each target resolves exactly once per sweep, on its own
/// deterministic measurement lane, no matter which worker needs it first.
/// This trait is the seam; the resolver stays ignorant of lanes and
/// worker pools.
pub trait NsDependencyCache {
    /// Addresses for NS target `name`, served or computed centrally and
    /// shared, not copied. `None` delegates back to inline resolution.
    fn ns_target_a(&self, name: &NameSlice) -> Option<Arc<[Ipv4Addr]>>;
}

/// The no-op hook: every dependency resolves inline, as a stand-alone
/// resolver would.
pub struct NoDependencyCache;

impl NsDependencyCache for NoDependencyCache {
    fn ns_target_a(&self, _name: &NameSlice) -> Option<Arc<[Ipv4Addr]>> {
        None
    }
}

/// A resolver's learned state: answers, zone cuts and server health.
#[derive(Default)]
struct Caches {
    /// Keyed by [`QuestionKey`] bytes, so a lookup probes with a key built
    /// on the stack. Keys and answers are shared, not copied.
    answers: FastMap<Arc<[u8]>, Result<Resolution, ResolveError>>,
    /// Probed with each borrowed suffix of a name, deepest first.
    cuts: FastMap<Name, Arc<[Ipv4Addr]>>,
    health: FastMap<Ipv4Addr, ServerHealth>,
}

impl Caches {
    fn clear(&mut self) {
        self.answers.clear();
        self.cuts.clear();
        self.health.clear();
    }
}

/// A primed resolver, frozen by [`IterativeResolver::freeze`]: the
/// read-only layer that [overlay](IterativeResolver::overlay) resolvers
/// read through, shared behind an [`Arc`].
///
/// It holds the primed answers and zone cuts, the learned SRTT of every
/// server with all penalty-box state cleared, and the next query id, plus
/// the settings every overlay starts with.
pub struct PrimedBase {
    caches: Caches,
    next_id: u16,
    client_ip: Ipv4Addr,
    roots: Arc<[RootHint]>,
    query_budget: u32,
    retry_budget: u32,
    timeout_us: u64,
    attempts: u32,
    penalty_box_enabled: bool,
}

/// An iterative resolver bound to a client address.
///
/// Caches positive/negative answers and zone-cut server addresses for the
/// lifetime of the cache (a sweep primes a fresh resolver every day, so
/// every day re-observes the infrastructure, like OpenINTEL's daily runs).
/// Server *health* state survives [`clear_cache`](Self::clear_cache):
/// like a real resolver's infra cache, it expires by (virtual) time, not
/// by sweep boundary.
///
/// # Overlays
///
/// A sweep resolves every domain from the same primed state. It primes one
/// resolver, [`freeze`](Self::freeze)s it into a shared [`PrimedBase`],
/// and gives each worker an [`overlay`](Self::overlay) over that base. An
/// overlay reads its own entry first, then the base's, and writes only its
/// own. [`reset`](Self::reset) between domains empties the overlay's own
/// layer (keeping its capacity), so each domain sees exactly the primed
/// state plus its own writes, without the primed tables ever being copied.
pub struct IterativeResolver {
    client_ip: Ipv4Addr,
    roots: Arc<[RootHint]>,
    /// Max queries for one `resolve` call.
    pub query_budget: u32,
    /// Max *failed* queries one `resolve` call may absorb before giving
    /// up. Bounds the cost of walking a mostly-dead NS set.
    pub retry_budget: u32,
    /// Per-query timeout in simulated microseconds.
    pub timeout_us: u64,
    /// Transport attempts per server.
    pub attempts: u32,
    /// Whether per-server health ordering and the penalty box are active.
    /// Disable to get the naive fixed-order resolver (for ablations: the
    /// flapping-server experiment measures the queries this saves).
    pub penalty_box_enabled: bool,
    next_id: u16,
    /// This resolver's own layer: everything it learned itself.
    own: Caches,
    /// The frozen layer under `own`, for an overlay.
    base: Option<Arc<PrimedBase>>,
    /// Wire buffers reused by every exchange: the encoded query and the
    /// reply the transport writes. A resolution walk takes the reply
    /// buffer out while it reads the reply in place.
    query: Vec<u8>,
    reply: Vec<u8>,
    /// Candidate servers of the current walk step, sorted in place.
    servers: Vec<Ipv4Addr>,
    queries_sent: u64,
    stats: ResolverStats,
    obs: ResolverObs,
    trace: Option<Vec<TraceEvent>>,
}

/// An answer-cache key: the question's type code, then its name's flat
/// wire labels, built on the stack.
struct QuestionKey {
    bytes: [u8; 2 + MAX_NAME_LEN],
    len: usize,
}

impl QuestionKey {
    fn new(name: &NameSlice, rtype: RType) -> Self {
        let wire = name.wire();
        let mut bytes = [0u8; 2 + MAX_NAME_LEN];
        bytes[..2].copy_from_slice(&rtype.code().to_be_bytes());
        bytes[2..2 + wire.len()].copy_from_slice(wire);
        QuestionKey {
            bytes,
            len: 2 + wire.len(),
        }
    }

    fn as_bytes(&self) -> &[u8] {
        &self.bytes[..self.len]
    }
}

/// How a resolution ended, once its answer records went to a sink.
enum Answer {
    /// A positive answer of this many records, CNAME chain included.
    Records(usize),
    /// Authoritative denial.
    NxDomain,
    /// The name exists without records of the queried type.
    NoData,
}

/// Classification of one query exchange.
enum QueryOutcome<'r> {
    /// A usable response (NoError or NXDOMAIN, not truncated, not lame),
    /// read in place from the reply buffer.
    Usable(MessageView<'r>),
    /// Transport timeout.
    Timeout,
    /// SERVFAIL rcode.
    ServFail,
    /// REFUSED or other error rcode.
    Refused,
    /// TC=1: unusable over this transport.
    Truncated,
    /// NoError but non-authoritative with no answer and no referral.
    Lame,
}

impl IterativeResolver {
    /// New resolver at `client_ip` starting from `roots`.
    pub fn new(client_ip: Ipv4Addr, roots: Vec<RootHint>) -> Self {
        IterativeResolver {
            client_ip,
            roots: roots.into(),
            query_budget: 64,
            retry_budget: 8,
            timeout_us: 2_000_000,
            attempts: 2,
            penalty_box_enabled: true,
            next_id: 1,
            own: Caches::default(),
            base: None,
            query: Vec::new(),
            reply: Vec::new(),
            servers: Vec::new(),
            queries_sent: 0,
            stats: ResolverStats::default(),
            obs: ResolverObs::default(),
            trace: None,
        }
    }

    /// Enable trace recording (cleared on [`IterativeResolver::take_trace`]).
    pub fn enable_trace(&mut self) {
        self.trace = Some(Vec::new());
    }

    /// Take and reset the recorded trace.
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        match &mut self.trace {
            Some(t) => std::mem::take(t),
            None => Vec::new(),
        }
    }

    /// Record a trace event; `ev` only runs (and allocates) when tracing
    /// is on.
    fn record(&mut self, ev: impl FnOnce() -> TraceEvent) {
        if let Some(t) = &mut self.trace {
            t.push(ev());
        }
    }

    /// Total queries sent since construction (for harness accounting).
    pub fn queries_sent(&self) -> u64 {
        self.queries_sent
    }

    /// Cumulative failure-cause counters.
    pub fn stats(&self) -> ResolverStats {
        self.stats
    }

    /// Observability aggregates: SRTT distribution, penalty-box churn,
    /// and cache-hit counters.
    pub fn obs(&self) -> &ResolverObs {
        &self.obs
    }

    /// Drain the observability aggregates (merge a domain's into
    /// per-worker totals).
    pub fn take_obs(&mut self) -> ResolverObs {
        std::mem::take(&mut self.obs)
    }

    /// Hand an already-populated aggregate to this resolver to keep
    /// recording into. Paired with [`take_obs`](Self::take_obs) this lets
    /// a sweep worker thread one accumulator through a sequence of
    /// domains instead of allocating (and merging) a fresh histogram per
    /// domain — every recorded operation is a commutative integer fold, so
    /// the result is identical either way.
    pub fn install_obs(&mut self, obs: ResolverObs) {
        self.obs = obs;
    }

    /// Drop this resolver's own cached answers and zone cuts. Server
    /// health is kept: it expires by virtual time instead. An overlay
    /// still reads its base's entries; [`reset`](Self::reset) is the
    /// between-domains reset.
    pub fn clear_cache(&mut self) {
        self.own.answers.clear();
        self.own.cuts.clear();
    }

    /// Seed the zone-cut cache: start resolutions at or below `cut` from
    /// `addrs` instead of the roots.
    ///
    /// Resolving a TLD's NS RRset yields the server *names* as a direct
    /// answer — the referral branch that fills the cut cache never runs —
    /// so a warmup that wants every subsequent resolution to start at the
    /// TLD (with the full server set, not just the root's first glue
    /// record) must plant the cut explicitly. No-op for empty `addrs`.
    pub fn seed_cut(&mut self, cut: Name, addrs: Vec<Ipv4Addr>) {
        if !addrs.is_empty() {
            self.own.cuts.insert(cut, addrs.into());
        }
    }

    /// Freeze this resolver into the shared read-only base of a sweep's
    /// [overlays](Self::overlay): its caches, its learned SRTT estimates,
    /// its next query id and its settings. Counters, trace and buffers
    /// are dropped.
    ///
    /// Penalty boxes are cleared, not frozen: every domain's lane restarts
    /// at the sweep base instant, so a penalty picked up during warmup
    /// would never expire from any lane's point of view, turning one
    /// unlucky warmup timeout into a sweep-wide `attempts=1` degradation.
    /// SRTT stays — it is a rate estimate, not backoff state — so server
    /// ordering stays warm.
    ///
    /// # Panics
    /// If this resolver is itself an overlay: freeze the resolver a sweep
    /// primed, built by [`new`](Self::new).
    pub fn freeze(mut self) -> Arc<PrimedBase> {
        assert!(
            self.base.is_none(),
            "only a resolver built by `new` can be frozen"
        );
        for h in self.own.health.values_mut() {
            h.fails = 0;
            h.penalized_until = SimTime::ZERO;
        }
        Arc::new(PrimedBase {
            caches: self.own,
            next_id: self.next_id,
            client_ip: self.client_ip,
            roots: self.roots,
            query_budget: self.query_budget,
            retry_budget: self.retry_budget,
            timeout_us: self.timeout_us,
            attempts: self.attempts,
            penalty_box_enabled: self.penalty_box_enabled,
        })
    }

    /// A resolver layered over `base`: the base's settings and next query
    /// id, an empty own layer, zeroed counters and no trace. It resolves
    /// exactly as the frozen resolver would have with its penalty boxes
    /// cleared, and never writes to the base.
    pub fn overlay(base: &Arc<PrimedBase>) -> IterativeResolver {
        IterativeResolver {
            client_ip: base.client_ip,
            roots: Arc::clone(&base.roots),
            query_budget: base.query_budget,
            retry_budget: base.retry_budget,
            timeout_us: base.timeout_us,
            attempts: base.attempts,
            penalty_box_enabled: base.penalty_box_enabled,
            next_id: base.next_id,
            own: Caches::default(),
            base: Some(Arc::clone(base)),
            query: Vec::new(),
            reply: Vec::new(),
            servers: Vec::new(),
            queries_sent: 0,
            stats: ResolverStats::default(),
            obs: ResolverObs::default(),
            trace: None,
        }
    }

    /// Return to the state [`overlay`](Self::overlay) (or, without a base,
    /// [`new`](Self::new)) built: empty own caches and health, zeroed
    /// counters and observability, no trace, and the next query id the
    /// base froze. Maps and buffers keep their capacity, and the settings
    /// are kept.
    ///
    /// The parallel sweep engine resets a worker's overlay before each
    /// domain, so every domain starts from the identical primed state
    /// whichever worker runs it — the core of the N-workers ≡ 1-worker
    /// determinism contract — and the counters after a domain are exactly
    /// that domain's measurement cost.
    pub fn reset(&mut self) {
        self.own.clear();
        self.next_id = self.base.as_ref().map_or(1, |b| b.next_id);
        self.queries_sent = 0;
        self.stats = ResolverStats::default();
        self.obs = ResolverObs::default();
        self.trace = None;
    }

    /// The cached answer for `key`: this resolver's own, else its base's.
    fn cached_answer(&self, key: &[u8]) -> Option<&Result<Resolution, ResolveError>> {
        self.own
            .answers
            .get(key)
            .or_else(|| self.base.as_ref()?.caches.answers.get(key))
    }

    /// The cached servers of cut `name`: this resolver's own, else its
    /// base's.
    fn cached_cut(&self, name: &NameSlice) -> Option<&Arc<[Ipv4Addr]>> {
        self.own
            .cuts
            .get(name)
            .or_else(|| self.base.as_ref()?.caches.cuts.get(name))
    }

    /// The health of `server`: this resolver's own record, else its
    /// base's, else the never-probed default.
    fn health_of(&self, server: Ipv4Addr) -> ServerHealth {
        self.own
            .health
            .get(&server)
            .or_else(|| self.base.as_ref()?.caches.health.get(&server))
            .copied()
            .unwrap_or_default()
    }

    /// This resolver's own health record for `server`, started from
    /// [`health_of`](Self::health_of) on first write.
    fn health_mut(&mut self, server: Ipv4Addr) -> &mut ServerHealth {
        let base = self.base.as_deref();
        self.own.health.entry(server).or_insert_with(|| {
            base.and_then(|b| b.caches.health.get(&server))
                .copied()
                .unwrap_or_default()
        })
    }

    /// Resolve `name`/`rtype`, driving the simulated network (either the
    /// serial [`ruwhere_netsim::Network`] or a per-worker
    /// [`ruwhere_netsim::Lane`]).
    pub fn resolve<T: Transport>(
        &mut self,
        net: &mut T,
        name: &NameSlice,
        rtype: RType,
    ) -> Result<Resolution, ResolveError> {
        self.resolve_with_cache(net, name, rtype, &NoDependencyCache)
    }

    /// [`resolve`](Self::resolve), with NS-target dependency lookups routed
    /// through `deps` (the parallel sweep engine's shared read-through
    /// cache).
    pub fn resolve_with_cache<T: Transport>(
        &mut self,
        net: &mut T,
        name: &NameSlice,
        rtype: RType,
        deps: &dyn NsDependencyCache,
    ) -> Result<Resolution, ResolveError> {
        let mut budget = self.query_budget;
        let mut retries = self.retry_budget;
        let result = self.resolve_inner(net, name, rtype, &mut budget, &mut retries, 0, deps);
        self.record_done(&result.as_ref().map(Resolution::answer).map_err(|e| *e));
        result
    }

    /// [`resolve_with_cache`](Self::resolve_with_cache), with the answer
    /// records handed to `sink` in answer order instead of returned: read
    /// in place from the reply, so nothing is copied out. For an answer
    /// only its caller reads, like a sweep's per-domain queries.
    ///
    /// A cached answer is served from the cache and fed to the sink. A
    /// positive answer that arrives is not cached; a denial, an empty
    /// answer and a non-transient error are, as by `resolve_with_cache`.
    /// The records of a CNAME chain arrive hop by hop, so a chain whose
    /// later hop fails returns `Err` after some records went to the sink:
    /// the caller drops what it collected then. Nested NS-target lookups
    /// still go through the cached, owned path.
    pub fn resolve_into<T: Transport>(
        &mut self,
        net: &mut T,
        name: &NameSlice,
        rtype: RType,
        deps: &dyn NsDependencyCache,
        sink: &mut dyn FnMut(AnswerRecord<'_>),
    ) -> Result<(), ResolveError> {
        let key = QuestionKey::new(name, rtype);
        let result = if let Some(cached) = self.cached_answer(key.as_bytes()).cloned() {
            self.obs.answer_cache_hits += 1;
            cached.map(|res| {
                if let Resolution::Records(records) = &res {
                    records.iter().for_each(|r| sink(AnswerRecord::Cached(r)));
                }
                res.answer()
            })
        } else {
            let mut budget = self.query_budget;
            let mut retries = self.retry_budget;
            let result = self.walk(net, name, rtype, &mut budget, &mut retries, 0, deps, sink);
            match &result {
                Ok(Answer::Records(_)) => {}
                Ok(Answer::NxDomain) => self.cache_answer(&key, Ok(Resolution::NxDomain)),
                Ok(Answer::NoData) => self.cache_answer(&key, Ok(Resolution::NoData)),
                Err(e) => self.cache_answer(&key, Err(*e)),
            }
            result
        };
        self.record_done(&result);
        result.map(|_| ())
    }

    /// Record the trace's terminal event for `result`.
    fn record_done(&mut self, result: &Result<Answer, ResolveError>) {
        self.record(|| TraceEvent::Done {
            outcome: match result {
                Ok(Answer::Records(n)) => format!("answer ({n} records)"),
                Ok(Answer::NxDomain) => "NXDOMAIN".to_owned(),
                Ok(Answer::NoData) => "NODATA".to_owned(),
                Err(e) => format!("error: {e}"),
            },
        });
    }

    /// Cache `result` under `key`, unless it is a transient failure:
    /// timeouts and SERVFAILs may clear within the sweep, and budget
    /// exhaustion is a property of one call's budget, not of the name.
    fn cache_answer(&mut self, key: &QuestionKey, result: Result<Resolution, ResolveError>) {
        if !matches!(
            result,
            Err(ResolveError::Timeout | ResolveError::ServFail | ResolveError::BudgetExhausted)
        ) {
            self.own.answers.insert(key.as_bytes().into(), result);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn resolve_inner<T: Transport>(
        &mut self,
        net: &mut T,
        name: &NameSlice,
        rtype: RType,
        budget: &mut u32,
        retries: &mut u32,
        depth: u32,
        deps: &dyn NsDependencyCache,
    ) -> Result<Resolution, ResolveError> {
        if depth > 6 {
            return Err(ResolveError::BudgetExhausted);
        }
        let key = QuestionKey::new(name, rtype);
        if let Some(cached) = self.cached_answer(key.as_bytes()) {
            let cached = cached.clone();
            self.obs.answer_cache_hits += 1;
            return cached;
        }
        let mut chain = Vec::new();
        let result = self
            .walk(net, name, rtype, budget, retries, depth, deps, &mut |r| {
                chain.push(r.to_record())
            })
            .map(|answer| match answer {
                Answer::Records(_) => Resolution::Records(chain.into()),
                Answer::NxDomain => Resolution::NxDomain,
                Answer::NoData => Resolution::NoData,
            });
        self.cache_answer(&key, result.clone());
        result
    }

    /// [`resolve_uncached`](Self::resolve_uncached) with the reply and
    /// server buffers lent to it. The walk reads replies in place from the
    /// reply buffer and sorts candidates in the server buffer, so it owns
    /// both while it runs. A nested walk (an out-of-bailiwick NS lookup)
    /// finds them empty and grows its own; whichever walk finishes last
    /// keeps its pair.
    #[allow(clippy::too_many_arguments)]
    fn walk<T: Transport>(
        &mut self,
        net: &mut T,
        name: &NameSlice,
        rtype: RType,
        budget: &mut u32,
        retries: &mut u32,
        depth: u32,
        deps: &dyn NsDependencyCache,
        sink: &mut dyn FnMut(AnswerRecord<'_>),
    ) -> Result<Answer, ResolveError> {
        let mut reply = std::mem::take(&mut self.reply);
        let mut servers = std::mem::take(&mut self.servers);
        let result = self.resolve_uncached(
            net,
            name,
            rtype,
            budget,
            retries,
            depth,
            deps,
            sink,
            &mut reply,
            &mut servers,
        );
        self.reply = reply;
        self.servers = servers;
        result
    }

    /// Fill `servers` with the addresses of the deepest cached cut that is
    /// an ancestor of (or equal to) `name`, or with the roots.
    fn starting_servers(&self, name: &NameSlice, servers: &mut Vec<Ipv4Addr>) {
        servers.clear();
        match name.suffixes().find_map(|n| self.cached_cut(n)) {
            Some(addrs) => servers.extend_from_slice(addrs),
            None => servers.extend(self.roots.iter().map(|r| r.addr)),
        }
    }

    /// Sort candidate servers into query order: healthy before penalized,
    /// faster (smoothed RTT) before slower, original order as the
    /// tiebreak. Penalized servers stay in the list — if everything else
    /// fails they are still tried, so a penalty can never cause a false
    /// failure.
    fn order_servers(&self, servers: &mut [Ipv4Addr], now: SimTime) {
        if !self.penalty_box_enabled {
            return;
        }
        servers.sort_by_key(|&addr| {
            let h = self.health_of(addr);
            let penalized = h.penalized_until > now;
            (penalized, h.srtt_us)
        });
    }

    fn note_success(&mut self, server: Ipv4Addr, rtt_us: u64) {
        let h = self.health_mut(server);
        // EWMA with 1/8 gain, like classic TCP SRTT.
        h.srtt_us = h.srtt_us - h.srtt_us / 8 + rtt_us / 8;
        let srtt = h.srtt_us;
        let was_failing = h.fails > 0;
        h.fails = 0;
        h.penalized_until = SimTime::ZERO;
        self.obs.srtt_us.record(srtt);
        if was_failing {
            self.obs.penalty_exits += 1;
        }
    }

    fn note_failure(&mut self, server: Ipv4Addr, now: SimTime) {
        let h = self.health_mut(server);
        let entered = h.fails == 0;
        h.fails = h.fails.saturating_add(1);
        let shift = (h.fails - 1).min(PENALTY_MAX_SHIFT);
        h.penalized_until = now.plus_us(PENALTY_BASE_US << shift);
        if entered {
            self.obs.penalty_entries += 1;
        }
    }

    /// Send one query for `name`/`rtype` to `server` and classify the
    /// exchange; a usable reply is read in place from `reply`.
    fn send_query<'r, T: Transport>(
        &mut self,
        net: &mut T,
        server: Ipv4Addr,
        name: &NameSlice,
        rtype: RType,
        budget: &mut u32,
        reply: &'r mut Vec<u8>,
    ) -> Result<QueryOutcome<'r>, ResolveError> {
        if *budget == 0 {
            return Err(ResolveError::BudgetExhausted);
        }
        *budget -= 1;
        self.queries_sent += 1;
        self.record(|| TraceEvent::Query {
            server,
            qname: name.to_owned(),
            rtype,
        });
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1).max(1);
        Message::encode_query(id, name, rtype, &mut self.query)
            .map_err(|_| ResolveError::BadResponse)?;
        // A penalized server gets one transport attempt, not the full
        // retry schedule: we are probing whether it recovered, not
        // betting the query's latency budget on it.
        let penalized =
            self.penalty_box_enabled && self.health_of(server).penalized_until > net.now();
        let attempts = if penalized { 1 } else { self.attempts };
        let t0 = net.now();
        let sent = net.request(
            self.client_ip,
            (server, 53),
            &self.query,
            self.timeout_us,
            attempts,
            reply,
        );
        if sent.is_err() {
            self.stats.timeouts += 1;
            self.note_failure(server, net.now());
            self.record(|| TraceEvent::Timeout { server });
            return Ok(QueryOutcome::Timeout);
        }
        let msg = MessageView::parse(reply).map_err(|_| ResolveError::BadResponse)?;
        if msg.id() != id || !msg.is_response() {
            return Err(ResolveError::BadResponse);
        }
        let flags = msg.flags();
        let now = net.now();
        if flags.tc {
            self.stats.truncated += 1;
            self.note_failure(server, now);
            self.record(|| TraceEvent::Truncated { server });
            return Ok(QueryOutcome::Truncated);
        }
        match flags.rcode {
            Rcode::NoError | Rcode::NxDomain => {
                // Lame delegation: the server answered, but
                // non-authoritatively, with nothing to act on — it does
                // not actually serve the zone.
                let lame = flags.rcode == Rcode::NoError
                    && !flags.aa
                    && msg.answers().len() == 0
                    && !msg.authorities().any(|r| r.rtype() == RType::Ns);
                if lame {
                    self.stats.lame += 1;
                    self.note_failure(server, now);
                    self.record(|| TraceEvent::Lame { server });
                    Ok(QueryOutcome::Lame)
                } else {
                    self.note_success(server, now.as_micros() - t0.as_micros());
                    Ok(QueryOutcome::Usable(msg))
                }
            }
            Rcode::ServFail => {
                self.stats.servfails += 1;
                self.note_failure(server, now);
                self.record(|| TraceEvent::ServFail { server });
                Ok(QueryOutcome::ServFail)
            }
            _ => {
                // REFUSED and friends: a deliberate answer, not a broken
                // box — no penalty, but not usable either.
                Ok(QueryOutcome::Refused)
            }
        }
    }

    /// One resolution walk: from the deepest cached cut, follow referrals
    /// and CNAMEs until an answer, reading every reply in place from
    /// `reply` and sorting candidates in `servers`. The records of each
    /// positive answer go to `sink` as they arrive; only each new cut and
    /// a CNAME target are copied out.
    #[allow(clippy::too_many_arguments)]
    fn resolve_uncached<T: Transport>(
        &mut self,
        net: &mut T,
        qname: &NameSlice,
        rtype: RType,
        budget: &mut u32,
        retries: &mut u32,
        depth: u32,
        deps: &dyn NsDependencyCache,
        sink: &mut dyn FnMut(AnswerRecord<'_>),
        reply: &mut Vec<u8>,
        servers: &mut Vec<Ipv4Addr>,
    ) -> Result<Answer, ResolveError> {
        // The CNAME target being chased, once there is one.
        let mut alias: Option<Name> = None;
        // Answer records handed to the sink so far, over every hop.
        let mut delivered = 0usize;
        self.starting_servers(qname, servers);
        let mut saw_refusal = false;
        let mut saw_timeout = false;
        let mut saw_servfail = false;
        let mut saw_lame = false;

        for _step in 0..24 {
            let current: &NameSlice = alias.as_deref().unwrap_or(qname);
            // Try candidate servers, best-health first, until one gives a
            // usable response. Each failure burns a retry token; when the
            // budget is gone the resolution fails fast instead of walking
            // the rest of a dead NS set.
            self.order_servers(servers, net.now());
            let mut tried = 0;
            let msg = loop {
                let Some(&server) = servers.get(tried) else {
                    // Classify by the most specific protocol-visible cause.
                    return Err(if saw_lame {
                        ResolveError::Lame
                    } else if saw_servfail {
                        ResolveError::ServFail
                    } else if saw_refusal && !saw_timeout {
                        ResolveError::Refused
                    } else {
                        ResolveError::Timeout
                    });
                };
                tried += 1;
                match self.send_query(net, server, current, rtype, budget, reply)? {
                    QueryOutcome::Usable(msg) => break msg,
                    QueryOutcome::Timeout => saw_timeout = true,
                    QueryOutcome::ServFail => saw_servfail = true,
                    QueryOutcome::Lame => saw_lame = true,
                    QueryOutcome::Truncated => saw_timeout = true,
                    QueryOutcome::Refused => saw_refusal = true,
                }
                self.stats.retries_spent += 1;
                if *retries == 0 {
                    return Err(ResolveError::BudgetExhausted);
                }
                *retries -= 1;
            };
            let flags = msg.flags();

            if flags.rcode == Rcode::NxDomain {
                return Ok(Answer::NxDomain);
            }

            // Positive answer?
            if msg.answers().len() > 0 {
                let has_final = msg.answers().any(|r| r.rtype() == rtype);
                for r in msg.answers() {
                    sink(AnswerRecord::View(r));
                }
                delivered += msg.answers().len();
                if has_final {
                    return Ok(Answer::Records(delivered));
                }
                // Pure CNAME response: chase the last target.
                if let Some(target) = msg
                    .answers()
                    .filter(|r| r.rtype() == RType::Cname)
                    .last()
                    .and_then(|r| r.target())
                {
                    if delivered > 16 {
                        return Err(ResolveError::BudgetExhausted);
                    }
                    let target = target.to_name();
                    self.record(|| TraceEvent::Cname {
                        target: target.clone(),
                    });
                    self.starting_servers(&target, servers);
                    alias = Some(target);
                    continue;
                }
                return Ok(Answer::Records(delivered));
            }

            // Referral?
            let is_ns = |r: &RecordView<'_>| r.rtype() == RType::Ns;
            let Some(first_ns) = msg.authorities().find(is_ns) else {
                // Authoritative empty answer: NoData. Anything else is
                // neither answer, referral, nor authoritative denial, yet
                // not lame-shaped either (send_query screens those out).
                return if flags.aa {
                    Ok(Answer::NoData)
                } else {
                    Err(ResolveError::BadResponse)
                };
            };
            if flags.aa {
                return Ok(Answer::NoData);
            }
            let targets = msg.authorities().filter(is_ns).filter_map(|r| r.target());
            // Bailiwick check: only accept glue whose owner is one of the
            // referral's NS targets. Anything else in the additional
            // section (cache-poisoning style extras) is discarded and, if
            // needed, resolved independently.
            let mut rejected_glue = 0usize;
            servers.clear();
            for r in msg.additionals() {
                if let Some(ip) = r.a() {
                    if targets.clone().any(|t| t == r.owner()) {
                        servers.push(ip);
                    } else {
                        rejected_glue += 1;
                    }
                }
            }
            let glue_accepted = servers.len();
            if servers.is_empty() {
                // Out-of-bailiwick NS: resolve their addresses — centrally
                // through the dependency cache when the engine provides
                // one, inline otherwise.
                let mut buf = [0u8; MAX_NAME_LEN];
                for t in targets {
                    let t = t.lowercase_into(&mut buf);
                    if let Some(shared) = deps.ns_target_a(t) {
                        self.obs.deps_cache_hits += 1;
                        servers.extend_from_slice(&shared);
                    } else if let Ok(res) =
                        self.resolve_inner(net, t, RType::A, budget, retries, depth + 1, deps)
                    {
                        servers.extend(res.addresses());
                    }
                    if servers.len() >= 4 {
                        break;
                    }
                }
            }
            let cut = first_ns.owner().to_name();
            self.record(|| TraceEvent::Referral {
                cut: cut.clone(),
                glue: glue_accepted,
                rejected_glue,
            });
            if servers.is_empty() {
                return Err(ResolveError::NoNameservers);
            }
            self.own.cuts.insert(cut, servers.as_slice().into());
        }
        Err(ResolveError::BudgetExhausted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{shared_zones, AuthServer, ServerBehavior};
    use ruwhere_dns::{RData, Record, SoaData, Zone};
    use ruwhere_netsim::fault::{FaultWindow, ServerFault, ServerFaultMode};
    use ruwhere_netsim::{AsInfo, Network, Topology};
    use ruwhere_types::sync::write;
    use ruwhere_types::{Asn, Country, SeedTree};

    fn name(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn soa(mname: &str) -> SoaData {
        SoaData {
            mname: name(mname),
            rname: name("hostmaster.invalid"),
            serial: 1,
            refresh: 1,
            retry: 1,
            expire: 1,
            minimum: 60,
        }
    }

    const ROOT_IP: Ipv4Addr = Ipv4Addr::new(198, 41, 0, 4);
    const RU_TLD_IP: Ipv4Addr = Ipv4Addr::new(193, 232, 128, 6);
    const COM_TLD_IP: Ipv4Addr = Ipv4Addr::new(192, 5, 6, 30);
    const HOSTER_DNS_IP: Ipv4Addr = Ipv4Addr::new(194, 85, 61, 20);
    const HOSTER_DNS2_IP: Ipv4Addr = Ipv4Addr::new(194, 85, 61, 21);
    const WEB_IP: Ipv4Addr = Ipv4Addr::new(194, 85, 90, 10);
    /// Routed, but no server listens there.
    const DEAD_IP: Ipv4Addr = Ipv4Addr::new(194, 85, 61, 99);
    const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(130, 89, 1, 1);

    /// Build a three-level hierarchy: root → ru/com → example.ru served by
    /// ns1.hoster.ru (in-bailiwick of .ru with glue) and ns2.hoster.com
    /// (out-of-bailiwick, requiring a separate resolution). hoster.ru
    /// holds two cross-zone aliases: www.hoster.ru → example.ru, and
    /// broken.hoster.ru → www.dead.com, whose only server is dead.
    fn build_world() -> (Network, IterativeResolver) {
        let mut topo = Topology::new(SeedTree::new(11).child("topo"));
        for (asn, org, cc) in [
            (Asn(1), "ROOT-OPS", Country::US),
            (Asn(2), "RIPN", Country::RU),
            (Asn(3), "VRSN", Country::US),
            (Asn(4), "RU-HOSTER", Country::RU),
            (Asn(5), "SCANNER", Country::NL),
        ] {
            topo.add_as(AsInfo {
                asn,
                org: org.into(),
                country: cc,
            });
        }
        topo.announce("198.41.0.0/24".parse().unwrap(), Asn(1));
        topo.announce("193.232.128.0/24".parse().unwrap(), Asn(2));
        topo.announce("192.5.6.0/24".parse().unwrap(), Asn(3));
        topo.announce("194.85.0.0/16".parse().unwrap(), Asn(4));
        topo.announce("130.89.0.0/16".parse().unwrap(), Asn(5));
        let mut net = Network::new(topo, SeedTree::new(11).child("net"));

        // Root zone.
        let mut root = Zone::new(Name::root(), soa("a.root-servers.net"), 86400);
        root.add(Record::new(
            name("ru"),
            86400,
            RData::Ns(name("a.dns.ripn.net")),
        ));
        root.add(Record::new(
            name("a.dns.ripn.net"),
            86400,
            RData::A(RU_TLD_IP),
        ));
        root.add(Record::new(
            name("com"),
            86400,
            RData::Ns(name("a.gtld-servers.net")),
        ));
        root.add(Record::new(
            name("a.gtld-servers.net"),
            86400,
            RData::A(COM_TLD_IP),
        ));
        net.bind(ROOT_IP, 53, Box::new(AuthServer::new(shared_zones([root]))));

        // .ru TLD zone: delegation for example.ru + glue for in-bailiwick NS.
        let mut ru = Zone::new(name("ru"), soa("a.dns.ripn.net"), 86400);
        ru.add(Record::new(
            name("example.ru"),
            3600,
            RData::Ns(name("ns1.hoster.ru")),
        ));
        ru.add(Record::new(
            name("example.ru"),
            3600,
            RData::Ns(name("ns2.hoster.com")),
        ));
        ru.add(Record::new(
            name("hoster.ru"),
            3600,
            RData::Ns(name("ns1.hoster.ru")),
        ));
        ru.add(Record::new(
            name("ns1.hoster.ru"),
            3600,
            RData::A(HOSTER_DNS_IP),
        ));
        net.bind(RU_TLD_IP, 53, Box::new(AuthServer::new(shared_zones([ru]))));

        // .com TLD zone: delegation for hoster.com.
        let mut com = Zone::new(name("com"), soa("a.gtld-servers.net"), 86400);
        com.add(Record::new(
            name("hoster.com"),
            3600,
            RData::Ns(name("ns1.hoster.ru")),
        ));
        com.add(Record::new(
            name("dead.com"),
            3600,
            RData::Ns(name("ns.dead.com")),
        ));
        com.add(Record::new(name("ns.dead.com"), 3600, RData::A(DEAD_IP)));
        net.bind(
            COM_TLD_IP,
            53,
            Box::new(AuthServer::new(shared_zones([com]))),
        );

        // The hosting operator serves example.ru, hoster.ru AND hoster.com.
        let mut example = Zone::new(name("example.ru"), soa("ns1.hoster.ru"), 3600);
        example.add(Record::new(name("example.ru"), 300, RData::A(WEB_IP)));
        example.add(Record::new(
            name("example.ru"),
            300,
            RData::Ns(name("ns1.hoster.ru")),
        ));
        example.add(Record::new(
            name("example.ru"),
            300,
            RData::Ns(name("ns2.hoster.com")),
        ));
        example.add(Record::new(
            name("www.example.ru"),
            300,
            RData::Cname(name("example.ru")),
        ));
        let mut hoster_ru = Zone::new(name("hoster.ru"), soa("ns1.hoster.ru"), 3600);
        hoster_ru.add(Record::new(
            name("ns1.hoster.ru"),
            300,
            RData::A(HOSTER_DNS_IP),
        ));
        hoster_ru.add(Record::new(
            name("www.hoster.ru"),
            300,
            RData::Cname(name("example.ru")),
        ));
        hoster_ru.add(Record::new(
            name("broken.hoster.ru"),
            300,
            RData::Cname(name("www.dead.com")),
        ));
        let mut hoster_com = Zone::new(name("hoster.com"), soa("ns1.hoster.ru"), 3600);
        hoster_com.add(Record::new(
            name("ns2.hoster.com"),
            300,
            RData::A(HOSTER_DNS_IP),
        ));
        net.bind(
            HOSTER_DNS_IP,
            53,
            Box::new(AuthServer::new(shared_zones([
                example, hoster_ru, hoster_com,
            ]))),
        );

        let resolver = IterativeResolver::new(
            CLIENT_IP,
            vec![RootHint {
                name: name("a.root-servers.net"),
                addr: ROOT_IP,
            }],
        );
        (net, resolver)
    }

    /// Variant of [`build_world`] where example.ru has TWO glued name
    /// servers, so server-selection behaviour (fallback, penalty box) is
    /// observable. Returns the network, resolver, and the second server's
    /// behavior handle.
    fn build_two_ns_world() -> (
        Network,
        IterativeResolver,
        std::sync::Arc<std::sync::RwLock<ServerBehavior>>,
    ) {
        let (mut net, resolver) = build_world();
        // Give example.ru a second, glued, in-bailiwick NS.
        let mut ru = Zone::new(name("ru"), soa("a.dns.ripn.net"), 86400);
        ru.add(Record::new(
            name("example.ru"),
            3600,
            RData::Ns(name("ns1.hoster.ru")),
        ));
        ru.add(Record::new(
            name("example.ru"),
            3600,
            RData::Ns(name("ns3.hoster.ru")),
        ));
        ru.add(Record::new(
            name("ns1.hoster.ru"),
            3600,
            RData::A(HOSTER_DNS_IP),
        ));
        ru.add(Record::new(
            name("ns3.hoster.ru"),
            3600,
            RData::A(HOSTER_DNS2_IP),
        ));
        net.bind(RU_TLD_IP, 53, Box::new(AuthServer::new(shared_zones([ru]))));

        let mut example = Zone::new(name("example.ru"), soa("ns1.hoster.ru"), 3600);
        example.add(Record::new(name("example.ru"), 300, RData::A(WEB_IP)));
        example.add(Record::new(
            name("example.ru"),
            300,
            RData::Ns(name("ns1.hoster.ru")),
        ));
        example.add(Record::new(
            name("example.ru"),
            300,
            RData::Ns(name("ns3.hoster.ru")),
        ));
        let srv2 = AuthServer::new(shared_zones([example]));
        let handle = srv2.behavior_handle();
        net.bind(HOSTER_DNS2_IP, 53, Box::new(srv2));
        (net, resolver, handle)
    }

    #[test]
    fn full_iterative_resolution() {
        let (mut net, mut r) = build_world();
        let res = r.resolve(&mut net, &name("example.ru"), RType::A).unwrap();
        assert_eq!(res.addresses(), vec![WEB_IP]);
    }

    #[test]
    fn ns_resolution() {
        let (mut net, mut r) = build_world();
        let res = r.resolve(&mut net, &name("example.ru"), RType::Ns).unwrap();
        let mut targets: Vec<String> = res.ns_targets().iter().map(|n| n.to_string()).collect();
        targets.sort();
        assert_eq!(targets, vec!["ns1.hoster.ru.", "ns2.hoster.com."]);
    }

    #[test]
    fn cname_chase() {
        let (mut net, mut r) = build_world();
        let res = r
            .resolve(&mut net, &name("www.example.ru"), RType::A)
            .unwrap();
        assert_eq!(res.addresses(), vec![WEB_IP]);
        if let Resolution::Records(recs) = &res {
            assert!(recs.iter().any(|rec| rec.data.rtype() == RType::Cname));
        }
    }

    #[test]
    fn nxdomain_and_nodata() {
        let (mut net, mut r) = build_world();
        assert_eq!(
            r.resolve(&mut net, &name("missing.example.ru"), RType::A)
                .unwrap(),
            Resolution::NxDomain
        );
        assert_eq!(
            r.resolve(&mut net, &name("example.ru"), RType::Mx).unwrap(),
            Resolution::NoData
        );
        assert_eq!(
            r.resolve(&mut net, &name("unregistered.ru"), RType::A)
                .unwrap(),
            Resolution::NxDomain
        );
    }

    #[test]
    fn out_of_bailiwick_ns_resolved_via_com() {
        let (mut net, mut r) = build_world();
        // Resolving ns2.hoster.com requires walking root → com → hoster.
        let res = r
            .resolve(&mut net, &name("ns2.hoster.com"), RType::A)
            .unwrap();
        assert_eq!(res.addresses(), vec![HOSTER_DNS_IP]);
    }

    #[test]
    fn cache_reduces_queries() {
        let (mut net, mut r) = build_world();
        r.resolve(&mut net, &name("example.ru"), RType::A).unwrap();
        let after_first = r.queries_sent();
        r.resolve(&mut net, &name("www.example.ru"), RType::A)
            .unwrap();
        let after_second = r.queries_sent();
        // Second resolution starts from the cached example.ru cut: at most
        // a couple of queries instead of a full walk.
        assert!(
            after_second - after_first <= 2,
            "expected cached walk, used {} queries",
            after_second - after_first
        );
        // Repeated identical resolution is free.
        r.resolve(&mut net, &name("example.ru"), RType::A).unwrap();
        assert_eq!(r.queries_sent(), after_second);
        // After clearing, the walk restarts at the root.
        r.clear_cache();
        r.resolve(&mut net, &name("example.ru"), RType::A).unwrap();
        assert!(r.queries_sent() > after_second + 1);
    }

    #[test]
    fn overlays_read_the_frozen_base_and_write_only_their_own() {
        let (mut net, mut primed) = build_world();
        primed
            .resolve(&mut net, &name("example.ru"), RType::A)
            .unwrap();
        let base = primed.freeze();

        let mut first = IterativeResolver::overlay(&base);
        // The primed answer comes from the base, without a query.
        let res = first.resolve(&mut net, &name("example.ru"), RType::A);
        assert_eq!(res.unwrap().addresses(), vec![WEB_IP]);
        assert_eq!(first.queries_sent(), 0);
        assert_eq!(first.obs().answer_cache_hits, 1);
        // A new name starts at the base's example.ru cut: one query.
        first
            .resolve(&mut net, &name("www.example.ru"), RType::A)
            .unwrap();
        assert_eq!(first.queries_sent(), 1);

        // The first overlay's answer never reached the base: a second
        // overlay, and the first after a reset, ask again.
        let mut second = IterativeResolver::overlay(&base);
        second
            .resolve(&mut net, &name("www.example.ru"), RType::A)
            .unwrap();
        assert_eq!(second.queries_sent(), 1);
        first.reset();
        assert_eq!(first.queries_sent(), 0);
        first
            .resolve(&mut net, &name("www.example.ru"), RType::A)
            .unwrap();
        assert_eq!(first.queries_sent(), 1);
    }

    /// `resolve_into` for `qname`/`rtype`, each record copied out.
    fn streamed(
        r: &mut IterativeResolver,
        net: &mut Network,
        qname: &str,
        rtype: RType,
    ) -> (Result<(), ResolveError>, Vec<Record>) {
        let mut got = Vec::new();
        let result = r.resolve_into(net, &name(qname), rtype, &NoDependencyCache, &mut |rec| {
            got.push(rec.to_record())
        });
        (result, got)
    }

    #[test]
    fn a_streamed_cname_chain_arrives_hop_by_hop_in_chain_order() {
        let (mut net, mut owned) = build_world();
        let want = owned.resolve(&mut net, &name("www.hoster.ru"), RType::A);
        let (mut net, mut r) = build_world();
        let (result, got) = streamed(&mut r, &mut net, "www.hoster.ru", RType::A);
        result.unwrap();
        // The alias leaves hoster.ru's zone, so each hop is its own reply.
        assert_eq!(
            got,
            [
                Record::new(name("www.hoster.ru"), 300, RData::Cname(name("example.ru"))),
                Record::new(name("example.ru"), 300, RData::A(WEB_IP)),
            ]
        );
        assert_eq!(Ok(Resolution::Records(got.into())), want);
        assert_eq!(r.queries_sent(), owned.queries_sent());
        // A positive answer that streamed is not cached: asking again
        // walks again, from the cached cuts.
        let sent = r.queries_sent();
        streamed(&mut r, &mut net, "www.hoster.ru", RType::A)
            .0
            .unwrap();
        assert_eq!(r.queries_sent(), sent + 2);
        assert_eq!(r.obs().answer_cache_hits, 0);
    }

    #[test]
    fn a_chain_whose_second_hop_fails_errs_after_partial_delivery() {
        let (mut net, mut r) = build_world();
        let (result, got) = streamed(&mut r, &mut net, "broken.hoster.ru", RType::A);
        assert_eq!(result, Err(ResolveError::Timeout));
        assert_eq!(
            got,
            [Record::new(
                name("broken.hoster.ru"),
                300,
                RData::Cname(name("www.dead.com"))
            )]
        );
        let (mut net, mut owned) = build_world();
        let want = owned.resolve(&mut net, &name("broken.hoster.ru"), RType::A);
        assert_eq!(want, Err(ResolveError::Timeout));
        assert_eq!(r.stats(), owned.stats());
    }

    #[test]
    fn an_answer_in_the_primed_base_is_fed_as_cached() {
        let (mut net, mut primed) = build_world();
        for rtype in [RType::A, RType::Ns] {
            primed
                .resolve(&mut net, &name("example.ru"), rtype)
                .unwrap();
        }
        let mut fresh = IterativeResolver::new(CLIENT_IP, primed.roots.to_vec());
        let mut r = IterativeResolver::overlay(&primed.freeze());
        let mut got = Vec::new();
        r.resolve_into(
            &mut net,
            &name("example.ru"),
            RType::A,
            &NoDependencyCache,
            &mut |rec| got.push((matches!(rec, AnswerRecord::Cached(_)), rec.a())),
        )
        .unwrap();
        assert_eq!(got, [(true, Some(WEB_IP))]);
        assert_eq!(r.queries_sent(), 0);
        assert_eq!(r.obs().answer_cache_hits, 1);
        // NS targets read alike from the cache and from a reply.
        let targets = |r: &mut IterativeResolver, net: &mut Network| {
            let mut names = Vec::new();
            r.resolve_into(
                net,
                &name("example.ru"),
                RType::Ns,
                &NoDependencyCache,
                &mut |rec| {
                    let mut buf = [0u8; MAX_NAME_LEN];
                    names.extend(rec.ns_target(&mut buf).map(|n| n.to_string()));
                },
            )
            .unwrap();
            names
        };
        let cached = targets(&mut r, &mut net);
        assert_eq!(r.obs().answer_cache_hits, 2);
        assert_eq!(cached, ["ns1.hoster.ru.", "ns2.hoster.com."]);
        assert_eq!(targets(&mut fresh, &mut net), cached);
        assert!(fresh.queries_sent() > 0);
    }

    #[test]
    fn freezing_clears_penalties_but_keeps_server_order() {
        let (mut net, mut primed, _h2) = build_two_ns_world();
        net.unbind(HOSTER_DNS_IP, 53);
        primed
            .resolve(&mut net, &name("example.ru"), RType::A)
            .unwrap();
        assert!(primed.health_of(HOSTER_DNS_IP).penalized_until > SimTime::ZERO);
        let srtt = primed.health_of(HOSTER_DNS2_IP).srtt_us;
        assert_ne!(srtt, SRTT_DEFAULT_US);
        let overlay = IterativeResolver::overlay(&primed.freeze());
        let dead = overlay.health_of(HOSTER_DNS_IP);
        assert_eq!((dead.fails, dead.penalized_until), (0, SimTime::ZERO));
        assert_eq!(overlay.health_of(HOSTER_DNS2_IP).srtt_us, srtt);
    }

    #[test]
    fn dead_server_times_out_then_next_is_tried() {
        let (mut net, mut r) = build_world();
        // Kill the hoster's DNS box; resolution of example.ru must fail.
        net.unbind(HOSTER_DNS_IP, 53);
        let err = r
            .resolve(&mut net, &name("example.ru"), RType::A)
            .unwrap_err();
        assert_eq!(err, ResolveError::Timeout);
        assert!(r.stats().timeouts > 0);
    }

    #[test]
    fn refused_surfaces_as_refused() {
        let (mut net, mut r) = build_world();
        let zones = shared_zones([]);
        let srv = AuthServer::new(zones);
        *write(&srv.behavior_handle()) = ServerBehavior::Refused;
        net.bind(HOSTER_DNS_IP, 53, Box::new(srv));
        let err = r
            .resolve(&mut net, &name("example.ru"), RType::A)
            .unwrap_err();
        assert_eq!(err, ResolveError::Refused);
    }

    #[test]
    fn budget_exhaustion_reported() {
        let (mut net, mut r) = build_world();
        r.query_budget = 1;
        let err = r
            .resolve(&mut net, &name("example.ru"), RType::A)
            .unwrap_err();
        assert_eq!(err, ResolveError::BudgetExhausted);
    }

    #[test]
    fn servfail_surfaces_as_servfail() {
        let (mut net, mut r) = build_world();
        let srv = AuthServer::new(shared_zones([]));
        *write(&srv.behavior_handle()) = ServerBehavior::ServFail;
        net.bind(HOSTER_DNS_IP, 53, Box::new(srv));
        let err = r
            .resolve(&mut net, &name("example.ru"), RType::A)
            .unwrap_err();
        assert_eq!(err, ResolveError::ServFail);
        assert!(r.stats().servfails > 0);
    }

    #[test]
    fn lame_surfaces_as_lame() {
        let (mut net, mut r) = build_world();
        let srv = AuthServer::new(shared_zones([]));
        *write(&srv.behavior_handle()) = ServerBehavior::Lame;
        net.bind(HOSTER_DNS_IP, 53, Box::new(srv));
        let err = r
            .resolve(&mut net, &name("example.ru"), RType::A)
            .unwrap_err();
        assert_eq!(err, ResolveError::Lame);
        assert!(r.stats().lame > 0);
    }

    #[test]
    fn servfail_falls_back_to_healthy_ns() {
        // The fallback bugfix: one broken server in the NS set must not
        // sink the resolution while a healthy sibling exists.
        for bad in [
            ServerBehavior::ServFail,
            ServerBehavior::Lame,
            ServerBehavior::Truncated,
        ] {
            let (mut net, mut r, _h2) = build_two_ns_world();
            let srv = AuthServer::new(shared_zones([]));
            *write(&srv.behavior_handle()) = bad;
            net.bind(HOSTER_DNS_IP, 53, Box::new(srv));
            let res = r.resolve(&mut net, &name("example.ru"), RType::A).unwrap();
            assert_eq!(res.addresses(), vec![WEB_IP], "no fallback past {bad:?}");
        }
    }

    #[test]
    fn truncated_reply_counts_and_fails_alone() {
        let (mut net, mut r) = build_world();
        let srv = AuthServer::new(shared_zones([]));
        *write(&srv.behavior_handle()) = ServerBehavior::Truncated;
        net.bind(HOSTER_DNS_IP, 53, Box::new(srv));
        assert!(r.resolve(&mut net, &name("example.ru"), RType::A).is_err());
        assert!(r.stats().truncated > 0);
    }

    #[test]
    fn retry_budget_bounds_wasted_queries() {
        let (mut net, mut r, _h2) = build_two_ns_world();
        net.unbind(HOSTER_DNS_IP, 53);
        net.unbind(HOSTER_DNS2_IP, 53);
        r.retry_budget = 1;
        // Both NS of example.ru are dead; the second failure exceeds the
        // retry budget, so the walk stops instead of burning more timeouts.
        let err = r
            .resolve(&mut net, &name("example.ru"), RType::A)
            .unwrap_err();
        assert_eq!(err, ResolveError::BudgetExhausted);
        assert_eq!(r.stats().retries_spent, 2);
    }

    #[test]
    fn penalty_box_prefers_recovered_order_deterministically() {
        // Identical runs produce identical query counts and stats even with
        // health state in play.
        let run = || {
            let (mut net, mut r, h2) = build_two_ns_world();
            *write(&h2) = ServerBehavior::Silent;
            for _ in 0..4 {
                r.clear_cache();
                let _ = r.resolve(&mut net, &name("example.ru"), RType::A);
            }
            (r.queries_sent(), r.stats())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn penalty_box_reduces_wasted_queries_under_flapping() {
        // A flapping primary NS plus a healthy secondary: the hardened
        // resolver learns to prefer the healthy box, the naive one keeps
        // re-probing the flapper. Same world, same seed, same workload —
        // only the penalty box differs.
        let run = |hardened: bool| {
            let (mut net, mut r, _h2) = build_two_ns_world();
            r.penalty_box_enabled = hardened;
            net.faults_mut().add_server_fault(ServerFault {
                addr: HOSTER_DNS_IP,
                port: Some(53),
                // Long dead phases relative to the query cadence.
                mode: ServerFaultMode::Flapping {
                    period_us: 120_000_000,
                },
                window: FaultWindow::from(SimTime::ZERO),
            });
            let mut answered = 0u64;
            for _ in 0..12 {
                r.clear_cache();
                if r.resolve(&mut net, &name("example.ru"), RType::A).is_ok() {
                    answered += 1;
                }
            }
            (answered, r.stats().retries_spent, net.now().as_micros())
        };
        let (ok_naive, wasted_naive, time_naive) = run(false);
        let (ok_hard, wasted_hard, time_hard) = run(true);
        // The numbers below are quoted in EXPERIMENTS.md; run with
        // `--nocapture` to see them.
        println!(
            "flapping-NS comparison: naive {ok_naive}/12 answered, {wasted_naive} wasted, \
             {time_naive}us; hardened {ok_hard}/12 answered, {wasted_hard} wasted, {time_hard}us"
        );
        assert!(
            ok_hard >= ok_naive,
            "hardening lost answers: {ok_hard} < {ok_naive}"
        );
        assert!(
            wasted_hard < wasted_naive,
            "penalty box saved nothing: {wasted_hard} vs {wasted_naive} wasted queries"
        );
        assert!(
            time_hard < time_naive,
            "penalty box saved no time: {time_hard}us vs {time_naive}us"
        );
    }
}
