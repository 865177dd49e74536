//! OpenINTEL-style daily active DNS measurement.
//!
//! > "The DNS measurements were provided by the OpenINTEL project, which
//! > uses daily zone file snapshots as seeds to actively query all
//! > registered domain names under a TLD for a selection of DNS resource
//! > records. The collected data include each domain's NS records …, as
//! > well as the A record resolution for both their name servers and apex
//! > domain. We geolocate each of the resulting IP addresses, using
//! > contemporaneous results from the IP2location service." — §2
//!
//! # The parallel engine and its determinism contract
//!
//! The real OpenINTEL pipeline resolves millions of names per day by
//! fanning the seed list out over a worker cluster. This engine does the
//! same in miniature: the zone snapshot's seed list is cut into contiguous
//! shards ([`crate::shard::ShardPlan`]), one scoped thread per shard, and
//! shard outputs are concatenated back in shard order — reproducing
//! zone-snapshot order exactly.
//!
//! The hard requirement is that the merged sweep is **byte-identical for
//! any worker count**, faults included. Three mechanisms deliver it:
//!
//! 1. *Per-domain measurement lanes.* Each domain resolves on its own
//!    [`ruwhere_netsim::Lane`] keyed by `(date, domain)` and starting at
//!    the sweep base instant, so loss, jitter and fault windows for a
//!    domain are a pure function of the network snapshot and the key —
//!    never of which worker ran it or when. The key's `{date}/` start is
//!    hashed once per sweep ([`Network::lane_prefix`]).
//! 2. *Overlays over one frozen primed base.* A resolver resolves each
//!    TLD's NS set once (serially, before workers start) and is then
//!    [frozen](ruwhere_authdns::IterativeResolver::freeze) into a shared,
//!    read-only [`PrimedBase`]: its answers and cuts, its SRTT estimates
//!    with penalty boxes cleared, and its next query id. Each worker owns
//!    an [overlay](ruwhere_authdns::IterativeResolver::overlay) that reads
//!    its own entries first, then the base's, and writes only its own; it
//!    is [reset](ruwhere_authdns::IterativeResolver::reset) before every
//!    domain (own maps emptied with their capacity kept, counters zeroed,
//!    query id rewound). Every domain therefore starts from identical
//!    caches and server-health state regardless of shard assignment or of
//!    the domains its worker measured before, and the primed tables are
//!    never copied.
//! 3. *Exactly-once shared NS cache.* NS-target A lookups go through the
//!    shared, date-scoped [`crate::nscache::NsCache`]; an entry is
//!    computed once per sweep, on its own lane keyed by `(date,
//!    ns-name)` from a freshly reset overlay of its own (the lookup runs
//!    nested inside a domain's walk), and its query cost is charged
//!    exactly once, by the computing worker. Which worker computes is
//!    scheduling-dependent; the value and the summed counters are not.
//!    Each worker asks the shared cache once per host and keeps the
//!    answer in a host table of its own, a [`NameList`] whose positions
//!    are the host ids; a later lookup there counts as the cache hit it
//!    replaces, so the hit and miss totals are those of asking the
//!    shared cache every time.
//!
//! A worker's route memo, lane-key prefixes and host table live for one
//! sweep: they are pure functions of the network snapshot, which cannot
//! change while the workers borrow it.
//!
//! Every lane's cost — the warmup's, each NS-target fill's and each
//! domain's — is charged through one function into a ledger of
//! [`SweepStats`] plus transport counters and metrics. Ledgers merge
//! associatively (`virtual_elapsed_us` is the sum of all lane times — the
//! aggregate latency cost of the measurement), salvage classification
//! runs post-merge on the merged counters, and the network's global clock
//! advances to the deterministic maximum lane end.
//!
//! # The columnar data plane
//!
//! The engine's native output is a [`SweepFrame`] — the columnar
//! (struct-of-arrays) sweep representation from [`ruwhere_store`] —
//! built by [`OpenIntelScanner::sweep_frame`]. Symbol assignment follows
//! the store's determinism rules: the full seed list is interned
//! *serially, in zone-snapshot order, before any worker starts* (workers
//! carry each seed's symbol through to its record), and names/countries
//! discovered during measurement are interned by the sequential
//! post-merge frame-build pass, under one interner lock.

use crate::error::ScanError;
use crate::nscache::NsCache;
use crate::shard::ShardPlan;
use ruwhere_authdns::{
    AnswerRecord, IterativeResolver, NoDependencyCache, NsDependencyCache, PrimedBase,
    ResolveError, RootHint,
};
use ruwhere_dns::{Name, NameSlice, RType, MAX_NAME_LEN};
use ruwhere_netsim::{Lane, LanePrefix, NetStats, Network, Routes, SimTime};
use ruwhere_obs::Recorder;
use ruwhere_store::metrics::{fail_key, keys, SweepMetrics};
use ruwhere_store::{CountrySym, FrameBuilder, Interner, InternerWriter, SweepFrame, Sym};
use ruwhere_types::{Asn, DomainName, NameList, Named};
use ruwhere_world::World;
use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::sync::Arc;

pub use ruwhere_store::{Completeness, SweepStats};

/// Environment variable overriding the default sweep worker count.
pub const WORKERS_ENV: &str = "RUWHERE_WORKERS";

/// Environment variable supplying a default study checkpoint directory
/// (same precedence shape as [`WORKERS_ENV`]: an explicit
/// `--checkpoint-dir` flag beats the variable; a missing or empty
/// variable means no checkpointing).
pub const CHECKPOINT_DIR_ENV: &str = "RUWHERE_CHECKPOINT_DIR";

/// The checkpoint directory named by [`CHECKPOINT_DIR_ENV`], if the
/// variable is set and non-empty.
pub fn default_checkpoint_dir() -> Option<std::path::PathBuf> {
    std::env::var(CHECKPOINT_DIR_ENV)
        .ok()
        .map(|v| v.trim().to_owned())
        .filter(|v| !v.is_empty())
        .map(std::path::PathBuf::from)
}

/// Default worker count.
///
/// Precedence (documented in DESIGN.md §9): an explicit
/// [`SweepOptions::workers`] call beats everything; absent that, a
/// positive integer in `RUWHERE_WORKERS` beats the machine's available
/// parallelism; a missing or unparsable variable falls through to
/// `available_parallelism` (or 1 if even that is unknown). Output is
/// byte-identical for every value — the knob trades wall-clock time only.
pub fn available_workers() -> usize {
    if let Some(n) = std::env::var(WORKERS_ENV)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
    {
        return n;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Fraction of seeded domains whose NS resolution must fail before a
/// sweep is marked [`Completeness::Partial`] (the gap-salvage threshold).
const PARTIAL_THRESHOLD: f64 = 0.5;

/// Sweep-engine configuration, built fluently and handed to
/// [`OpenIntelScanner::with_options`].
///
/// A scanner's configuration is fixed at construction, so a long-lived
/// scanner cannot change semantics between sweeps of one experiment.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    workers: usize,
    interner: Option<Arc<Interner>>,
    panic_inject: Option<PanicInject>,
}

/// Deterministic worker-panic injection (crash-harness knob): panic
/// inside [`Worker::measure`] for domains whose name contains `marker`,
/// at most `budget` times across the scanner's lifetime.
#[derive(Debug, Clone)]
struct PanicInject {
    marker: String,
    budget: Arc<std::sync::atomic::AtomicU32>,
}

impl PanicInject {
    fn maybe_panic(&self, domain: &DomainName) {
        use std::sync::atomic::Ordering;
        if !self.marker.is_empty() && !domain.to_string().contains(&self.marker) {
            return;
        }
        if self
            .budget
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
            .is_ok()
        {
            panic!("injected worker panic while measuring {domain}");
        }
    }
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions::new()
    }
}

impl SweepOptions {
    /// Defaults: [`available_workers`] workers (which honors
    /// `RUWHERE_WORKERS`) and a fresh private symbol interner.
    pub fn new() -> Self {
        SweepOptions {
            workers: available_workers(),
            interner: None,
            panic_inject: None,
        }
    }

    /// Set the worker count (clamped to at least one). Takes precedence
    /// over the `RUWHERE_WORKERS` environment override.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Share an existing symbol [`Interner`] with the scanner. A study
    /// passes one interner to every scanner (and to the analysis engine)
    /// so symbols stay comparable across days; when unset, the scanner
    /// creates a private one.
    pub fn interner(mut self, interner: Arc<Interner>) -> Self {
        self.interner = Some(interner);
        self
    }

    /// Crash-injection knob: make the worker measuring any domain whose
    /// name contains `marker` panic, at most `times` times over the
    /// scanner's lifetime (an empty marker matches every domain). Drives
    /// the panic-isolation tests; the crash harness
    /// (`crates/bench/tests/crash_recovery.rs`) SIGKILLs `repro` instead.
    /// Panicked shards are retried once by the supervisor and degrade into
    /// a gap-aware partial sweep if lost for good — the study never aborts.
    pub fn inject_worker_panic(mut self, marker: &str, times: u32) -> Self {
        self.panic_inject = Some(PanicInject {
            marker: marker.to_owned(),
            budget: Arc::new(std::sync::atomic::AtomicU32::new(times)),
        });
        self
    }
}

/// One worker's raw (pre-annotation) measurements, as flat columns in
/// seed order: per domain its symbol and where its NS hosts and apex
/// addresses end in their columns, plus the worker's NS hosts, which the
/// host column numbers. A domain's NS addresses are the union of its
/// hosts'. Each column grows to its size once, however many domains the
/// worker measures.
#[derive(Default)]
struct ShardOut {
    /// Each seed's symbol, assigned by the serial seed pass.
    domains: Vec<Sym>,
    /// Per domain, the end of its run in `ns_hosts` and `apex_ips`; each
    /// run starts where the previous domain's ended.
    ends: Vec<[usize; 2]>,
    /// Ids into `hosts`, in answer order.
    ns_hosts: Vec<u32>,
    apex_ips: Vec<Ipv4Addr>,
    /// The worker's NS hosts, by id.
    hosts: Vec<NsHost>,
}

impl ShardOut {
    /// Close the current domain's runs.
    fn end_domain(&mut self, domain: Sym) {
        self.domains.push(domain);
        self.ends.push([self.ns_hosts.len(), self.apex_ips.len()]);
    }

    /// The measured domains in order: each symbol with its NS host ids
    /// and apex addresses.
    fn domains(&self) -> impl Iterator<Item = (Sym, &[u32], &[Ipv4Addr])> + '_ {
        let starts = std::iter::once([0; 2]).chain(self.ends.iter().copied());
        self.domains
            .iter()
            .zip(starts.zip(&self.ends))
            .map(|(&sym, (s, e))| (sym, &self.ns_hosts[s[0]..e[0]], &self.apex_ips[s[1]..e[1]]))
    }
}

/// An NS host a worker met: its spelling and its addresses, as the shared
/// cache holds them.
struct NsHost {
    name: DomainName,
    ips: Arc<[Ipv4Addr]>,
}

impl Named for NsHost {
    fn name(&self) -> &DomainName {
        &self.name
    }
}

/// Keep an A record's address.
fn take_a(rec: AnswerRecord<'_>, out: &mut Vec<Ipv4Addr>) {
    out.extend(rec.a());
}

/// Keep an NS record's target as wire bytes: its flat labels, then a
/// zero octet that ends it.
fn take_ns(rec: AnswerRecord<'_>, out: &mut Vec<u8>) {
    let mut buf = [0u8; MAX_NAME_LEN];
    if let Some(target) = rec.ns_target(&mut buf) {
        out.extend_from_slice(target.wire());
        out.push(0);
    }
}

/// The names [`take_ns`] kept in `wire`, in order.
fn kept_names(wire: &[u8]) -> impl Iterator<Item = &NameSlice> {
    let mut rest = wire;
    std::iter::from_fn(move || {
        let mut end = 0;
        while *rest.get(end)? != 0 {
            end += 1 + rest[end] as usize;
        }
        let name = NameSlice::try_from_wire(&rest[..end]).expect("kept from a validated name");
        rest = &rest[end + 1..];
        Some(name)
    })
}

/// A share of one sweep's cost — the warmup's, or one worker's: the sweep
/// counters, the lanes' transport counters and latest end instant, and
/// the observability section. Ledgers merge associatively post-join, so
/// the totals are independent of how domains were sharded.
#[derive(Default)]
struct Ledger {
    stats: SweepStats,
    net: NetStats,
    lane_end_us: u64,
    metrics: SweepMetrics,
}

impl Ledger {
    fn merge(&mut self, other: &Ledger) {
        self.stats.merge(&other.stats);
        self.net.merge(other.net);
        self.lane_end_us = self.lane_end_us.max(other.lane_end_us);
        self.metrics.merge(&other.metrics);
    }

    /// Lend the ledger's observability aggregates to a just-opened `lane`
    /// and a just-reset `resolver`, which record straight into them:
    /// threading one accumulator through every lane avoids a per-domain
    /// histogram allocation and merge, and every record is a commutative
    /// integer fold, so the totals are byte-identical either way.
    fn lend(&mut self, lane: &mut Lane<'_>, resolver: &mut IterativeResolver) {
        lane.install_obs(std::mem::take(&mut self.metrics.net));
        resolver.install_obs(std::mem::take(&mut self.metrics.resolver));
    }

    /// Charge everything `lane` and `resolver` spent since the
    /// [`lend`](Self::lend) that must precede this call, and take the lent
    /// aggregates back. The one place a lane's and a resolver's counters
    /// become sweep totals.
    fn charge(&mut self, lane: &mut Lane<'_>, resolver: &mut IterativeResolver) {
        let causes = resolver.stats();
        self.stats.queries += resolver.queries_sent();
        self.stats.timeouts += causes.timeouts;
        self.stats.servfails += causes.servfails;
        self.stats.lame += causes.lame;
        self.stats.retries_spent += causes.retries_spent;
        self.stats.virtual_elapsed_us += lane.elapsed_us();
        self.lane_end_us = self.lane_end_us.max(lane.now().as_micros());
        self.net.merge(lane.stats());
        self.metrics.net = lane.take_obs();
        self.metrics.resolver = resolver.take_obs();
    }
}

/// Shared, immutable per-sweep context handed to every worker: the
/// network snapshot, the frozen warmup-primed resolver base, the shared NS
/// cache and the sweep's lane-key prefixes, `{date}/` for domains and
/// `ns:{date}/` for NS hosts, each hashed once per sweep.
struct SweepCtx<'a> {
    net: &'a Network,
    primed: &'a Arc<PrimedBase>,
    cache: &'a NsCache,
    domain_keys: LanePrefix,
    ns_keys: LanePrefix,
    panic_inject: Option<&'a PanicInject>,
}

/// The sweep's [`NsDependencyCache`] implementation, one per worker:
/// routes the resolver's internal out-of-bailiwick NS-target A lookups
/// and the domains' NS hosts through the worker's host table, which asks
/// the shared sweep cache once per host, so each hoster name server
/// resolves exactly once per sweep instead of once per customer domain.
/// A miss resolves on the worker's second overlay and route memo (the
/// domain's own are mid-walk) and charges the worker's second ledger (the
/// domain's own has its aggregates lent to the domain's lane); hit/miss
/// counts land there too, and it folds into the worker's shard totals
/// once at the end.
struct SharedDeps<'a> {
    ctx: &'a SweepCtx<'a>,
    ns_resolver: RefCell<IterativeResolver>,
    ledger: RefCell<Ledger>,
    routes: RefCell<Routes>,
    /// The NS hosts the worker has met this sweep, in first-sight order:
    /// a host's id is its position.
    hosts: RefCell<NameList<NsHost>>,
}

impl<'a> SharedDeps<'a> {
    fn new(ctx: &'a SweepCtx<'a>) -> Self {
        SharedDeps {
            ctx,
            ns_resolver: RefCell::new(IterativeResolver::overlay(ctx.primed)),
            ledger: RefCell::default(),
            routes: RefCell::default(),
            hosts: RefCell::default(),
        }
    }

    /// The id of NS host `name` in the worker's table, which asks the
    /// shared cache at the host's first sight. Each call counts one cache
    /// hit or miss, as a lookup in the shared cache would, so the totals
    /// do not depend on the worker count; a miss also charges its cost
    /// into this ledger. `None` for a name with no hostname spelling.
    fn lookup(&self, name: &NameSlice) -> Option<u32> {
        let known = self.hosts.borrow().position(name.labels());
        if let Some(id) = known {
            self.ledger.borrow_mut().stats.ns_cache_hits += 1;
            return Some(id as u32);
        }
        let hit = self.ctx.cache.get_or_compute(name, |ns| {
            resolve_ns_target(
                self.ctx,
                &mut self.ns_resolver.borrow_mut(),
                &mut self.ledger.borrow_mut(),
                &mut self.routes.borrow_mut(),
                name,
                ns,
            )
        })?;
        let stats = &mut self.ledger.borrow_mut().stats;
        if hit.computed {
            stats.ns_cache_misses += 1;
        } else {
            stats.ns_cache_hits += 1;
        }
        let id = self.hosts.borrow_mut().insert(NsHost {
            name: hit.host,
            ips: hit.ips,
        });
        Some(id as u32)
    }
}

impl NsDependencyCache for SharedDeps<'_> {
    fn ns_target_a(&self, name: &NameSlice) -> Option<Arc<[Ipv4Addr]>> {
        // A name with no hostname spelling has no lane key: resolve it
        // inline.
        let id = self.lookup(name)?;
        let hosts = self.hosts.borrow();
        let ips = &hosts.items()[id as usize].ips;
        if ips.is_empty() {
            // The one-shot central resolution failed (its lane drew bad
            // loss). Don't condemn every domain behind this host to the
            // same draw — fall back to inline resolution on the calling
            // domain's own lane, mirroring how a stand-alone resolver
            // retries transient failures.
            return None;
        }
        Some(Arc::clone(ips))
    }
}

/// One measurement-level retry on *transient* resolution errors
/// (timeout / SERVFAIL / budget exhaustion), on the same lane with the
/// same resolver. The pipeline's retry policy: a failed walk leaves the
/// resolver's cut cache deepened, so the retry resumes at the failed
/// stage and re-rolls only that exchange — cheap, and deterministic
/// because the lane's loss stream is a pure function of its key and
/// consumed sequence. Persistent failures (NXDOMAIN, lame delegations,
/// dead server sets) are negative-cached by the resolver, so retrying
/// them is a free no-op and we don't special-case them here.
///
/// The answer's records go to `out` through `take` as they arrive. An
/// attempt that fails takes back whatever it had delivered, so on `Err`
/// `out` holds what it held before.
fn resolve_with_retry<T: ruwhere_netsim::Transport, V>(
    resolver: &mut IterativeResolver,
    lane: &mut T,
    qname: &NameSlice,
    rtype: RType,
    deps: &dyn NsDependencyCache,
    out: &mut Vec<V>,
    take: fn(AnswerRecord<'_>, &mut Vec<V>),
) -> Result<(), ResolveError> {
    let mark = out.len();
    let mut attempt = |out: &mut Vec<V>| {
        let result = resolver.resolve_into(lane, qname, rtype, deps, &mut |rec| take(rec, out));
        if result.is_err() {
            out.truncate(mark);
        }
        result
    };
    match attempt(out) {
        Err(ResolveError::Timeout | ResolveError::ServFail | ResolveError::BudgetExhausted) => {
            attempt(out)
        }
        r => r,
    }
}

/// Resolve one NS-target host (`name`, spelled `ns`) to addresses on its
/// own `(date, ns)` lane, lent `routes`, with a freshly reset overlay — a
/// pure function of the sweep-start snapshot, so the cached value is
/// identical no matter which worker computes it — and charge its cost to
/// `ledger`.
fn resolve_ns_target(
    ctx: &SweepCtx<'_>,
    resolver: &mut IterativeResolver,
    ledger: &mut Ledger,
    routes: &mut Routes,
    name: &NameSlice,
    ns: &DomainName,
) -> Vec<Ipv4Addr> {
    let mut lane = ctx
        .net
        .lane_with(&ctx.ns_keys, ns.as_str(), std::mem::take(routes));
    resolver.reset();
    ledger.lend(&mut lane, resolver);
    let mut ips = Vec::new();
    // A failure leaves `ips` empty.
    let _ = resolve_with_retry(
        resolver,
        &mut lane,
        name,
        RType::A,
        &NoDependencyCache,
        &mut ips,
        take_a,
    );
    ledger.charge(&mut lane, resolver);
    *routes = lane.into_routes();
    ips
}

/// One sweep worker, with everything it keeps for exactly one sweep: its
/// overlay resolver and ledger, the route memo every domain's lane
/// borrows, its NS-host table (in `deps`) and its output columns. The
/// memo and the table are pure functions of the network snapshot, which
/// cannot change while the worker borrows it, and they go with the worker
/// when its shard ends.
struct Worker<'a> {
    resolver: IterativeResolver,
    ledger: Ledger,
    routes: Routes,
    /// The NS targets of the domain being measured, as wire bytes.
    targets: Vec<u8>,
    deps: SharedDeps<'a>,
    out: ShardOut,
}

impl<'a> Worker<'a> {
    fn new(ctx: &'a SweepCtx<'a>) -> Self {
        Worker {
            resolver: IterativeResolver::overlay(ctx.primed),
            ledger: Ledger::default(),
            routes: Routes::default(),
            targets: Vec::new(),
            deps: SharedDeps::new(ctx),
            out: ShardOut::default(),
        }
    }

    /// Measure `seeds`, whose symbols are `syms`, in order: the shard's
    /// output and its whole cost.
    fn run(mut self, seeds: &[DomainName], syms: &[Sym]) -> (ShardOut, Ledger) {
        self.out.domains.reserve(seeds.len());
        self.out.ends.reserve(seeds.len());
        for (domain, &sym) in seeds.iter().zip(syms) {
            self.measure(domain, sym);
        }
        self.ledger.merge(&self.deps.ledger.into_inner());
        self.out.hosts = self.deps.hosts.into_inner().into_items();
        (self.out, self.ledger)
    }

    /// Measure one domain into the output columns: NS set, NS hosts
    /// (through the host table), apex A — all on the domain's own `(date,
    /// domain)` lane with the worker's overlay resolver, reset first,
    /// charged to the worker's ledger. Answers are read in place from the
    /// replies into the columns, with the NS targets staged as wire bytes
    /// until the NS walk has returned. Failure latencies are recorded per
    /// cause into the ledger's metric section; the span clock is the
    /// lane's virtual time, so the recorded values are as deterministic
    /// as the measurement itself.
    fn measure(&mut self, domain: &DomainName, sym: Sym) {
        let ctx = self.deps.ctx;
        if let Some(inject) = ctx.panic_inject {
            inject.maybe_panic(domain);
        }
        let mut lane = ctx.net.lane_with(
            &ctx.domain_keys,
            domain.as_str(),
            std::mem::take(&mut self.routes),
        );
        let resolver = &mut self.resolver;
        let ledger = &mut self.ledger;
        let out = &mut self.out;
        resolver.reset();
        ledger.lend(&mut lane, resolver);
        let mut qbuf = [0u8; MAX_NAME_LEN];
        let qname = NameSlice::from_labels_into(domain.labels(), &mut qbuf)
            .expect("DomainName invariants imply a valid wire name");

        let ns_span = Recorder::span(lane.elapsed_us());
        self.targets.clear();
        if let Err(e) = resolve_with_retry(
            resolver,
            &mut lane,
            qname,
            RType::Ns,
            &self.deps,
            &mut self.targets,
            take_ns,
        ) {
            let key = fail_key(ScanError::from(e).category());
            ns_span.end(&mut ledger.metrics.causes, key, lane.elapsed_us());
        }
        // NS hosts with a hostname spelling, each looked up (and spelled)
        // once per sweep through the host table and the shared cache, in
        // answer order, once the walk is over: a lookup fills the cache,
        // so none may run for a walk that later fails.
        let ns_start = out.ns_hosts.len();
        for name in kept_names(&self.targets) {
            // A miss is charged to the deps ledger: this one's aggregates
            // are lent to the domain's lane and resolver right now.
            if let Some(id) = self.deps.lookup(name) {
                out.ns_hosts.push(id);
            }
        }
        let found_ns = out.ns_hosts.len() > ns_start;
        if !found_ns {
            ledger.stats.ns_failures += 1;
        }

        let apex_span = Recorder::span(lane.elapsed_us());
        let apex_start = out.apex_ips.len();
        if let Err(e) = resolve_with_retry(
            resolver,
            &mut lane,
            qname,
            RType::A,
            &self.deps,
            &mut out.apex_ips,
            take_a,
        ) {
            let key = fail_key(ScanError::from(e).category());
            apex_span.end(&mut ledger.metrics.causes, key, lane.elapsed_us());
        }
        if out.apex_ips.len() == apex_start {
            ledger.stats.apex_failures += 1;
        }

        ledger.charge(&mut lane, resolver);
        if found_ns {
            ledger.metrics.causes.record(keys::OK_US, lane.elapsed_us());
        }
        out.end_domain(sym);
        self.routes = lane.into_routes();
    }
}

/// A shard's NS host in the frame build: its symbol, interned at its
/// first sight in record order, and where its addresses sit among the
/// shard's address notes.
struct HostSlot {
    sym: Sym,
    addrs: std::ops::Range<usize>,
}

/// An NS address in the frame build, with its country and origin AS once
/// a record first needs them.
type AddrNote = (Ipv4Addr, Option<(CountrySym, Option<Asn>)>);

/// Degrade a twice-panicked shard into gap records: every domain in the
/// range becomes an empty record counted as an NS *and* apex failure
/// under the `worker_lost` cause, feeding the same per-cause salvage
/// path an outage day uses. Whatever the dead worker had measured is
/// gone — the gap is explicit, never silently half-reported.
fn lost_shard_output(range: std::ops::Range<usize>, syms: &[Sym]) -> (ShardOut, Ledger) {
    let mut ledger = Ledger::default();
    let mut out = ShardOut::default();
    let lost_key = fail_key(ScanError::WorkerLost.category());
    for &sym in &syms[range] {
        ledger.stats.ns_failures += 1;
        ledger.stats.apex_failures += 1;
        // No lane ran for this record: the loss is an accounting
        // event, recorded at zero virtual time.
        ledger.metrics.causes.record(lost_key, 0);
        out.end_domain(sym);
    }
    ledger
        .metrics
        .causes
        .add(keys::DOMAINS_LOST, out.domains.len() as u64);
    (out, ledger)
}

/// The sweep engine. Owns the measurement vantage (client address and root
/// hints), the worker-count knob and the shared NS-target cache; create
/// once, call [`OpenIntelScanner::sweep_frame`] per measurement day.
pub struct OpenIntelScanner {
    client_ip: Ipv4Addr,
    roots: Vec<RootHint>,
    opts: SweepOptions,
    ns_cache: NsCache,
    interner: Arc<Interner>,
    total_queries: u64,
}

impl OpenIntelScanner {
    /// Build a scanner homed at the world's measurement vantage with
    /// default [`SweepOptions`].
    pub fn new(world: &World) -> Self {
        Self::with_options(world, SweepOptions::new())
    }

    /// Build a scanner with explicit options.
    pub fn with_options(world: &World, opts: SweepOptions) -> Self {
        let interner = opts
            .interner
            .clone()
            .unwrap_or_else(|| Arc::new(Interner::new()));
        OpenIntelScanner {
            client_ip: world.scanner_ip(),
            roots: world.root_hints(),
            opts,
            ns_cache: NsCache::new(),
            interner,
            total_queries: 0,
        }
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.opts.workers
    }

    /// The shared NS-target cache (diagnostics/tests).
    pub fn ns_cache(&self) -> &NsCache {
        &self.ns_cache
    }

    /// The scanner's symbol interner (shared when
    /// [`SweepOptions::interner`] supplied one).
    pub fn interner(&self) -> &Arc<Interner> {
        &self.interner
    }

    /// Run one full sweep at the world's current date, producing the
    /// native columnar frame.
    ///
    /// Publishes today's TLD zones, rebinds the NS cache to the day (a
    /// new measurement day re-observes everything), interns the seed list
    /// ([`World::seed_names`]: the registry's zone file, shared out of
    /// band as in paper §2) in zone-snapshot order — the
    /// symbol-determinism anchor —, primes a fresh resolver on the TLD
    /// cuts and freezes it, then fans the seed list out over the worker
    /// pool and merges shard outputs deterministically.
    pub fn sweep_frame(&mut self, world: &mut World) -> SweepFrame {
        let date = world.today();
        world.publish_tld_zones();
        self.ns_cache.begin_sweep(date);
        let seeds = world.seed_names();

        // Symbol determinism rule 1: intern every seed serially, in
        // zone-snapshot order, before any worker exists — domain symbols
        // are a pure function of the zone snapshot, never of sharding or
        // salvage.
        let syms: Vec<Sym> = {
            let mut symbols = self.interner.writer();
            seeds.iter().map(|seed| symbols.intern_name(seed)).collect()
        };

        // Warmup: prime one resolver on the TLD cuts, serially, before any
        // worker exists, then freeze it. Every domain resolves on an
        // overlay over this frozen base, so per-domain state is identical
        // for any sharding.
        //
        // Walking each TLD's NS query plants the TLD cut (from the root's
        // referral) in the primed cut cache, so every domain starts one
        // referral deep instead of at the root. Where a TLD zone publishes
        // an apex NS RRset we additionally resolve the server addresses
        // and seed the cut with the complete rotation; zones that answer
        // NoData at the apex keep the referral glue.
        let mut primed = IterativeResolver::new(self.client_ip, self.roots.clone());
        let mut total = Ledger::default();
        {
            let net = world.network();
            let mut lane = net.lane(format_args!("{date}/warmup"));
            total.lend(&mut lane, &mut primed);
            let mut tlds: Vec<&str> = seeds.iter().map(|d| d.tld()).collect();
            tlds.sort_unstable();
            tlds.dedup();
            for tld in tlds {
                let Ok(tld_name) = Name::from_labels([tld]) else {
                    continue;
                };
                let targets = match primed.resolve(&mut lane, &tld_name, RType::Ns) {
                    Ok(res) => res.ns_targets(),
                    Err(_) => Vec::new(),
                };
                let mut addrs: Vec<Ipv4Addr> = Vec::new();
                for t in &targets {
                    if let Ok(res) = primed.resolve(&mut lane, t, RType::A) {
                        addrs.extend(res.addresses());
                    }
                }
                addrs.sort_unstable();
                addrs.dedup();
                primed.seed_cut(tld_name, addrs);
            }
            total.charge(&mut lane, &mut primed);
        }
        let primed = primed.freeze();

        // Fan out: contiguous shards, one scoped worker each, merged back
        // in shard order (= zone-snapshot order). Each worker carries its
        // own ledger (counters AND metric section); ledgers merge
        // associatively, so the merged totals are byte-identical for any
        // worker count.
        //
        // Workers are panic-isolated: a panicked shard is detected at the
        // supervised join (no `.expect` abort), retried once inline, and
        // — if it panics again — degraded into per-domain `worker_lost`
        // gap records that flow into the partial-sweep salvage path
        // below. A worker bug costs records, never the whole study.
        let plan = ShardPlan::new(seeds.len(), self.opts.workers);
        let net = world.network();
        let ctx = SweepCtx {
            net,
            primed: &primed,
            cache: &self.ns_cache,
            domain_keys: net.lane_prefix(format_args!("{date}/")),
            ns_keys: net.lane_prefix(format_args!("ns:{date}/")),
            panic_inject: self.opts.panic_inject.as_ref(),
        };
        let ctx_ref = &ctx;
        let seeds_ref = &seeds;
        let syms_ref = &syms;
        let run_range = |range: std::ops::Range<usize>| {
            Worker::new(ctx_ref).run(&seeds_ref[range.clone()], &syms_ref[range])
        };
        let run_range = &run_range;
        type ShardResult = Result<(ShardOut, Ledger), std::ops::Range<usize>>;
        let joined: Vec<ShardResult> = std::thread::scope(|s| {
            let handles: Vec<_> = plan
                .ranges()
                .iter()
                .cloned()
                .map(|range| (range.clone(), s.spawn(move || run_range(range))))
                .collect();
            handles
                .into_iter()
                .map(|(range, h)| h.join().map_err(|_| range))
                .collect()
        });

        let mut shard_outputs: Vec<(ShardOut, Ledger)> = Vec::with_capacity(joined.len());
        for res in joined {
            match res {
                Ok(out) => shard_outputs.push(out),
                Err(range) => {
                    // Supervisor: re-run the lost shard once, inline.
                    // Per-domain lanes make the re-run deterministic;
                    // only NS-cache cost accounting can differ (entries
                    // the dead worker filled stay filled, their cost
                    // charged to no one).
                    let retried = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        run_range(range.clone())
                    }));
                    match retried {
                        Ok(out) => {
                            total.stats.shards_retried += 1;
                            shard_outputs.push(out);
                        }
                        Err(_) => {
                            total.stats.shards_lost += 1;
                            shard_outputs.push(lost_shard_output(range, syms_ref));
                        }
                    }
                }
            }
        }

        for (_, ledger) in &shard_outputs {
            total.merge(ledger);
        }
        total.stats.seeded = seeds.len() as u64;
        let Ledger {
            mut stats,
            net,
            lane_end_us,
            metrics: mut total_metrics,
        } = total;
        self.total_queries += stats.queries;

        // The world's clock advances to the deterministic end of the
        // slowest lane, and the lanes' transport counters fold into the
        // network's globals.
        world
            .network_mut()
            .advance_to_time(SimTime::ZERO.plus_us(lane_end_us));
        world.network_mut().absorb_lane_stats(net);

        // Integer parts-per-million: the exported metric file carries no
        // floats.
        if let Some(ppm) = (stats.ns_failures * 1_000_000).checked_div(stats.seeded) {
            total_metrics.causes.add(keys::SALVAGE_NS_FAILURE_PPM, ppm);
        }
        if stats.shards_retried > 0 {
            total_metrics
                .causes
                .add(keys::SHARDS_RETRIED, stats.shards_retried);
        }
        if stats.shards_lost > 0 {
            total_metrics
                .causes
                .add(keys::SHARDS_LOST, stats.shards_lost);
        }
        // Gap salvage: a day where most NS resolutions failed is not a
        // usable full snapshot (the real pipeline records such days as
        // gaps, cf. the 2021-03-22 .ru outage in Figure 1). Keep whatever
        // actually measured, drop the rest (in the frame build below), and
        // flag the sweep partial so downstream analyses can impute rather
        // than misread the dip as mass domain deletion. Decided on merged
        // counters, so the classification is worker-count-independent too.
        let partial =
            stats.seeded > 0 && stats.ns_failures as f64 / stats.seeded as f64 > PARTIAL_THRESHOLD;
        if partial {
            stats.completeness = Completeness::Partial;
            total_metrics.causes.incr(keys::SALVAGE_PARTIAL);
        }

        // Frame build: annotation pass (immutable world reads) fused with
        // the columnar write. Runs sequentially over the shards' columns in
        // zone-snapshot order — symbol determinism rule 2: NS host names
        // and countries first seen this sweep are interned here, never
        // from inside a worker, under one interner lock.
        //
        // Each shard's NS host is interned at its first sight and each of
        // its addresses annotated where a record's NS addresses first hold
        // it. That is the first of the calls that interning every record's
        // names, then its addresses, in order would make for that name or
        // address, so every new symbol gets the number that order gives.
        let geo = world.geo().snapshot_at(date);
        let topo = world.network().topology();
        let annotate = |symbols: &mut InternerWriter<'_>, ip| {
            let country = symbols.intern_country(geo.and_then(|g| g.lookup(ip)));
            (country, topo.asn_of(ip))
        };
        let mut symbols = self.interner.writer();
        let mut builder = FrameBuilder::new(date);
        builder.reserve(seeds.len());
        let mut dropped = 0u64;
        let mut slots: Vec<Option<HostSlot>> = Vec::new();
        let mut notes: Vec<AddrNote> = Vec::new();
        // A record's NS addresses, the union of its hosts', each with its
        // note.
        let mut ns_addrs: Vec<(Ipv4Addr, usize)> = Vec::new();
        for (out, _) in &shard_outputs {
            slots.clear();
            slots.resize_with(out.hosts.len(), || None);
            notes.clear();
            for (domain, ns_hosts, apex_ips) in out.domains() {
                let unmeasured = apex_ips.is_empty()
                    && ns_hosts
                        .iter()
                        .all(|&h| out.hosts[h as usize].ips.is_empty());
                if partial && unmeasured {
                    dropped += 1;
                    continue;
                }
                builder.begin_record(domain);
                ns_addrs.clear();
                for &h in ns_hosts {
                    let host = &out.hosts[h as usize];
                    let slot = slots[h as usize].get_or_insert_with(|| {
                        let start = notes.len();
                        notes.extend(host.ips.iter().map(|&ip| (ip, None)));
                        HostSlot {
                            sym: symbols.intern_name(&host.name),
                            addrs: start..notes.len(),
                        }
                    });
                    builder.push_ns_name(slot.sym);
                    ns_addrs.extend(slot.addrs.clone().map(|i| (notes[i].0, i)));
                }
                ns_addrs.sort_unstable_by_key(|a| a.0);
                ns_addrs.dedup_by_key(|a| a.0);
                for &(ip, i) in &ns_addrs {
                    let note = &mut notes[i].1;
                    let (country, asn) = *note.get_or_insert_with(|| annotate(&mut symbols, ip));
                    builder.push_ns_addr(ip, country, asn);
                }
                for &ip in apex_ips {
                    let (country, asn) = annotate(&mut symbols, ip);
                    builder.push_apex_addr(ip, country, asn);
                }
                builder.end_record();
            }
        }
        if partial {
            total_metrics.causes.add(keys::SALVAGE_DROPPED, dropped);
        }
        builder.finish(stats, total_metrics)
    }

    /// Total queries the scanner has sent since construction (summed over
    /// all sweeps, warmup and cache fills included).
    pub fn queries_sent(&self) -> u64 {
        self.total_queries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruwhere_world::WorldConfig;

    #[test]
    fn sweep_measures_tiny_world() {
        let mut world = World::new(WorldConfig::tiny());
        let mut scanner = OpenIntelScanner::new(&world);
        let sweep = scanner.sweep_frame(&mut world);

        assert_eq!(sweep.date, world.today());
        assert_eq!(sweep.len() as u64, sweep.stats.seeded);
        assert!(sweep.stats.seeded > 400);
        // The overwhelming majority of a healthy world resolves.
        let resolved = sweep.records().filter(|r| r.has_ns_data()).count();
        assert!(
            resolved as f64 > sweep.len() as f64 * 0.95,
            "only {resolved}/{} resolved",
            sweep.len()
        );
        // Annotations are present.
        let apex = &sweep.apex_addrs;
        let with_geo = apex
            .countries
            .iter()
            .zip(&apex.asns)
            .filter(|(c, a)| !c.is_none() && a.is_some())
            .count();
        assert!(with_geo > 0);
        assert!(sweep.stats.queries > 0);
        // The sweep consumed virtual time (network latency is being paid).
        assert!(sweep.stats.virtual_elapsed_us > 0);
        // The shared NS cache deduplicated hoster name servers.
        assert!(sweep.stats.ns_cache_hits > 0);
        assert!(sweep.stats.ns_cache_misses > 0);
        assert!(sweep.stats.ns_cache_hits + sweep.stats.ns_cache_misses >= sweep.stats.seeded);
        // The metrics section observed the sweep: every delivered packet
        // left a delay sample, every resolved exchange an SRTT sample.
        assert!(sweep.metrics.net.delay_us.count() > 0);
        assert!(sweep.metrics.resolver.srtt_us.count() > 0);
        assert!(sweep.metrics.resolver.deps_cache_hits > 0);
        assert!(
            sweep.metrics.causes.histogram(keys::OK_US).unwrap().count()
                >= sweep.stats.seeded - sweep.stats.ns_failures
        );
    }

    #[test]
    fn sweep_matches_ground_truth_for_sample() {
        let mut world = World::new(WorldConfig::tiny());
        let mut scanner = OpenIntelScanner::new(&world);
        let sweep = scanner.sweep_frame(&mut world);
        let snap = scanner.interner().snapshot();

        let mut checked = 0;
        for rec in sweep.records().take(50) {
            let domain = snap.name(rec.domain_sym());
            if let Some(truth) = world.domain_state(domain) {
                if rec.has_apex_data() {
                    let measured = rec.apex_addrs().ips();
                    assert!(
                        measured.contains(&truth.hosting.primary_ip),
                        "{domain}: measured {measured:?}, truth {}",
                        truth.hosting.primary_ip
                    );
                    checked += 1;
                }
            }
        }
        assert!(checked > 20, "too few ground-truth comparisons: {checked}");
    }

    #[test]
    fn consecutive_sweeps_observe_change() {
        let mut world = World::new(WorldConfig::tiny());
        let mut scanner = OpenIntelScanner::new(&world);
        let s1 = scanner.sweep_frame(&mut world);
        world.advance_to(world.today().add_days(30));
        let s2 = scanner.sweep_frame(&mut world);
        assert_eq!(s2.date - s1.date, 30);
        // Churn means the seed sets differ a little (one scanner, one
        // interner: equal symbols mean equal names).
        let set1: std::collections::HashSet<_> = s1.domains.iter().collect();
        let set2: std::collections::HashSet<_> = s2.domains.iter().collect();
        assert!(set1 != set2, "thirty days without any churn is implausible");
    }

    #[test]
    fn worker_count_does_not_change_output() {
        let sweep_with = |workers: usize| {
            let mut world = World::new(WorldConfig::tiny());
            let mut scanner =
                OpenIntelScanner::with_options(&world, SweepOptions::new().workers(workers));
            let frame = scanner.sweep_frame(&mut world);
            (frame, scanner.interner().dump())
        };
        let (serial, serial_dump) = sweep_with(1);
        let (parallel, parallel_dump) = sweep_with(4);
        assert_eq!(serial_dump, parallel_dump, "symbol tables diverged");
        assert_eq!(serial, parallel, "4-worker sweep diverged from 1-worker");
        // The embedded metric sections (histograms, link tables, cause
        // recorders) are equal too — and render to byte-identical JSON.
        assert_eq!(serial.metrics, parallel.metrics);
        assert_eq!(serial.metrics.render_json(), parallel.metrics.render_json());
    }

    #[test]
    fn shared_interner_numbers_seeds_first() {
        let mut world = World::new(WorldConfig::tiny());
        let interner = Arc::new(Interner::new());
        let mut scanner =
            OpenIntelScanner::with_options(&world, SweepOptions::new().interner(interner.clone()));
        let frame = scanner.sweep_frame(&mut world);
        assert!(Arc::ptr_eq(scanner.interner(), &interner));
        // Seeds occupy the first symbols in zone-snapshot order; NS hosts
        // discovered during measurement come after.
        let seeds = world.seed_names();
        for (i, seed) in seeds.iter().enumerate() {
            assert_eq!(interner.name_sym(seed), Some(ruwhere_store::Sym(i as u32)));
        }
        assert!(interner.names_len() > seeds.len());
        assert_eq!(frame.domains.len() as u64, frame.stats.seeded);
    }

    /// Run `f` with the default panic hook silenced, so deliberately
    /// injected worker panics don't spray backtraces over test output.
    fn with_quiet_panics<T>(f: impl FnOnce() -> T) -> T {
        static QUIET: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _guard = ruwhere_types::sync::lock(&QUIET);
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = f();
        std::panic::set_hook(prev);
        out
    }

    #[test]
    fn panicked_shard_is_retried_and_sweep_recovers() {
        let sweep = with_quiet_panics(|| {
            let mut world = World::new(WorldConfig::tiny());
            // One injected panic: the worker dies, the supervisor's
            // single retry succeeds, and the sweep completes fully.
            let mut scanner = OpenIntelScanner::with_options(
                &world,
                SweepOptions::new().workers(2).inject_worker_panic("", 1),
            );
            scanner.sweep_frame(&mut world)
        });
        assert_eq!(sweep.stats.shards_retried, 1);
        assert_eq!(sweep.stats.shards_lost, 0);
        assert_eq!(sweep.stats.completeness, Completeness::Full);
        assert_eq!(sweep.len() as u64, sweep.stats.seeded);
        let resolved = sweep.records().filter(|r| r.has_ns_data()).count();
        assert!(resolved as f64 > sweep.len() as f64 * 0.95);
        assert_eq!(sweep.metrics.causes.counter(keys::SHARDS_RETRIED), 1);
    }

    #[test]
    fn twice_panicked_shards_degrade_into_a_gap_not_an_abort() {
        let sweep = with_quiet_panics(|| {
            let mut world = World::new(WorldConfig::tiny());
            // Unlimited panics on every domain: both workers die, both
            // retries die — the whole day degrades into worker-lost gap
            // records and a salvaged partial sweep, but the call returns.
            let mut scanner = OpenIntelScanner::with_options(
                &world,
                SweepOptions::new()
                    .workers(2)
                    .inject_worker_panic("", u32::MAX),
            );
            scanner.sweep_frame(&mut world)
        });
        assert_eq!(sweep.stats.shards_lost, 2);
        assert_eq!(sweep.stats.completeness, Completeness::Partial);
        assert_eq!(sweep.stats.ns_failures, sweep.stats.seeded);
        // Salvage drops the empty gap records: nothing measured that day.
        assert!(sweep.is_empty());
        let lost = sweep
            .metrics
            .causes
            .histogram(fail_key(ScanError::WorkerLost.category()))
            .map(|h| h.count())
            .unwrap_or(0);
        assert_eq!(lost, sweep.stats.seeded);
        assert_eq!(
            sweep.metrics.causes.counter(keys::DOMAINS_LOST),
            sweep.stats.seeded
        );
    }

    #[test]
    fn checkpoint_dir_env_is_parsed_like_workers() {
        // Process-global env var: set/remove under one test to avoid
        // cross-test races (cargo runs tests in threads).
        assert_eq!(CHECKPOINT_DIR_ENV, "RUWHERE_CHECKPOINT_DIR");
        assert!(default_checkpoint_dir().is_none() || std::env::var(CHECKPOINT_DIR_ENV).is_ok());
    }

    #[test]
    fn ns_cache_is_rebound_per_sweep_date() {
        let mut world = World::new(WorldConfig::tiny());
        let mut scanner = OpenIntelScanner::new(&world);
        scanner.sweep_frame(&mut world);
        let d1 = scanner.ns_cache().date();
        assert_eq!(d1, Some(world.today()));
        let filled = scanner.ns_cache().len();
        assert!(filled > 0, "sweep must populate the NS cache");
        world.advance_to(world.today().add_days(1));
        scanner.sweep_frame(&mut world);
        assert_eq!(scanner.ns_cache().date(), Some(world.today()));
        assert_ne!(d1, scanner.ns_cache().date());
    }
}
