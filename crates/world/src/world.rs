//! The [`World`]: construction and the daily evolution driver.

use crate::catalog::{
    self, ca as caid, pid, plan as planidx, CaId, CaSpec, DnsPlanSpec, PlanId, ProviderId,
    ProviderSpec, VANITY_EXOTIC_SHARE, VANITY_OWN_SHARE,
};
use crate::config::WorldConfig;
use crate::domain_state::{DnsPlan, DomainState, HostingPlan, TlsProfile};
use crate::timeline::{ConflictEvent, FaultTarget, InfraFault, Timeline};
use crate::tls::{ChainSummary, ServingMap, TlsEndpoint, TLS_PORT};
use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::Rng;
use ruwhere_authdns::{AuthServer, RootHint, SharedZoneSet, ZoneSet};
use ruwhere_ct::revocation::RevocationReason;
use ruwhere_ct::{CaPolicy, CertificateAuthority, CtLog, OcspResponder};
use ruwhere_dns::{Name, RData, Record, SoaData, Zone};
use ruwhere_geo::{GeoDbBuilder, LongitudinalGeoDb};
use ruwhere_netsim::{
    AsInfo, FaultWindow, IpAllocator, Ipv4Net, Network, ServerFault, ServerFaultMode, SimTime,
    Topology,
};
use ruwhere_registry::{Delegation, NameGenerator, Registry, SanctionSource, SanctionsList};
use ruwhere_types::sync::{read, write};
use ruwhere_types::{Date, DomainName, Period, SeedTree, CONFLICT_START};
use std::collections::{BTreeMap, HashMap};
use std::net::Ipv4Addr;
use std::sync::{Arc, RwLock};

/// DNS port.
const DNS_PORT: u16 = 53;
/// WHOIS port.
const WHOIS_PORT: u16 = ruwhere_registry::WHOIS_PORT;
/// Zone-transfer service port (AXFR-over-TCP analogue).
pub const XFR_PORT: u16 = 10053;
/// Zone-transfer chunk payload size in bytes.
pub const XFR_CHUNK: usize = 3000;
/// Daily probability a sanctioned domain obtains a certificate ("testing
/// different CAs", §4.2).
const SANCTIONED_DAILY_ISSUE: f64 = 0.012;

/// A set with O(1) add / remove / uniform sampling, used for plan and
/// hosting membership.
#[derive(Debug, Default, Clone)]
pub struct MemberSet {
    items: Vec<DomainName>,
    pos: HashMap<DomainName, usize>,
}

impl MemberSet {
    /// Insert; no-op if present.
    pub fn add(&mut self, d: DomainName) {
        if self.pos.contains_key(&d) {
            return;
        }
        self.pos.insert(d.clone(), self.items.len());
        self.items.push(d);
    }

    /// Remove; no-op if absent.
    pub fn remove(&mut self, d: &DomainName) {
        if let Some(i) = self.pos.remove(d) {
            let last = self.items.len() - 1;
            self.items.swap_remove(i);
            if i <= last && i < self.items.len() {
                let moved = self.items[i].clone();
                self.pos.insert(moved, i);
            }
        }
    }

    /// Current size.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Uniformly sampled member.
    pub fn sample(&self, rng: &mut StdRng) -> Option<&DomainName> {
        self.items.choose(rng)
    }

    /// Slice access (iteration order is arbitrary but deterministic).
    pub fn items(&self) -> &[DomainName] {
        &self.items
    }
}

/// An issued-certificate index row (for revocation sweeps and Table 2).
#[derive(Debug, Clone)]
struct IssuedCert {
    ca: CaId,
    serial: u64,
    domain: DomainName,
    sanctioned: bool,
}

/// One NS host's live state.
#[derive(Debug, Clone)]
struct NsHost {
    name: DomainName,
    ip: Ipv4Addr,
    /// Plan whose customer zones this host serves.
    plan: usize,
}

/// A scripted hosting move for a specific (sanctioned) domain.
#[derive(Debug, Clone)]
struct ScriptedMove {
    date: Date,
    domain: DomainName,
    to: ProviderId,
}

/// The simulated ecosystem. See the crate docs for the overall picture.
pub struct World {
    cfg: WorldConfig,
    seed: SeedTree,
    rng: StdRng,
    today: Date,
    timeline: Timeline,
    /// Scheduled lifts for installed infrastructure faults: on the keyed
    /// day, every `(addr, port)` listed is removed from the network's
    /// fault plan. Keyed by calendar date because virtual time only
    /// advances while measurements run — a 20-hour outage must still end
    /// by the next day even if nobody sent a packet overnight.
    fault_clears: BTreeMap<Date, Vec<(Ipv4Addr, u16)>>,

    providers: Vec<ProviderSpec>,
    web_alloc: Vec<IpAllocator>,
    infra_alloc: Vec<IpAllocator>,
    hosting_shares: Vec<(ProviderId, catalog::ShareSchedule)>,

    plans: Vec<DnsPlanSpec>,
    plan_zone_sets: Vec<SharedZoneSet>,
    ns_hosts: Vec<NsHost>,
    /// infra parent domain → (home plan, zone-set owner) for NS-host A
    /// records.
    infra_home: HashMap<DomainName, usize>,

    net: Network,
    registries: Vec<Registry>, // [0]=.ru, [1]=.рф
    ripn_zones: SharedZoneSet,
    gtld_zones: SharedZoneSet,
    root_zone: SharedZoneSet,
    scanner_ip: Ipv4Addr,
    root_ip: Ipv4Addr,
    ripn_ip: Ipv4Addr,
    gtld_ip: Ipv4Addr,

    sanctions: SanctionsList,
    scripted_moves: Vec<ScriptedMove>,
    whois_state: Arc<RwLock<Vec<Registry>>>,
    xfr_chunks: XfrChunks,

    cas: Vec<CertificateAuthority>,
    ca_specs: Vec<CaSpec>,
    ct_logs: Vec<CtLog>,
    ocsp: OcspResponder,
    issued_index: Vec<IssuedCert>,
    pending_revocations: BTreeMap<Date, Vec<(CaId, u64)>>,
    issue_carry: Vec<f64>,
    russian_ca_queue: BTreeMap<Date, Vec<RussianCaTarget>>,

    serving: ServingMap,
    geo: LongitudinalGeoDb,

    domains: BTreeMap<DomainName, DomainState>,
    plan_members: Vec<MemberSet>,
    hosting_members: Vec<MemberSet>,
    vanity_own_members: MemberSet,
    vanity_exotic_members: MemberSet,
    tls_pool: MemberSet,
    namegen: NameGenerator,
    extra_sites: Vec<(String, Ipv4Addr)>,
    /// The Amazon↔Sedo parking portfolio (§3.2): moved by script, pinned
    /// against the background rebalancer.
    portfolio: Vec<DomainName>,
}

#[derive(Debug, Clone)]
enum RussianCaTarget {
    Domain(DomainName),
    ExtraSite(usize),
}

impl World {
    /// Build the world at `cfg.start` and return it (no days simulated yet).
    pub fn new(cfg: WorldConfig) -> Self {
        let seed = SeedTree::new(cfg.seed);
        let providers = catalog::providers();
        let plans = catalog::dns_plans();
        let ca_specs = catalog::cas();

        // --- topology & network ---
        let mut topo = Topology::new(seed.child("topo"));
        let mut web_alloc = Vec::with_capacity(providers.len());
        let mut infra_alloc = Vec::with_capacity(providers.len());
        for (i, p) in providers.iter().enumerate() {
            topo.add_as(AsInfo {
                asn: p.asn,
                org: p.name.to_owned(),
                country: p.country,
            });
            let web: Ipv4Net = format!("20.{}.0.0/17", i).parse().expect("static prefix");
            let infra: Ipv4Net = format!("20.{}.128.0/17", i).parse().expect("static prefix");
            topo.announce(web, p.asn);
            topo.announce(infra, p.asn);
            web_alloc.push(IpAllocator::new(web));
            infra_alloc.push(IpAllocator::new(infra));
        }
        let net = Network::new(topo, seed.child("net"));

        let root_ip = infra_alloc[pid::ROOT.0 as usize].alloc().expect("root ip");
        let gtld_ip = infra_alloc[pid::ROOT.0 as usize].alloc().expect("gtld ip");
        let ripn_ip = infra_alloc[pid::RIPN.0 as usize].alloc().expect("ripn ip");
        let scanner_ip = infra_alloc[pid::SCANNER.0 as usize]
            .alloc()
            .expect("scanner ip");

        // --- NS hosts & per-plan zone sets ---
        let mut ns_hosts: Vec<NsHost> = Vec::new();
        let mut plan_zone_sets: Vec<SharedZoneSet> = Vec::new();
        let mut infra_home: HashMap<DomainName, usize> = HashMap::new();
        let name_to_pid: HashMap<&str, usize> = providers
            .iter()
            .enumerate()
            .map(|(i, p)| (p.name, i))
            .collect();
        for (plan_i, plan) in plans.iter().enumerate() {
            plan_zone_sets.push(Arc::new(RwLock::new(ZoneSet::new())));
            for h in &plan.ns {
                let host: DomainName = h.host.parse().expect("catalog host names are valid");
                let op = *name_to_pid
                    .get(h.operator)
                    .expect("catalog operator exists");
                let ip = infra_alloc[op].alloc().expect("infra space");
                infra_home.entry(host.registrable()).or_insert(plan_i);
                ns_hosts.push(NsHost {
                    name: host,
                    ip,
                    plan: plan_i,
                });
            }
        }

        let mut world = World {
            rng: seed.child("behave").rng(),
            namegen: NameGenerator::new(seed.child("names")),
            issue_carry: vec![0.0; ca_specs.len()],
            cas: ca_specs
                .iter()
                .map(|s| {
                    CertificateAuthority::new(
                        s.org,
                        s.country,
                        s.brands,
                        s.logs_to_ct,
                        s.validity_days,
                    )
                })
                .collect(),
            ca_specs,
            ct_logs: vec![CtLog::new("ruwhere-argon"), CtLog::new("ruwhere-xenon")],
            ocsp: OcspResponder::new(),
            issued_index: Vec::new(),
            pending_revocations: BTreeMap::new(),
            russian_ca_queue: BTreeMap::new(),
            serving: Arc::new(RwLock::new(HashMap::new())),
            geo: LongitudinalGeoDb::new(),
            domains: BTreeMap::new(),
            plan_members: vec![MemberSet::default(); plans.len()],
            hosting_members: vec![MemberSet::default(); providers.len()],
            vanity_own_members: MemberSet::default(),
            vanity_exotic_members: MemberSet::default(),
            tls_pool: MemberSet::default(),
            extra_sites: Vec::new(),
            portfolio: Vec::new(),
            scripted_moves: Vec::new(),
            sanctions: SanctionsList::new(),
            whois_state: Arc::new(RwLock::new(Vec::new())),
            xfr_chunks: Arc::new(RwLock::new(HashMap::new())),
            registries: vec![
                Registry::new("ru".parse().expect("static")),
                Registry::new("рф".parse().expect("static")),
            ],
            ripn_zones: Arc::new(RwLock::new(ZoneSet::new())),
            gtld_zones: Arc::new(RwLock::new(ZoneSet::new())),
            root_zone: Arc::new(RwLock::new(ZoneSet::new())),
            hosting_shares: catalog::hosting_shares(),
            today: cfg.start,
            timeline: {
                let mut t = Timeline::paper();
                t.extend(cfg.extra_events.iter().copied());
                t
            },
            fault_clears: BTreeMap::new(),
            seed,
            providers,
            web_alloc,
            infra_alloc,
            plans,
            plan_zone_sets,
            ns_hosts,
            infra_home,
            net,
            scanner_ip,
            root_ip,
            ripn_ip,
            gtld_ip,
            cfg,
        };

        world.build_dns_infrastructure();
        world.build_population();
        world.build_portfolio();
        world.build_sanctioned();
        world.build_extra_sites();
        world.settle_to_targets();
        world.snapshot_geo(world.cfg.start);
        world
    }

    /// Relax provider/plan memberships to their day-0 share targets.
    ///
    /// The initial population draw lands near, but not exactly on, the
    /// configured share schedules; without this step the background
    /// rebalancer spends the first simulated week doing large corrective
    /// moves, which a measurement study then misreads as real early-study
    /// churn (spurious composition transitions swamping genuine events).
    /// Settling before `cfg.start` makes day-one sweeps observe a world
    /// already in equilibrium.
    fn settle_to_targets(&mut self) {
        let start = self.cfg.start;
        for _ in 0..8 {
            self.rebalance_hosting(start);
            self.rebalance_plans(start);
        }
    }

    // ------------------------------------------------------------------
    // accessors
    // ------------------------------------------------------------------

    /// Configuration.
    pub fn config(&self) -> &WorldConfig {
        &self.cfg
    }

    /// Current simulated date.
    pub fn today(&self) -> Date {
        self.today
    }

    /// The event timeline in force.
    pub fn timeline(&self) -> &Timeline {
        &self.timeline
    }

    /// Network access for measurement clients.
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.net
    }

    /// Read-only network access.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Restore the network's global virtual clock to an absolute reading
    /// (microseconds), as recorded in a study checkpoint. Fault windows
    /// anchor to the absolute clock, so a resumed study must re-advance
    /// it through each replayed day in original order — this is the
    /// replay half of the sweep engine's post-sweep
    /// `advance_to_time(max lane end)`. Monotonic: a reading at or
    /// before the current clock is a no-op.
    pub fn restore_net_clock_us(&mut self, us: u64) {
        self.net
            .advance_to_time(ruwhere_netsim::SimTime::ZERO.plus_us(us));
    }

    /// Address the measurement client should source traffic from.
    pub fn scanner_ip(&self) -> Ipv4Addr {
        self.scanner_ip
    }

    /// Root hints for the resolver.
    pub fn root_hints(&self) -> Vec<RootHint> {
        vec![RootHint {
            name: "a.root-servers.invalid".parse().expect("static"),
            addr: self.root_ip,
        }]
    }

    /// The `.ru` and `.рф` registries.
    pub fn registries(&self) -> &[Registry] {
        &self.registries
    }

    /// The sanctions list.
    pub fn sanctions(&self) -> &SanctionsList {
        &self.sanctions
    }

    /// The primary CT log (CAs submit every certificate to all logs, so
    /// any single log is a complete view; see [`World::ct_logs`]).
    pub fn ct_log(&self) -> &CtLog {
        &self.ct_logs[0]
    }

    /// All CT logs. Real CAs submit to several independent logs for SCT
    /// diversity; indexers deduplicate across them.
    pub fn ct_logs(&self) -> &[CtLog] {
        &self.ct_logs
    }

    /// CRL/OCSP state.
    pub fn ocsp(&self) -> &OcspResponder {
        &self.ocsp
    }

    /// CA specs (for analysis labels).
    pub fn ca_specs(&self) -> &[CaSpec] {
        &self.ca_specs
    }

    /// The longitudinal geolocation database (IP2Location stand-in).
    pub fn geo(&self) -> &LongitudinalGeoDb {
        &self.geo
    }

    /// Ground truth for one domain (tests / validation only — the
    /// measurement pipeline must not read this).
    pub fn domain_state(&self, name: &DomainName) -> Option<&DomainState> {
        self.domains.get(name)
    }

    /// Live population size.
    pub fn population(&self) -> usize {
        self.domains.len()
    }

    /// Names of all live domains under the study ccTLDs, the zone-file seed
    /// list for a sweep (sorted for determinism).
    pub fn seed_names(&self) -> Vec<DomainName> {
        let mut v: Vec<DomainName> = self
            .registries
            .iter()
            .flat_map(|r| r.iter().map(|(n, _)| n.clone()))
            .collect();
        v.sort();
        v
    }

    // ------------------------------------------------------------------
    // construction helpers
    // ------------------------------------------------------------------

    fn plan_soa(mname: &Name) -> SoaData {
        SoaData {
            mname: mname.clone(),
            rname: "hostmaster.invalid".parse().expect("static"),
            serial: 1,
            refresh: 86_400,
            retry: 7_200,
            expire: 2_592_000,
            minimum: 3_600,
        }
    }

    /// Stand up root, TLD and plan infra DNS.
    fn build_dns_infrastructure(&mut self) {
        // Root zone: delegate ru / xn--p1ai to RIPN and every other TLD to
        // the shared gTLD server.
        let mut root = Zone::new(
            Name::root(),
            Self::plan_soa(&"a.root-servers.invalid".parse().expect("static")),
            86_400,
        );
        let ripn_ns: Name = "a.dns.ripn.net".parse().expect("static");
        let gtld_ns: Name = "a.gtld-servers.net".parse().expect("static");
        for tld in ["ru", "xn--p1ai"] {
            root.add(Record::new(
                tld.parse().expect("static"),
                86_400,
                RData::Ns(ripn_ns.clone()),
            ));
        }
        root.add(Record::new(ripn_ns.clone(), 86_400, RData::A(self.ripn_ip)));
        root.add(Record::new(gtld_ns.clone(), 86_400, RData::A(self.gtld_ip)));

        // External TLDs: the named ones used by plans plus the exotic tail.
        let mut external: Vec<String> = vec![
            "com".into(),
            "net".into(),
            "org".into(),
            "pro".into(),
            "de".into(),
        ];
        for i in 0..catalog::EXOTIC_TLD_COUNT {
            let t = catalog::exotic_tld(i);
            if !external.contains(&t) {
                external.push(t);
            }
        }
        {
            let mut g = write(&self.gtld_zones);
            for tld in &external {
                let origin: Name = tld.parse().expect("catalog tlds are valid");
                root.add(Record::new(
                    origin.clone(),
                    86_400,
                    RData::Ns(gtld_ns.clone()),
                ));
                g.insert(Zone::new(origin, Self::plan_soa(&gtld_ns), 86_400));
            }
        }
        write(&self.root_zone).insert(root);
        self.net.bind(
            self.root_ip,
            DNS_PORT,
            Box::new(AuthServer::new(Arc::clone(&self.root_zone))),
        );
        self.net.bind(
            self.gtld_ip,
            DNS_PORT,
            Box::new(AuthServer::new(Arc::clone(&self.gtld_zones))),
        );
        self.net.bind(
            self.ripn_ip,
            DNS_PORT,
            Box::new(AuthServer::new(Arc::clone(&self.ripn_zones))),
        );
        self.net.bind(
            self.ripn_ip,
            WHOIS_PORT,
            Box::new(WhoisService {
                state: Arc::clone(&self.whois_state),
            }),
        );
        self.net.bind(
            self.ripn_ip,
            XFR_PORT,
            Box::new(ZoneTransferService {
                tlds: self
                    .registries
                    .iter()
                    .map(|r| (r.tld().as_str().to_owned(), Name::from(r.tld())))
                    .collect(),
                zones: Arc::clone(&self.ripn_zones),
                chunks: Arc::clone(&self.xfr_chunks),
            }),
        );

        // Bind each plan NS host and build infra zones.
        let hosts = self.ns_hosts.clone();
        for h in &hosts {
            let zs = Arc::clone(&self.plan_zone_sets[h.plan]);
            self.net.bind(h.ip, DNS_PORT, Box::new(AuthServer::new(zs)));
        }
        let mut parents: Vec<DomainName> = self.infra_home.keys().cloned().collect();
        parents.sort();
        for parent in parents {
            self.rebuild_infra_zone(&parent);
            self.register_infra_domain(&parent);
        }
    }

    /// (Re)build the zone holding A records for every NS host under
    /// `parent`, in the home plan's zone set.
    fn rebuild_infra_zone(&mut self, parent: &DomainName) {
        let Some(&home) = self.infra_home.get(parent) else {
            return;
        };
        let origin = Name::from(parent);
        let mname = Name::from(&self.ns_hosts[0].name);
        let mut zone = Zone::new(origin, Self::plan_soa(&mname), 3_600);
        for h in &self.ns_hosts {
            if &h.name.registrable() == parent {
                zone.add(Record::new(Name::from(&h.name), 3_600, RData::A(h.ip)));
            }
        }
        // The infra domain delegates to its home hosts (self-hosting).
        for h in &self.ns_hosts {
            if h.plan == home && &h.name.registrable() == parent {
                zone.add(Record::new(
                    Name::from(parent),
                    3_600,
                    RData::Ns(Name::from(&h.name)),
                ));
            }
        }
        write(&self.plan_zone_sets[home]).insert(zone);
    }

    /// Register the infra domain in its registry (`.ru`) or external TLD
    /// zone (everything else), with glue for in-bailiwick hosts.
    fn register_infra_domain(&mut self, parent: &DomainName) {
        let Some(&home) = self.infra_home.get(parent) else {
            return;
        };
        let home_hosts: Vec<&NsHost> = self
            .ns_hosts
            .iter()
            .filter(|h| h.plan == home && &h.name.registrable() == parent)
            .collect();
        // Delegation targets: the home hosts if any live under the parent,
        // otherwise all hosts under the parent (their zone lives at home).
        let targets: Vec<&NsHost> = if home_hosts.is_empty() {
            self.ns_hosts
                .iter()
                .filter(|h| &h.name.registrable() == parent)
                .collect()
        } else {
            home_hosts
        };
        let nameservers: Vec<DomainName> = targets.iter().map(|h| h.name.clone()).collect();
        let glue: BTreeMap<DomainName, Vec<Ipv4Addr>> = self
            .ns_hosts
            .iter()
            .filter(|h| &h.name.registrable() == parent)
            .map(|h| (h.name.clone(), vec![h.ip]))
            .collect();

        if parent.tld() == "ru" || parent.tld() == "xn--p1ai" {
            let reg = if parent.tld() == "ru" { 0 } else { 1 };
            self.namegen.reserve(parent.clone());
            let _ =
                self.registries[reg].register(parent.clone(), self.cfg.start.add_days(-400), 30);
            let _ = self.registries[reg].set_delegation(parent, Delegation { nameservers, glue });
        } else {
            // External TLD: add delegation + glue directly to the TLD zone.
            let tld: Name = parent.tld().parse().expect("valid tld");
            let mut g = write(&self.gtld_zones);
            if let Some(zone) = g.get_mut(&tld) {
                let owner = Name::from(parent);
                zone.remove(&owner, None);
                for t in &nameservers {
                    zone.add(Record::new(owner.clone(), 86_400, RData::Ns(Name::from(t))));
                }
                for (host, addrs) in &glue {
                    let howner = Name::from(host);
                    zone.remove(&howner, None);
                    for a in addrs {
                        zone.add(Record::new(howner.clone(), 86_400, RData::A(*a)));
                    }
                }
            }
        }
    }

    /// Sample a provider id from the hosting-share table at `date`,
    /// optionally restricted to Russian or non-Russian providers.
    fn sample_hosting(&mut self, date: Date, russia: Option<bool>) -> ProviderId {
        let mut total = 0.0;
        let mut weights: Vec<(ProviderId, f64)> = Vec::with_capacity(self.hosting_shares.len());
        for (pid_, sched) in &self.hosting_shares {
            let is_ru = self.providers[pid_.0 as usize].country.is_russia();
            if let Some(want_ru) = russia {
                if is_ru != want_ru {
                    continue;
                }
            }
            let w = sched.at(date).max(0.0);
            weights.push((*pid_, w));
            total += w;
        }
        let mut x = self.rng.random_range(0.0..total.max(f64::MIN_POSITIVE));
        for (pid_, w) in &weights {
            x -= w;
            if x <= 0.0 {
                return *pid_;
            }
        }
        weights.last().map(|(p, _)| *p).unwrap_or(pid::REG_RU)
    }

    /// Sample a managed DNS plan at `date`.
    fn sample_plan(&mut self, date: Date) -> usize {
        let weights: Vec<f64> = self
            .plans
            .iter()
            .map(|p| p.share.at(date).max(0.0))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut x = self.rng.random_range(0.0..total.max(f64::MIN_POSITIVE));
        for (i, w) in weights.iter().enumerate() {
            x -= w;
            if x <= 0.0 {
                return i;
            }
        }
        0
    }

    fn sample_ca(&mut self, date: Date) -> CaId {
        let period = Period::of(date);
        let weights: Vec<f64> = self
            .ca_specs
            .iter()
            .map(|s| match period {
                Period::PreConflict => s.share_pre_conflict,
                Period::PreSanctions => s.share_pre_sanctions,
                Period::PostSanctions => s.share_post_sanctions,
            })
            .collect();
        let total: f64 = weights.iter().sum();
        let mut x = self.rng.random_range(0.0..total.max(f64::MIN_POSITIVE));
        for (i, w) in weights.iter().enumerate() {
            x -= w;
            if x <= 0.0 {
                return CaId(i as u16);
            }
        }
        caid::LETS_ENCRYPT
    }

    /// Create and fully wire a new domain. Returns its name.
    fn add_domain(
        &mut self,
        name: DomainName,
        registered: Date,
        hosting_override: Option<ProviderId>,
        dns_override: Option<DnsPlan>,
        sanctioned: bool,
    ) -> DomainName {
        let date = registered.max(self.cfg.start);
        let primary = hosting_override.unwrap_or_else(|| self.sample_hosting(date, None));
        let primary_ip = self.web_alloc[primary.0 as usize]
            .alloc()
            .expect("provider address space exhausted — raise the scale denominator");
        let primary_is_ru = self.providers[primary.0 as usize].country.is_russia();

        // Split-country hosting for ~0.19 % of Russian-hosted domains.
        let secondary = if !sanctioned
            && primary_is_ru
            && self
                .rng
                .random_bool(self.cfg.hosting_part_ru_at_start / self.cfg.hosting_full_ru_at_start)
        {
            let sec = self.sample_hosting(date, Some(false));
            let ip = self.web_alloc[sec.0 as usize]
                .alloc()
                .expect("address space");
            Some((sec, ip))
        } else {
            None
        };

        let dns = dns_override.unwrap_or_else(|| {
            let vanity_own_p = VANITY_OWN_SHARE / self.cfg.hosting_full_ru_at_start;
            let vanity_exotic_p = VANITY_EXOTIC_SHARE / (1.0 - self.cfg.hosting_full_ru_at_start);
            if primary_is_ru && self.rng.random_bool(vanity_own_p.min(1.0)) {
                DnsPlan::VanityOwn
            } else if !primary_is_ru && self.rng.random_bool(vanity_exotic_p.min(1.0)) {
                DnsPlan::VanityExotic(self.rng.random_range(0..catalog::EXOTIC_TLD_COUNT as u16))
            } else {
                DnsPlan::Managed(PlanId(self.sample_plan(date) as u16))
            }
        });

        let tls = if self.rng.random_bool(0.80) {
            Some(TlsProfile {
                ca: self.sample_ca(date),
                next_issue: date,
                certs_per_renewal: self.rng.random_range(1..=4),
                serving: None,
            })
        } else {
            None
        };

        let state = DomainState {
            name: name.clone(),
            hosting: HostingPlan {
                primary,
                primary_ip,
                secondary,
            },
            dns,
            tls,
            sanctioned,
            registered,
        };

        // Registry entry.
        let reg_idx = if name.tld() == "ru" { 0 } else { 1 };
        let _ = self.registries[reg_idx].register(name.clone(), registered, 30);

        self.install_domain(&state);

        // Membership bookkeeping.
        self.hosting_members[primary.0 as usize].add(name.clone());
        if let Some((sec, _)) = state.hosting.secondary {
            self.hosting_members[sec.0 as usize].add(name.clone());
        }
        match &state.dns {
            DnsPlan::Managed(p) => self.plan_members[p.0 as usize].add(name.clone()),
            DnsPlan::VanityOwn => self.vanity_own_members.add(name.clone()),
            DnsPlan::VanityExotic(_) => self.vanity_exotic_members.add(name.clone()),
        }
        if state.tls.is_some() {
            self.tls_pool.add(name.clone());
        }
        self.domains.insert(name.clone(), state);
        name
    }

    /// Write the domain's zone, delegation, and TLS endpoints into the
    /// infrastructure, according to its current state.
    fn install_domain(&mut self, state: &DomainState) {
        let owner = Name::from(&state.name);
        let (ns_names, glue, zone_home): (
            Vec<DomainName>,
            BTreeMap<DomainName, Vec<Ipv4Addr>>,
            ZoneHome,
        ) = match &state.dns {
            DnsPlan::Managed(p) => {
                let plan_i = p.0 as usize;
                let names: Vec<DomainName> = self
                    .ns_hosts
                    .iter()
                    .filter(|h| h.plan == plan_i)
                    .map(|h| h.name.clone())
                    .collect();
                (names, BTreeMap::new(), ZoneHome::Plan(plan_i))
            }
            DnsPlan::VanityOwn => {
                let ns1 = state.name.prepend("ns1").expect("valid label");
                let ns2 = state.name.prepend("ns2").expect("valid label");
                let glue: BTreeMap<DomainName, Vec<Ipv4Addr>> = [
                    (ns1.clone(), vec![state.hosting.primary_ip]),
                    (ns2.clone(), vec![state.hosting.primary_ip]),
                ]
                .into();
                (vec![ns1, ns2], glue, ZoneHome::SelfHosted)
            }
            DnsPlan::VanityExotic(i) => {
                let tld = catalog::exotic_tld(*i as usize);
                let sld = state.name.labels().next().expect("non-empty");
                let parent: DomainName = format!("{sld}-dns.{tld}").parse().expect("valid name");
                let ns1 = parent.prepend("ns1").expect("valid label");
                (vec![ns1], BTreeMap::new(), ZoneHome::ExoticVanity(parent))
            }
        };

        // The domain's own zone: apex A (+ optional secondary) + NS set.
        let mname = Name::from(&ns_names[0]);
        let mut zone = Zone::new(owner.clone(), Self::plan_soa(&mname), 3_600);
        zone.add(Record::new(
            owner.clone(),
            300,
            RData::A(state.hosting.primary_ip),
        ));
        if let Some((_, ip)) = state.hosting.secondary {
            zone.add(Record::new(owner.clone(), 300, RData::A(ip)));
        }
        for n in &ns_names {
            zone.add(Record::new(owner.clone(), 3_600, RData::Ns(Name::from(n))));
        }
        for (host, addrs) in &glue {
            for a in addrs {
                zone.add(Record::new(Name::from(host), 3_600, RData::A(*a)));
            }
        }

        match zone_home {
            ZoneHome::Plan(plan_i) => {
                write(&self.plan_zone_sets[plan_i]).insert(zone);
            }
            ZoneHome::SelfHosted => {
                // AuthServer at the web IP, serving just this zone.
                let zs: SharedZoneSet = Arc::new(RwLock::new(ZoneSet::new()));
                write(&zs).insert(zone);
                self.net.bind(
                    state.hosting.primary_ip,
                    DNS_PORT,
                    Box::new(AuthServer::new(zs)),
                );
            }
            ZoneHome::ExoticVanity(parent) => {
                // Serve both the parent vanity zone and the domain zone at
                // the web IP; delegate the parent in its exotic TLD zone.
                let ns1 = parent.prepend("ns1").expect("valid label");
                let mut pzone = Zone::new(
                    Name::from(&parent),
                    Self::plan_soa(&Name::from(&ns1)),
                    3_600,
                );
                pzone.add(Record::new(
                    Name::from(&ns1),
                    3_600,
                    RData::A(state.hosting.primary_ip),
                ));
                pzone.add(Record::new(
                    Name::from(&parent),
                    3_600,
                    RData::Ns(Name::from(&ns1)),
                ));
                let zs: SharedZoneSet = Arc::new(RwLock::new(ZoneSet::new()));
                write(&zs).insert(zone);
                write(&zs).insert(pzone);
                self.net.bind(
                    state.hosting.primary_ip,
                    DNS_PORT,
                    Box::new(AuthServer::new(zs)),
                );
                let tld: Name = parent.tld().parse().expect("valid tld");
                let mut g = write(&self.gtld_zones);
                if let Some(tzone) = g.get_mut(&tld) {
                    let powner = Name::from(&parent);
                    tzone.remove(&powner, None);
                    tzone.add(Record::new(powner, 86_400, RData::Ns(Name::from(&ns1))));
                    let nowner = Name::from(&ns1);
                    tzone.remove(&nowner, None);
                    tzone.add(Record::new(
                        nowner,
                        86_400,
                        RData::A(state.hosting.primary_ip),
                    ));
                }
            }
        }

        // Registry delegation.
        let reg_idx = if state.name.tld() == "ru" { 0 } else { 1 };
        let _ = self.registries[reg_idx].set_delegation(
            &state.name,
            Delegation {
                nameservers: ns_names,
                glue,
            },
        );

        // TLS endpoints.
        if state.tls.is_some() {
            self.net.bind(
                state.hosting.primary_ip,
                TLS_PORT,
                Box::new(TlsEndpoint::new(
                    Arc::clone(&self.serving),
                    state.hosting.primary_ip,
                )),
            );
            if let Some((_, ip)) = state.hosting.secondary {
                self.net.bind(
                    ip,
                    TLS_PORT,
                    Box::new(TlsEndpoint::new(Arc::clone(&self.serving), ip)),
                );
            }
        }
    }

    /// Tear a domain out of the infrastructure (expiry / deletion).
    fn remove_domain(&mut self, name: &DomainName) {
        let Some(state) = self.domains.remove(name) else {
            return;
        };
        let owner = Name::from(name);
        match &state.dns {
            DnsPlan::Managed(p) => {
                write(&self.plan_zone_sets[p.0 as usize]).remove(&owner);
                self.plan_members[p.0 as usize].remove(name);
            }
            DnsPlan::VanityOwn => {
                self.net.unbind(state.hosting.primary_ip, DNS_PORT);
                self.vanity_own_members.remove(name);
            }
            DnsPlan::VanityExotic(i) => {
                self.net.unbind(state.hosting.primary_ip, DNS_PORT);
                self.vanity_exotic_members.remove(name);
                let tld = catalog::exotic_tld(*i as usize);
                let sld = name.labels().next().expect("non-empty");
                if let Ok(parent) = format!("{sld}-dns.{tld}").parse::<DomainName>() {
                    let tldname: Name = parent.tld().parse().expect("valid");
                    let mut g = write(&self.gtld_zones);
                    if let Some(tzone) = g.get_mut(&tldname) {
                        tzone.remove(&Name::from(&parent), None);
                        if let Ok(ns1) = parent.prepend("ns1") {
                            tzone.remove(&Name::from(&ns1), None);
                        }
                    }
                }
            }
        }
        self.hosting_members[state.hosting.primary.0 as usize].remove(name);
        if let Some((sec, ip)) = state.hosting.secondary {
            self.hosting_members[sec.0 as usize].remove(name);
            self.net.unbind(ip, TLS_PORT);
            write(&self.serving).remove(&ip);
        }
        if state.tls.is_some() {
            self.net.unbind(state.hosting.primary_ip, TLS_PORT);
            write(&self.serving).remove(&state.hosting.primary_ip);
            self.tls_pool.remove(name);
        }
        let reg_idx = if name.tld() == "ru" { 0 } else { 1 };
        let _ = self.registries[reg_idx].delete(name);
    }

    /// Initial population at `cfg.start`.
    fn build_population(&mut self) {
        let n = self.cfg.initial_population;
        let rf = (n as f64 * self.cfg.rf_fraction) as usize;
        let mut reg_dates_rng = self.seed.child("regdates").rng();
        for i in 0..n {
            let tld = if i < rf { "рф" } else { "ru" };
            let name = self.namegen.generate(tld);
            let registered = self
                .cfg
                .start
                .add_days(-reg_dates_rng.random_range(30..2500));
            self.add_domain(name, registered, None, None, false);
        }
    }

    /// The domain-parking portfolio that oscillates between Amazon and
    /// Sedo before settling at Serverel (§3.2: "domains that switch back
    /// and forth between Amazon (US) and Sedo (Germany), and then
    /// ultimately move to Serverel (Netherlands)").
    fn build_portfolio(&mut self) {
        let size = (self.cfg.initial_population as f64 * 0.003).ceil() as usize;
        for _ in 0..size {
            let name = self.namegen.generate("ru");
            let name = self.add_domain(
                name,
                self.cfg.start.add_days(-200),
                Some(pid::SEDO),
                Some(DnsPlan::Managed(PlanId(planidx::SEDO_PARKING as u16))),
                false,
            );
            self.portfolio.push(name);
        }
        // The oscillation, visible in Figure 4's crossing curves.
        let hops = [
            (Date::from_ymd(2022, 2, 25), pid::AMAZON),
            (Date::from_ymd(2022, 3, 12), pid::SEDO),
            (Date::from_ymd(2022, 3, 30), pid::AMAZON),
            (Date::from_ymd(2022, 4, 18), pid::SERVEREL),
        ];
        for name in self.portfolio.clone() {
            for (date, to) in hops {
                self.scripted_moves.push(ScriptedMove {
                    date,
                    domain: name.clone(),
                    to,
                });
            }
        }
    }

    /// The 107 sanctioned domains with their scripted composition (§3.3).
    fn build_sanctioned(&mut self) {
        let n = self.cfg.sanctioned_count;
        // Proportions from the paper: 101/107 Russian-hosted pre-conflict,
        // 3 abroad that repatriate, 3 that never do; NS: 34 % partial
        // (almost all via Netnod), 5.2 % non.
        let n_stay_abroad = (3 * n / 107).max(if n >= 3 { 3 } else { n });
        let n_repatriate = if n >= 6 { 3 } else { 0 };
        let n_partial = (34 * n + 50) / 100;
        let n_non = (52 * n + 500) / 1000;

        let mut listed_rng = self.seed.child("sanctions").rng();
        for i in 0..n {
            let name: DomainName = format!("sanctioned-entity-{i:03}.ru")
                .parse()
                .expect("static pattern");
            self.namegen.reserve(name.clone());

            // Hosting.
            let hosting = if i < n_stay_abroad {
                // The three that remain in DE / CZ / EE.
                Some([pid::DE_HAVEN, pid::CZ_HAVEN, pid::EE_HAVEN][i % 3])
            } else if i < n_stay_abroad + n_repatriate {
                // Previously "Germany or Poland"; repatriate on scripted
                // dates.
                let from = [pid::PL_HOST, pid::PL_HOST, pid::DE_HAVEN][i % 3];
                let when = [
                    Date::from_ymd(2022, 3, 15),
                    Date::from_ymd(2022, 4, 12),
                    Date::from_ymd(2022, 5, 20),
                ][i % 3];
                self.scripted_moves.push(ScriptedMove {
                    date: when,
                    domain: name.clone(),
                    to: pid::REG_RU,
                });
                Some(from)
            } else {
                Some(self.sample_hosting_ru_static(i))
            };

            // DNS: indexes from the end of the range get partial/non plans.
            let dns = if i >= n.saturating_sub(n_non) {
                // Non-Russian DNS (stays non through the window): Cloudflare.
                Some(DnsPlan::Managed(PlanId(planidx::NON_RU_RANGE.start as u16)))
            } else if i >= n.saturating_sub(n_non + n_partial) {
                // Partial: nearly all on the Netnod cloud plan; one on a
                // non-Netnod partial plan flips on 2022-03-04 (scripted).
                if i == n.saturating_sub(n_non + n_partial) {
                    Some(DnsPlan::Managed(PlanId(planidx::NETNOD_CLOUD as u16 + 1)))
                } else {
                    Some(DnsPlan::Managed(PlanId(planidx::NETNOD_CLOUD as u16)))
                }
            } else {
                // Fully Russian managed plan.
                Some(DnsPlan::Managed(PlanId((i % 3) as u16))) // REG.RU / RUC / Timeweb
            };

            let registered = self.cfg.start.add_days(-(400 + (i as i32 * 13) % 1200));
            self.add_domain(name.clone(), registered, hosting, dns, true);

            // Listing dates: most predate the conflict (Crimea-era lists),
            // a late wave lands after February 25, 2022.
            let (source, date) = if listed_rng.random_bool(0.88) {
                (
                    SanctionSource::UsOfacSdn,
                    Date::from_ymd(2018, 4, 6).add_days(listed_rng.random_range(0..1200)),
                )
            } else {
                let waves = [
                    Date::from_ymd(2022, 2, 25),
                    Date::from_ymd(2022, 3, 2),
                    Date::from_ymd(2022, 3, 11),
                ];
                (SanctionSource::UkSanctions, waves[i % 3])
            };
            self.sanctions
                .add(name, source, date.min(Date::from_ymd(2022, 3, 11)));
        }
    }

    fn sample_hosting_ru_static(&mut self, i: usize) -> ProviderId {
        // Spread sanctioned domains across Russian hosters deterministically.
        let ru: Vec<ProviderId> = self
            .hosting_shares
            .iter()
            .filter(|(p, _)| self.providers[p.0 as usize].country.is_russia())
            .map(|(p, _)| *p)
            .collect();
        ru[i % ru.len()]
    }

    /// Russian-affiliated sites under other TLDs (§4.3's long tail).
    fn build_extra_sites(&mut self) {
        for i in 0..self.cfg.extra_russian_sites {
            let tld = ["com", "net", "org", "su"][i % 4];
            let name = format!("russian-affiliate-{i:02}.{tld}");
            let host = ProviderId(pid::RU_GENERIC_BASE + (i as u16 % pid::RU_GENERIC_COUNT));
            let ip = self.web_alloc[host.0 as usize].alloc().expect("space");
            self.net.bind(
                ip,
                TLS_PORT,
                Box::new(TlsEndpoint::new(Arc::clone(&self.serving), ip)),
            );
            self.extra_sites.push((name, ip));
        }
    }

    // ------------------------------------------------------------------
    // daily evolution
    // ------------------------------------------------------------------

    /// Advance the world to `date`, simulating every intervening day.
    pub fn advance_to(&mut self, date: Date) {
        while self.today < date {
            let next = self.today.succ();
            self.step_day(next);
            self.today = next;
        }
    }

    fn step_day(&mut self, date: Date) {
        self.lift_expired_faults(date);
        let events: Vec<ConflictEvent> = self.timeline.on(date).collect();
        for ev in events {
            self.apply_event(ev, date);
        }
        self.apply_scripted_moves(date);
        self.churn(date);
        self.rebalance_hosting(date);
        self.rebalance_plans(date);
        if date >= self.cfg.cert_start {
            self.issue_certificates(date);
            self.issue_sanctioned_certificates(date);
            self.process_revocations(date);
            self.russian_ca_tick(date);
        }
        let since_start = (date - self.cfg.start) as u32;
        if since_start > 0 && since_start.is_multiple_of(self.cfg.geo_snapshot_interval_days) {
            self.snapshot_geo(date.add_days(self.cfg.geo_snapshot_lag_days as i32));
        }
    }

    fn apply_event(&mut self, ev: ConflictEvent, date: Date) {
        match ev {
            ConflictEvent::NetnodRehoming => self.netnod_rehoming(date),
            ConflictEvent::GoogleIntraMove => self.google_intra_move(date),
            ConflictEvent::DigicertSanctionedRevocation => {
                self.revoke_all_sanctioned(caid::DIGICERT, date)
            }
            ConflictEvent::SectigoSanctionedRevocation => {
                self.revoke_all_sanctioned(caid::SECTIGO, date)
            }
            ConflictEvent::RussianCaLaunch => self.schedule_russian_ca(date),
            ConflictEvent::InfrastructureFault(f) => self.install_infra_fault(f, date),
            // Stop dates are enforced through CA policy below; the
            // remaining events are markers whose effects flow from the
            // share schedules.
            _ => {}
        }
        // CA stop dates.
        for (i, spec) in self.ca_specs.iter().enumerate() {
            if spec.stop_date == Some(date) {
                self.cas[i].policy = CaPolicy::Suspended;
            }
        }
    }

    /// Install a timeline [`InfraFault`] into the network's fault plan.
    ///
    /// The targeted servers black-hole all queries from the current virtual
    /// instant for `duration_hours` of virtual time; because virtual time
    /// only advances during measurements, a calendar-day lift is also
    /// scheduled so the outage cannot outlive its day (see
    /// [`World::lift_expired_faults`]). This is the mechanism behind the
    /// Figure-1 dip: on 2021-03-22 the `.ru` TLD servers go dark, sweeps
    /// that day mostly time out, and the next day's sweep recovers.
    fn install_infra_fault(&mut self, fault: InfraFault, date: Date) {
        let addr = match fault.target {
            FaultTarget::RuTldServers => self.ripn_ip,
            FaultTarget::Root => self.root_ip,
            FaultTarget::GtldServers => self.gtld_ip,
        };
        let now = self.net.now();
        let end = SimTime(
            now.as_micros()
                .saturating_add(u64::from(fault.duration_hours) * 3_600_000_000),
        );
        self.net.faults_mut().add_server_fault(ServerFault {
            addr,
            port: Some(DNS_PORT),
            mode: ServerFaultMode::Outage,
            window: FaultWindow::between(now, end),
        });
        // Lift on the first day after the outage's calendar span.
        let span_days = fault.duration_hours.div_ceil(24).max(1) as i32;
        self.fault_clears
            .entry(date.add_days(span_days))
            .or_default()
            .push((addr, DNS_PORT));
    }

    /// Remove infrastructure faults whose calendar span ended by `date`,
    /// plus any whose virtual-time window has elapsed.
    fn lift_expired_faults(&mut self, date: Date) {
        let due: Vec<Date> = self.fault_clears.range(..=date).map(|(d, _)| *d).collect();
        for d in due {
            if let Some(targets) = self.fault_clears.remove(&d) {
                for (addr, port) in targets {
                    self.net.faults_mut().remove_server_faults(addr, Some(port));
                }
            }
        }
        let now = self.net.now();
        self.net.faults_mut().clear_expired(now);
    }

    /// §3.2/§3.3: Netnod's 2022-03-03 event.
    ///
    /// Default mode — *IP reconfiguration*: the Netnod-operated nic.ru
    /// cloud hosts get new, Russian addresses. Measurements flip the same
    /// day ("quickly changed from partial to fully Russian").
    ///
    /// Ablation mode ([`WorldConfig::netnod_prefix_move`]) — the address
    /// block itself is re-announced by RU-CENTER's ASN. ASN-based views
    /// flip immediately, but the *geolocation* database only reflects the
    /// change at its next snapshot: the footnote-5 lag.
    fn netnod_rehoming(&mut self, date: Date) {
        if self.cfg.netnod_prefix_move {
            let netnod_infra = self.infra_alloc[pid::NETNOD.0 as usize].net();
            let ruc_asn = self.providers[pid::RU_CENTER.0 as usize].asn;
            self.net.topology_mut().announce(netnod_infra, ruc_asn);
            // No geo snapshot here: the vendor's database catches up at the
            // next scheduled refresh.
            let _ = date;
            return;
        }
        let netnod_pid = pid::NETNOD.0 as usize;
        let ruc_pid = pid::RU_CENTER.0 as usize;
        let mut touched_parents = Vec::new();
        let netnod_net = self.infra_alloc[netnod_pid].net();
        for i in 0..self.ns_hosts.len() {
            if netnod_net.contains(self.ns_hosts[i].ip) {
                let new_ip = self.infra_alloc[ruc_pid].alloc().expect("space");
                let old_ip = self.ns_hosts[i].ip;
                self.ns_hosts[i].ip = new_ip;
                let plan = self.ns_hosts[i].plan;
                self.net.unbind(old_ip, DNS_PORT);
                self.net.bind(
                    new_ip,
                    DNS_PORT,
                    Box::new(AuthServer::new(Arc::clone(&self.plan_zone_sets[plan]))),
                );
                touched_parents.push(self.ns_hosts[i].name.registrable());
            }
        }
        touched_parents.sort();
        touched_parents.dedup();
        for parent in touched_parents {
            self.rebuild_infra_zone(&parent);
            self.register_infra_domain(&parent);
        }
    }

    /// §3.4 footnote 11: intra-Google relocation around 2022-03-16.
    fn google_intra_move(&mut self, _date: Date) {
        let members: Vec<DomainName> = self.hosting_members[pid::GOOGLE.0 as usize]
            .items()
            .to_vec();
        let take = (members.len() as f64 * 0.43).ceil() as usize;
        for name in members.into_iter().take(take) {
            self.move_hosting(&name, pid::GOOGLE_CLOUD);
        }
    }

    /// Whether `ca` refuses sanctioned customers as of `date`: true once
    /// its timeline revoke-all-sanctioned event has fired (Table 2's 100%
    /// revocation rows stay at 100% only if no re-issuance follows).
    fn refuses_sanctioned(&self, ca: CaId, date: Date) -> bool {
        let cutoff = match ca {
            caid::DIGICERT => self
                .timeline
                .date_of(ConflictEvent::DigicertSanctionedRevocation),
            caid::SECTIGO => self
                .timeline
                .date_of(ConflictEvent::SectigoSanctionedRevocation),
            _ => None,
        };
        cutoff.is_some_and(|d| date >= d)
    }

    fn revoke_all_sanctioned(&mut self, ca: CaId, date: Date) {
        let serials: Vec<u64> = self
            .issued_index
            .iter()
            .filter(|c| c.ca == ca && c.sanctioned)
            .map(|c| c.serial)
            .collect();
        let org = self.ca_specs[ca.0 as usize].org.to_owned();
        let crl = self.ocsp.crl_mut(&org);
        for s in serials {
            crl.revoke(s, date, RevocationReason::PrivilegeWithdrawn);
        }
    }

    /// §4.3: spread ~170 Russian Trusted Root CA issuances over a few weeks.
    fn schedule_russian_ca(&mut self, launch: Date) {
        // Targets: all sanctioned domains' "34 %" (the paper: 36 of 170
        // certificates secure sanctioned domains), a set of ordinary
        // Russian domains, and the extra non-RU-TLD Russian sites.
        // Only endpoints that can actually *serve* the certificate matter
        // for §4.3's scan-based numbers.
        let sanctioned_targets: Vec<DomainName> = self
            .domains
            .values()
            .filter(|d| d.sanctioned && d.tls.is_some())
            .map(|d| d.name.clone())
            .collect();
        let sanctioned_total = self.domains.values().filter(|d| d.sanctioned).count();
        let n_sanctioned =
            ((sanctioned_total as f64 * 0.34).round() as usize).min(sanctioned_targets.len());
        let mut targets: Vec<RussianCaTarget> = sanctioned_targets
            .into_iter()
            .take(n_sanctioned)
            .map(RussianCaTarget::Domain)
            .collect();
        // Ordinary .ru/.рф adopters: 170 total − sanctioned − extra sites.
        let ordinary_total = 170usize
            .saturating_sub(n_sanctioned)
            .saturating_sub(self.extra_sites.len());
        // The paper observes exactly 2 .рф adopters: pick those first,
        // then fill with .ru names.
        let mut names: Vec<DomainName> = self.tls_pool.items().to_vec();
        names.sort();
        let eligible = |world: &Self, name: &DomainName| {
            world.domains.get(name).is_some_and(|d| {
                !d.sanctioned
                    && world.providers[d.hosting.primary.0 as usize]
                        .country
                        .is_russia()
            })
        };
        let mut ordinary: Vec<DomainName> = names
            .iter()
            .filter(|n| n.tld() == "xn--p1ai" && eligible(self, n))
            .take(2)
            .cloned()
            .collect();
        for name in names {
            if ordinary.len() >= ordinary_total {
                break;
            }
            if name.tld() != "xn--p1ai" && eligible(self, &name) {
                ordinary.push(name);
            }
        }
        targets.extend(ordinary.into_iter().map(RussianCaTarget::Domain));
        targets.extend((0..self.extra_sites.len()).map(RussianCaTarget::ExtraSite));

        // Spread over ~5 weeks.
        let mut rng = self.seed.child("russian-ca").rng();
        for t in targets {
            let day = launch.add_days(rng.random_range(0..35));
            self.russian_ca_queue.entry(day).or_default().push(t);
        }
    }

    fn russian_ca_tick(&mut self, date: Date) {
        let Some(targets) = self.russian_ca_queue.remove(&date) else {
            return;
        };
        for t in targets {
            let (cn, san, ips, sanctioned): (String, Vec<DomainName>, Vec<Ipv4Addr>, bool) =
                match &t {
                    RussianCaTarget::Domain(name) => {
                        let Some(d) = self.domains.get(name).filter(|d| d.tls.is_some()) else {
                            continue;
                        };
                        let mut ips = vec![d.hosting.primary_ip];
                        if let Some((_, ip)) = d.hosting.secondary {
                            ips.push(ip);
                        }
                        (
                            name.as_str().to_owned(),
                            vec![name.clone()],
                            ips,
                            d.sanctioned,
                        )
                    }
                    RussianCaTarget::ExtraSite(i) => {
                        let (name, ip) = &self.extra_sites[*i];
                        let san = DomainName::parse(name).ok().into_iter().collect();
                        (name.clone(), san, vec![*ip], false)
                    }
                };
            let subject = match DomainName::parse(&cn) {
                Ok(d) => d,
                Err(_) => continue,
            };
            let ca_i = caid::RUSSIAN.0 as usize;
            let chain = vec!["Russian Trusted Root CA".to_owned()];
            if let Some(cert) = self.cas[ca_i].issue(&subject, san, 0, date, chain) {
                // Not CT-logged (logs_to_ct = false) — visible to the
                // IP-wide scan only, via the served chain.
                let summary = ChainSummary::from_certificate(&cert);
                let mut serving = write(&self.serving);
                for ip in ips {
                    serving.insert(ip, summary.clone());
                }
                drop(serving);
                self.issued_index.push(IssuedCert {
                    ca: caid::RUSSIAN,
                    serial: cert.serial,
                    domain: subject,
                    sanctioned,
                });
            }
        }
    }

    fn apply_scripted_moves(&mut self, date: Date) {
        let due: Vec<ScriptedMove> = self
            .scripted_moves
            .iter()
            .filter(|m| m.date == date)
            .cloned()
            .collect();
        for m in due {
            self.move_hosting(&m.domain, m.to);
        }
        // The scripted sanctioned partial→full flip of 2022-03-04.
        if date == Date::from_ymd(2022, 3, 4) {
            let flip: Vec<DomainName> = self
                .domains
                .values()
                .filter(|d| {
                    d.sanctioned
                        && matches!(d.dns, DnsPlan::Managed(PlanId(p)) if p as usize == planidx::NETNOD_CLOUD + 1)
                })
                .map(|d| d.name.clone())
                .take(1)
                .collect();
            for name in flip {
                self.move_plan(&name, 0); // REG.RU DNS: fully Russian
            }
        }
    }

    /// Registrations and lapses.
    fn churn(&mut self, date: Date) {
        let pop = self.domains.len();
        let lapses = self.binomial(pop, self.cfg.daily_churn_rate);
        let growth = (pop as f64 * self.cfg.daily_growth_rate).round() as usize;
        let births = lapses + growth;

        for _ in 0..lapses {
            // Sample a random non-sanctioned domain by provider-weighted
            // sampling of hosting members.
            let provider = self.sample_hosting(date, None);
            let candidate = self.hosting_members[provider.0 as usize]
                .sample(&mut self.rng)
                .cloned();
            if let Some(name) = candidate {
                if self.domains.get(&name).is_some_and(|d| !d.sanctioned) {
                    self.remove_domain(&name);
                }
            }
        }
        for _ in 0..births {
            let tld = if self.rng.random_bool(self.cfg.rf_fraction) {
                "рф"
            } else {
                "ru"
            };
            let name = self.namegen.generate(tld);
            self.add_domain(name, date, None, None, false);
        }
    }

    fn binomial(&mut self, n: usize, p: f64) -> usize {
        // Normal approximation is fine at our scales; exact draw for tiny n.
        if n == 0 || p <= 0.0 {
            return 0;
        }
        if n < 64 {
            return (0..n).filter(|_| self.rng.random_bool(p.min(1.0))).count();
        }
        let mean = n as f64 * p;
        let sd = (n as f64 * p * (1.0 - p)).sqrt();
        let u: f64 = self.rng.random();
        let v: f64 = self.rng.random();
        let z = (-2.0 * u.max(1e-12).ln()).sqrt() * (2.0 * std::f64::consts::PI * v).cos();
        (mean + sd * z).round().clamp(0.0, n as f64) as usize
    }

    /// Move domains between hosting providers toward the share targets.
    fn rebalance_hosting(&mut self, date: Date) {
        let pop = self.domains.len().max(1);
        let mut deficits: Vec<(ProviderId, f64)> = Vec::new();
        let mut surplus_pool: Vec<DomainName> = Vec::new();
        for (pid_, sched) in self.hosting_shares.clone() {
            let target = sched.at(date) * pop as f64;
            let actual = self.hosting_members[pid_.0 as usize].len() as f64;
            let gap = actual - target;
            let cap = (actual * 0.08).max(24.0);
            if gap > 1.0 {
                let k = gap.min(cap).round() as usize;
                let mut picked = 0;
                let mut guard = 0;
                while picked < k && guard < k * 4 {
                    guard += 1;
                    let Some(name) = self.hosting_members[pid_.0 as usize]
                        .sample(&mut self.rng)
                        .cloned()
                    else {
                        break;
                    };
                    let ok = self.domains.get(&name).is_some_and(|d| {
                        !d.sanctioned && d.hosting.primary == pid_ && d.hosting.secondary.is_none()
                    }) && !self.portfolio.contains(&name);
                    if ok && !surplus_pool.contains(&name) {
                        surplus_pool.push(name);
                        picked += 1;
                    }
                }
            } else if gap < -1.0 {
                deficits.push((pid_, -gap));
            }
        }
        let total_deficit: f64 = deficits.iter().map(|(_, d)| d).sum();
        if total_deficit <= 0.0 {
            return;
        }
        for name in surplus_pool {
            let mut x = self.rng.random_range(0.0..total_deficit);
            let mut dest = deficits[0].0;
            for (p, d) in &deficits {
                x -= d;
                if x <= 0.0 {
                    dest = *p;
                    break;
                }
            }
            self.move_hosting(&name, dest);
        }
    }

    /// Move domains between managed DNS plans toward the share targets.
    fn rebalance_plans(&mut self, date: Date) {
        let pop = self.domains.len().max(1);
        let mut deficits: Vec<(usize, f64)> = Vec::new();
        let mut surplus_pool: Vec<DomainName> = Vec::new();
        for i in 0..self.plans.len() {
            let target = self.plans[i].share.at(date) * pop as f64;
            let actual = self.plan_members[i].len() as f64;
            let gap = actual - target;
            let cap = (actual * 0.08).max(24.0);
            if gap > 1.0 {
                let k = gap.min(cap).round() as usize;
                let mut picked = 0;
                let mut guard = 0;
                while picked < k && guard < k * 4 {
                    guard += 1;
                    let Some(name) = self.plan_members[i].sample(&mut self.rng).cloned() else {
                        break;
                    };
                    if self.domains.get(&name).is_some_and(|d| !d.sanctioned)
                        && !surplus_pool.contains(&name)
                    {
                        surplus_pool.push(name);
                        picked += 1;
                    }
                }
            } else if gap < -1.0 {
                deficits.push((i, -gap));
            }
        }
        let total_deficit: f64 = deficits.iter().map(|(_, d)| d).sum();
        if total_deficit <= 0.0 {
            return;
        }
        for name in surplus_pool {
            let mut x = self.rng.random_range(0.0..total_deficit);
            let mut dest = deficits[0].0;
            for (p, d) in &deficits {
                x -= d;
                if x <= 0.0 {
                    dest = *p;
                    break;
                }
            }
            self.move_plan(&name, dest);
        }
    }

    /// Re-home a domain's web hosting (and TLS endpoint) to `to`.
    pub fn move_hosting(&mut self, name: &DomainName, to: ProviderId) {
        let Some(state) = self.domains.get(name).cloned() else {
            return;
        };
        if state.hosting.primary == to {
            return;
        }
        let new_ip = self.web_alloc[to.0 as usize]
            .alloc()
            .expect("address space");
        let old_ip = state.hosting.primary_ip;

        // Update zone A record wherever the domain's zone lives.
        match &state.dns {
            DnsPlan::Managed(p) => {
                let mut zs = write(&self.plan_zone_sets[p.0 as usize]);
                if let Some(zone) = zs.get_mut(&Name::from(name)) {
                    let owner = Name::from(name);
                    zone.remove(&owner, Some(ruwhere_dns::RType::A));
                    zone.add(Record::new(owner, 300, RData::A(new_ip)));
                    if let Some((_, ip)) = state.hosting.secondary {
                        zone.add(Record::new(Name::from(name), 300, RData::A(ip)));
                    }
                }
            }
            DnsPlan::VanityOwn | DnsPlan::VanityExotic(_) => {
                // Vanity DNS rides on the web IP: re-install from scratch.
                self.net.unbind(old_ip, DNS_PORT);
            }
        }

        // TLS endpoint moves with the address.
        if state.tls.is_some() {
            self.net.unbind(old_ip, TLS_PORT);
            let chain = write(&self.serving).remove(&old_ip);
            if let Some(chain) = chain {
                write(&self.serving).insert(new_ip, chain);
            }
            self.net.bind(
                new_ip,
                TLS_PORT,
                Box::new(TlsEndpoint::new(Arc::clone(&self.serving), new_ip)),
            );
        }

        self.hosting_members[state.hosting.primary.0 as usize].remove(name);
        self.hosting_members[to.0 as usize].add(name.clone());
        let mut new_state = state.clone();
        new_state.hosting.primary = to;
        new_state.hosting.primary_ip = new_ip;
        if matches!(state.dns, DnsPlan::VanityOwn | DnsPlan::VanityExotic(_)) {
            self.install_domain(&new_state);
        }
        self.domains.insert(name.clone(), new_state);
    }

    /// Switch a domain's managed DNS plan.
    pub fn move_plan(&mut self, name: &DomainName, to_plan: usize) {
        let Some(state) = self.domains.get(name).cloned() else {
            return;
        };
        let owner = Name::from(name);
        match &state.dns {
            DnsPlan::Managed(p) => {
                if p.0 as usize == to_plan {
                    return;
                }
                write(&self.plan_zone_sets[p.0 as usize]).remove(&owner);
                self.plan_members[p.0 as usize].remove(name);
            }
            DnsPlan::VanityOwn => {
                self.net.unbind(state.hosting.primary_ip, DNS_PORT);
                self.vanity_own_members.remove(name);
            }
            DnsPlan::VanityExotic(_) => {
                self.net.unbind(state.hosting.primary_ip, DNS_PORT);
                self.vanity_exotic_members.remove(name);
            }
        }
        let mut new_state = state;
        new_state.dns = DnsPlan::Managed(PlanId(to_plan as u16));
        self.plan_members[to_plan].add(name.clone());
        self.install_domain(&new_state);
        self.domains.insert(name.clone(), new_state);
    }

    /// Daily certificate issuance across the CA table.
    fn issue_certificates(&mut self, date: Date) {
        let vol = self.cfg.certs_per_day
            * if date < CONFLICT_START {
                1.0
            } else {
                self.cfg.cert_volume_conflict_factor
            };
        let period = Period::of(date);
        for i in 0..self.ca_specs.len() {
            if CaId(i as u16) == caid::RUSSIAN {
                continue;
            }
            let spec_share = match period {
                Period::PreConflict => self.ca_specs[i].share_pre_conflict,
                Period::PreSanctions => self.ca_specs[i].share_pre_sanctions,
                Period::PostSanctions => self.ca_specs[i].share_post_sanctions,
            };
            let stopped = self.ca_specs[i].stop_date.is_some_and(|d| date >= d);
            let mut n = if stopped {
                0
            } else {
                let want = vol * spec_share + self.issue_carry[i];
                let k = want.floor();
                self.issue_carry[i] = want - k;
                k as usize
            };
            // Figure 8's isolated dots: a stopped multi-brand CA leaks the
            // occasional certificate from a lesser-known CN.
            let mut leak_brand = false;
            if stopped && self.ca_specs[i].brands.len() > 1 {
                let h = self
                    .seed
                    .child("brand-leak")
                    .child_idx(i as u64)
                    .child_idx(date.days_since_epoch() as u64)
                    .seed();
                if h.is_multiple_of(11) {
                    n = 1;
                    leak_brand = true;
                }
            }
            for _ in 0..n {
                let Some(name) = self.tls_pool.sample(&mut self.rng).cloned() else {
                    break;
                };
                // Sanctions compliance: once a CA has executed its
                // revoke-all event it never issues to a sanctioned entity
                // again (DigiCert revoked VTB's certificate *and* cut the
                // entity off; it did not re-issue the next week). The slot
                // is dropped rather than resampled — the volume loss is
                // one draw out of thousands.
                if self.refuses_sanctioned(CaId(i as u16), date)
                    && self.domains.get(&name).is_some_and(|d| d.sanctioned)
                {
                    continue;
                }
                let brand = if leak_brand {
                    1 + (self
                        .rng
                        .random_range(0..self.ca_specs[i].brands.len().max(2) - 1))
                } else {
                    self.rng
                        .random_range(0..self.ca_specs[i].brands.len().max(1))
                };
                self.issue_for(CaId(i as u16), &name, brand, date, leak_brand);
            }
        }
    }

    /// Elevated issuance by sanctioned operators "testing different CAs".
    fn issue_sanctioned_certificates(&mut self, date: Date) {
        let names: Vec<DomainName> = self
            .domains
            .values()
            .filter(|d| d.sanctioned)
            .map(|d| d.name.clone())
            .collect();
        // Anchor case: major sanctioned entities held commercial
        // certificates before the conflict (the paper's trigger example is
        // DigiCert's revocation of Russian Bank VTB's certificate,
        // footnote 2). Guarantee DigiCert and Sectigo each hold at least
        // one sanctioned certificate inside the analysis window so the
        // 100 %-revocation rows of Table 2 are non-vacuous at any scale.
        if date == Date::from_ymd(2022, 1, 5).max(self.cfg.cert_start) {
            for (i, ca) in [(0usize, caid::DIGICERT), (1usize, caid::SECTIGO)] {
                if let Some(name) = names.get(i).cloned() {
                    self.issue_for(ca, &name, 0, date, false);
                }
            }
        }
        for name in names {
            if !self.rng.random_bool(SANCTIONED_DAILY_ISSUE) {
                continue;
            }
            // CA choice: mostly Let's Encrypt; the commercial CAs appear
            // pre-stop (giving DigiCert/Sectigo sanctioned certificates to
            // revoke in Table 2).
            let roll: f64 = self.rng.random();
            let ca = if roll < 0.72 {
                caid::LETS_ENCRYPT
            } else if roll < 0.80 {
                caid::GLOBALSIGN
            } else if roll < 0.90 {
                caid::DIGICERT
            } else if roll < 0.96 {
                caid::SECTIGO
            } else {
                caid::ZEROSSL
            };
            let stopped = self.ca_specs[ca.0 as usize]
                .stop_date
                .is_some_and(|d| date >= d);
            if stopped || self.refuses_sanctioned(ca, date) {
                continue;
            }
            let brand = self
                .rng
                .random_range(0..self.ca_specs[ca.0 as usize].brands.len().max(1));
            self.issue_for(ca, &name, brand, date, false);
        }
    }

    /// Issue one certificate for `name` from `ca` and wire all state.
    fn issue_for(&mut self, ca: CaId, name: &DomainName, brand: usize, date: Date, force: bool) {
        let i = ca.0 as usize;
        let saved_policy = self.cas[i].policy;
        if force {
            self.cas[i].policy = CaPolicy::Issuing;
        }
        let san = vec![
            name.clone(),
            name.prepend("www").unwrap_or_else(|_| name.clone()),
        ];
        let chain = vec![format!("{} Root", self.ca_specs[i].org)];
        let cert = self.cas[i].issue(name, san, brand, date, chain);
        if force {
            self.cas[i].policy = saved_policy;
        }
        let Some(cert) = cert else { return };

        let sanctioned = self
            .domains
            .get(name)
            .map(|d| d.sanctioned)
            .unwrap_or(false);
        if cert.ct_logged {
            for log in &mut self.ct_logs {
                log.append(cert.clone(), date);
            }
        }
        self.issued_index.push(IssuedCert {
            ca,
            serial: cert.serial,
            domain: name.clone(),
            sanctioned,
        });
        // Serve the fresh certificate — unless the endpoint already serves
        // a Russian Trusted Root CA chain (its operator deliberately
        // switched to the state CA; later background issuance must not
        // silently revert what the IP scan should observe, §4.3). Domains
        // without a TLS endpoint get the certificate (it exists in CT) but
        // never serve it.
        if let Some(d) = self.domains.get(name).filter(|d| d.tls.is_some()) {
            let summary = ChainSummary::from_certificate(&cert);
            let mut serving = write(&self.serving);
            let keeps_russian = |ip: &std::net::Ipv4Addr, s: &HashMap<Ipv4Addr, ChainSummary>| {
                s.get(ip)
                    .is_some_and(|c| c.chain_contains_org("Russian Trusted Root CA"))
            };
            if !keeps_russian(&d.hosting.primary_ip, &serving) {
                serving.insert(d.hosting.primary_ip, summary.clone());
            }
            if let Some((_, ip)) = d.hosting.secondary {
                if !keeps_russian(&ip, &serving) {
                    serving.insert(ip, summary);
                }
            }
        }
        // Background revocation.
        let rate = self.ca_specs[i].background_revocation_rate;
        if rate > 0.0 && self.rng.random_bool(rate.min(1.0)) {
            let when = date.add_days(self.rng.random_range(3..45));
            self.pending_revocations
                .entry(when)
                .or_default()
                .push((ca, cert.serial));
        }
    }

    fn process_revocations(&mut self, date: Date) {
        let due: Vec<(CaId, u64)> = self
            .pending_revocations
            .range(..=date)
            .flat_map(|(_, v)| v.iter().copied())
            .collect();
        self.pending_revocations.retain(|d, _| *d > date);
        for (ca, serial) in due {
            let org = self.ca_specs[ca.0 as usize].org.to_owned();
            let reason = if self.rng.random_bool(0.5) {
                RevocationReason::CessationOfOperation
            } else {
                RevocationReason::Superseded
            };
            self.ocsp.crl_mut(&org).revoke(serial, date, reason);
        }
    }

    fn snapshot_geo(&mut self, effective: Date) {
        let db = GeoDbBuilder::from_topology(self.net.topology()).build();
        self.geo.add_snapshot(effective, db);
    }

    /// Install today's TLD zone snapshots into the RIPN server and
    /// refresh the WHOIS database.
    ///
    /// A measurement sweep (`OpenIntelScanner::sweep_frame`) publishes on
    /// its own; call this only before talking to the RIPN servers
    /// directly (a bare resolver, a zone transfer or WHOIS).
    /// Zone-transfer chunks are rendered from the published zones on the
    /// first request for each TLD.
    pub fn publish_tld_zones(&mut self) {
        let mut zs = write(&self.ripn_zones);
        for r in &self.registries {
            zs.insert(r.zone_snapshot(self.today));
        }
        drop(zs);
        write(&self.xfr_chunks).clear();
        *write(&self.whois_state) = self.registries.clone();
    }

    /// Address of the registry's zone-transfer service.
    pub fn xfr_server(&self) -> (Ipv4Addr, u16) {
        (self.ripn_ip, XFR_PORT)
    }

    /// Address of the registry's WHOIS service (port 43 protocol over the
    /// simulated network) — the stand-in for Cisco's Whois Domain API that
    /// §3.4 uses to confirm registration dates.
    pub fn whois_server(&self) -> (Ipv4Addr, u16) {
        (self.ripn_ip, WHOIS_PORT)
    }

    /// Finish OCSP issuer registration (max serials) — call before reading
    /// revocation state in analysis.
    pub fn finalize_ocsp(&mut self) {
        for (i, spec) in self.ca_specs.iter().enumerate() {
            let max = self.cas[i].issued_count();
            self.ocsp.register_issuer(spec.org, max);
        }
    }

    /// Enumerate (CA, serial, domain, sanctioned) issuance rows for
    /// ground-truth validation in tests.
    pub fn issued_certificates(&self) -> impl Iterator<Item = (CaId, u64, &DomainName, bool)> {
        self.issued_index
            .iter()
            .map(|c| (c.ca, c.serial, &c.domain, c.sanctioned))
    }

    /// The extra non-RU-TLD Russian-affiliated sites (name, address).
    pub fn extra_sites(&self) -> &[(String, Ipv4Addr)] {
        &self.extra_sites
    }

    /// Verify internal cross-structure consistency; returns the list of
    /// violations (empty = consistent). Used by tests after build and
    /// after evolution to catch bookkeeping regressions.
    pub fn check_invariants(&self) -> Vec<String> {
        let mut problems = Vec::new();

        // 1. Membership lists agree with domain states.
        let mut hosting_counts = vec![0usize; self.providers.len()];
        let mut plan_counts = vec![0usize; self.plans.len()];
        let mut vanity_own = 0usize;
        let mut vanity_exotic = 0usize;
        for (name, state) in &self.domains {
            hosting_counts[state.hosting.primary.0 as usize] += 1;
            if let Some((sec, _)) = state.hosting.secondary {
                hosting_counts[sec.0 as usize] += 1;
            }
            match &state.dns {
                DnsPlan::Managed(p) => plan_counts[p.0 as usize] += 1,
                DnsPlan::VanityOwn => vanity_own += 1,
                DnsPlan::VanityExotic(_) => vanity_exotic += 1,
            }
            // 2. Registry entry exists.
            let reg = &self.registries[if name.tld() == "ru" { 0 } else { 1 }];
            if reg.get(name).is_none() {
                problems.push(format!("{name}: missing registry entry"));
            }
            // 3. TLS domains have bound endpoints.
            if state.tls.is_some() && !self.net.is_bound(state.hosting.primary_ip, TLS_PORT) {
                problems.push(format!("{name}: TLS endpoint not bound"));
            }
            // 4. Managed domains have their zone in the plan's zone set.
            if let DnsPlan::Managed(p) = &state.dns {
                if read(&self.plan_zone_sets[p.0 as usize])
                    .get(&Name::from(name))
                    .is_none()
                {
                    problems.push(format!("{name}: zone missing from plan set"));
                }
            }
        }
        for (i, expected) in hosting_counts.iter().enumerate() {
            let actual = self.hosting_members[i].len();
            if actual != *expected {
                problems.push(format!(
                    "hosting members[{}] = {actual}, states say {expected}",
                    self.providers[i].name
                ));
            }
        }
        for (i, expected) in plan_counts.iter().enumerate() {
            let actual = self.plan_members[i].len();
            if actual != *expected {
                problems.push(format!(
                    "plan members[{}] = {actual}, states say {expected}",
                    self.plans[i].name
                ));
            }
        }
        if self.vanity_own_members.len() != vanity_own {
            problems.push(format!(
                "vanity-own members = {}, states say {vanity_own}",
                self.vanity_own_members.len()
            ));
        }
        if self.vanity_exotic_members.len() != vanity_exotic {
            problems.push(format!(
                "vanity-exotic members = {}, states say {vanity_exotic}",
                self.vanity_exotic_members.len()
            ));
        }
        // 5. Serving map points at addresses that are actually bound.
        for ip in read(&self.serving).keys() {
            if !self.net.is_bound(*ip, TLS_PORT) {
                problems.push(format!("serving map entry {ip} has no bound endpoint"));
            }
        }
        problems
    }
}

enum ZoneHome {
    Plan(usize),
    SelfHosted,
    ExoticVanity(DomainName),
}

/// Zone-transfer chunks per TLD, shared by the world (which clears them
/// at publish) and the transfer service (which fills them).
type XfrChunks = Arc<RwLock<HashMap<String, Vec<String>>>>;

/// Chunked zone transfer (the AXFR-over-TCP analogue): request
/// `XFR <tld> <chunk>`; response `XFRHDR <total-chunks>\n<payload>`.
///
/// Serves the zones last published into the RIPN zone set. A TLD's text
/// is rendered and chunked on its first request after a publish and
/// memoised, because a client fetches a transfer chunk by chunk.
struct ZoneTransferService {
    /// Request key (the registry's TLD string) → zone origin.
    tlds: Vec<(String, Name)>,
    zones: SharedZoneSet,
    chunks: XfrChunks,
}

impl ruwhere_netsim::Service for ZoneTransferService {
    fn handle(
        &self,
        payload: &[u8],
        _src: (Ipv4Addr, u16),
        _now: ruwhere_netsim::SimTime,
    ) -> Option<Vec<u8>> {
        let text = std::str::from_utf8(payload).ok()?;
        let mut parts = text.split_whitespace();
        if parts.next()? != "XFR" {
            return None;
        }
        let tld = parts.next()?;
        let chunk: usize = parts.next()?.parse().ok()?;
        let (key, origin) = self.tlds.iter().find(|(key, _)| key == tld)?;
        let mut memo = write(&self.chunks);
        if !memo.contains_key(key) {
            let text = read(&self.zones).get(origin)?.to_text();
            memo.insert(key.clone(), split_zone_text(&text));
        }
        let chunks = &memo[key];
        let body = chunks.get(chunk)?;
        Some(format!("XFRHDR {}\n{}", chunks.len(), body).into_bytes())
    }

    fn processing_us(&self) -> u64 {
        800
    }
}

/// Split zone text into transfer chunks of at most [`XFR_CHUNK`] bytes,
/// each ending on a line boundary where one exists. An empty zone text
/// is one empty chunk.
fn split_zone_text(text: &str) -> Vec<String> {
    let bytes = text.as_bytes();
    let mut chunks = Vec::with_capacity(bytes.len() / XFR_CHUNK + 1);
    let mut start = 0;
    while start < bytes.len() {
        // Split on a line boundary at or before the chunk size.
        let mut end = (start + XFR_CHUNK).min(bytes.len());
        if end < bytes.len() {
            while end > start && bytes[end - 1] != b'\n' {
                end -= 1;
            }
            if end == start {
                end = (start + XFR_CHUNK).min(bytes.len());
            }
        }
        chunks.push(String::from_utf8_lossy(&bytes[start..end]).into_owned());
        start = end;
    }
    if chunks.is_empty() {
        chunks.push(String::new());
    }
    chunks
}

/// Port-43 WHOIS over the registry database (see
/// [`ruwhere_registry::whois`] for the protocol).
struct WhoisService {
    state: Arc<RwLock<Vec<Registry>>>,
}

impl ruwhere_netsim::Service for WhoisService {
    fn handle(
        &self,
        payload: &[u8],
        _src: (Ipv4Addr, u16),
        _now: ruwhere_netsim::SimTime,
    ) -> Option<Vec<u8>> {
        let query = std::str::from_utf8(payload).ok()?;
        Some(ruwhere_registry::whois::respond(&read(&self.state), query).into_bytes())
    }

    fn processing_us(&self) -> u64 {
        400
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    #[test]
    fn member_set_add_remove_sample() {
        let mut set = MemberSet::default();
        assert!(set.is_empty());
        for i in 0..50 {
            set.add(d(&format!("m{i}.ru")));
        }
        assert_eq!(set.len(), 50);
        // Duplicate adds are no-ops.
        set.add(d("m0.ru"));
        assert_eq!(set.len(), 50);
        // Removal from the middle keeps positions consistent.
        set.remove(&d("m10.ru"));
        set.remove(&d("m49.ru")); // last element
        set.remove(&d("m0.ru"));
        assert_eq!(set.len(), 47);
        set.remove(&d("not-present.ru"));
        assert_eq!(set.len(), 47);
        // Every remaining element is reachable by repeated sampling.
        let mut rng = SeedTree::new(1).child("t").rng();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..5_000 {
            seen.insert(set.sample(&mut rng).unwrap().clone());
        }
        assert_eq!(seen.len(), 47);
        assert!(!seen.contains(&d("m10.ru")));
        assert!(!seen.contains(&d("m0.ru")));
        assert!(!seen.contains(&d("m49.ru")));
    }

    #[test]
    fn member_set_positions_survive_interleaving() {
        let mut set = MemberSet::default();
        let mut model: std::collections::BTreeSet<DomainName> = Default::default();
        let mut rng = SeedTree::new(2).child("x").rng();
        for step in 0..2_000u32 {
            if rng.random_bool(0.6) || model.is_empty() {
                let name = d(&format!("x{step}.ru"));
                set.add(name.clone());
                model.insert(name);
            } else {
                let pick = set.sample(&mut rng).unwrap().clone();
                set.remove(&pick);
                model.remove(&pick);
            }
            assert_eq!(set.len(), model.len(), "diverged at step {step}");
        }
        let mut items: Vec<DomainName> = set.items().to_vec();
        items.sort();
        let expected: Vec<DomainName> = model.into_iter().collect();
        assert_eq!(items, expected);
    }

    #[test]
    fn binomial_approximation_is_sane() {
        let mut w = World::new(WorldConfig::tiny());
        // Small-n exact path.
        let k = w.binomial(10, 0.0);
        assert_eq!(k, 0);
        let k = w.binomial(10, 1.0);
        assert_eq!(k, 10);
        // Large-n normal path stays within hard bounds and near the mean.
        let mut total = 0usize;
        for _ in 0..200 {
            let k = w.binomial(10_000, 0.01);
            assert!(k <= 10_000);
            total += k;
        }
        let mean = total as f64 / 200.0;
        assert!(
            (80.0..120.0).contains(&mean),
            "mean {mean} too far from 100"
        );
    }

    #[test]
    fn sample_hosting_respects_country_restriction() {
        let mut w = World::new(WorldConfig::tiny());
        let date = w.today();
        for _ in 0..50 {
            let ru = w.sample_hosting(date, Some(true));
            assert!(w.providers[ru.0 as usize].country.is_russia());
            let non = w.sample_hosting(date, Some(false));
            assert!(!w.providers[non.0 as usize].country.is_russia());
        }
    }

    #[test]
    fn move_hosting_updates_zone_and_endpoints() {
        let mut w = World::new(WorldConfig::tiny());
        // Pick a managed-plan TLS domain.
        let name = w
            .seed_names()
            .into_iter()
            .find(|n| {
                w.domain_state(n).is_some_and(|s| {
                    matches!(s.dns, DnsPlan::Managed(_)) && s.tls.is_some() && !s.sanctioned
                })
            })
            .expect("suitable domain exists");
        let old_ip = w.domain_state(&name).unwrap().hosting.primary_ip;
        w.move_hosting(&name, pid::SERVEREL);
        let state = w.domain_state(&name).unwrap().clone();
        assert_eq!(state.hosting.primary, pid::SERVEREL);
        assert_ne!(state.hosting.primary_ip, old_ip);
        // Old TLS endpoint unbound, new one bound.
        assert!(!w.network().is_bound(old_ip, TLS_PORT));
        assert!(w.network().is_bound(state.hosting.primary_ip, TLS_PORT));
        // The zone now answers with the new address.
        if let DnsPlan::Managed(p) = state.dns {
            let zs = read(&w.plan_zone_sets[p.0 as usize]);
            let zone = zs.get(&Name::from(&name)).expect("zone present");
            match zone.lookup(&Name::from(&name), ruwhere_dns::RType::A) {
                ruwhere_dns::zone::Lookup::Answer(recs) => {
                    assert_eq!(recs.len(), 1);
                    assert_eq!(recs[0].data, RData::A(state.hosting.primary_ip));
                }
                other => panic!("expected answer, got {other:?}"),
            }
        }
        // Idempotent move to the same provider is a no-op.
        let ip_before = state.hosting.primary_ip;
        w.move_hosting(&name, pid::SERVEREL);
        assert_eq!(w.domain_state(&name).unwrap().hosting.primary_ip, ip_before);
    }

    #[test]
    fn move_plan_moves_zone_between_sets() {
        let mut w = World::new(WorldConfig::tiny());
        let name = w
            .seed_names()
            .into_iter()
            .find(|n| {
                w.domain_state(n)
                    .is_some_and(|s| matches!(s.dns, DnsPlan::Managed(PlanId(0))) && !s.sanctioned)
            })
            .expect("plan-0 domain exists");
        let owner = Name::from(&name);
        assert!(read(&w.plan_zone_sets[0]).get(&owner).is_some());
        w.move_plan(&name, 5);
        assert!(read(&w.plan_zone_sets[0]).get(&owner).is_none());
        assert!(read(&w.plan_zone_sets[5]).get(&owner).is_some());
        assert!(matches!(
            w.domain_state(&name).unwrap().dns,
            DnsPlan::Managed(PlanId(5))
        ));
        // Registry delegation now lists plan 5's name servers.
        let reg = &w.registries[if name.tld() == "ru" { 0 } else { 1 }];
        let delegation = &reg.get(&name).unwrap().delegation;
        let plan5_hosts: Vec<DomainName> = w
            .ns_hosts
            .iter()
            .filter(|h| h.plan == 5)
            .map(|h| h.name.clone())
            .collect();
        assert_eq!(delegation.nameservers, plan5_hosts);
    }

    #[test]
    fn remove_domain_cleans_everything() {
        let mut w = World::new(WorldConfig::tiny());
        let name = w
            .seed_names()
            .into_iter()
            .find(|n| {
                w.domain_state(n)
                    .is_some_and(|s| matches!(s.dns, DnsPlan::Managed(_)) && s.tls.is_some())
            })
            .unwrap();
        let state = w.domain_state(&name).unwrap().clone();
        let pop = w.population();
        w.remove_domain(&name);
        assert_eq!(w.population(), pop - 1);
        assert!(w.domain_state(&name).is_none());
        assert!(!w.network().is_bound(state.hosting.primary_ip, TLS_PORT));
        if let DnsPlan::Managed(p) = state.dns {
            assert!(read(&w.plan_zone_sets[p.0 as usize])
                .get(&Name::from(&name))
                .is_none());
        }
        let reg = &w.registries[if name.tld() == "ru" { 0 } else { 1 }];
        assert!(reg.get(&name).is_none());
        // Removing again is a no-op.
        w.remove_domain(&name);
        assert_eq!(w.population(), pop - 1);
    }

    #[test]
    fn portfolio_is_scripted_through_the_oscillation() {
        let mut w = World::new(WorldConfig::tiny());
        let member = w.portfolio.first().cloned().expect("portfolio exists");
        assert_eq!(w.domain_state(&member).unwrap().hosting.primary, pid::SEDO);
        w.advance_to(Date::from_ymd(2022, 2, 26));
        assert_eq!(
            w.domain_state(&member).unwrap().hosting.primary,
            pid::AMAZON
        );
        w.advance_to(Date::from_ymd(2022, 3, 13));
        assert_eq!(w.domain_state(&member).unwrap().hosting.primary, pid::SEDO);
        w.advance_to(Date::from_ymd(2022, 4, 20));
        assert_eq!(
            w.domain_state(&member).unwrap().hosting.primary,
            pid::SERVEREL
        );
    }
}
