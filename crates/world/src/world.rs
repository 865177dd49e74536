//! The [`World`]: construction and the daily evolution driver.

use crate::catalog::{
    self, ca as caid, pid, plan as planidx, CaId, CaSpec, DnsPlanSpec, PlanId, ProviderId,
    ProviderSpec, VANITY_EXOTIC_SHARE, VANITY_OWN_SHARE,
};
use crate::config::WorldConfig;
use crate::domain_state::{DnsPlan, DomainState, HostingPlan};
use crate::timeline::{ConflictEvent, FaultTarget, InfraFault, Timeline};
use crate::tls::{Serving, ServingMap, TlsEndpoint, TLS_PORT};
use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::Rng;
use ruwhere_authdns::{
    AuthServer, PlanTemplate, PlanZones, RootHint, Row, SharedPlanZones, SharedZoneSet, ZoneSet,
};
use ruwhere_ct::revocation::RevocationReason;
use ruwhere_ct::{CaPolicy, CertId, CertificateAuthority, CtLog, OcspResponder, SharedCertStore};
use ruwhere_dns::{Name, RData, Record, SoaData, Zone};
use ruwhere_geo::{GeoDbBuilder, LongitudinalGeoDb};
use ruwhere_netsim::{
    AsInfo, FaultWindow, IpAllocator, Ipv4Net, Network, ServerFault, ServerFaultMode, SimTime,
    Topology,
};
use ruwhere_registry::{Delegation, NameGenerator, Registry, SanctionSource, SanctionsList};
use ruwhere_types::domain::MAX_NAME_LEN;
use ruwhere_types::sync::{read, write};
use ruwhere_types::{Date, DomainName, NameList, Period, SeedTree, CONFLICT_START};
use std::collections::{BTreeMap, HashMap};
use std::net::Ipv4Addr;
use std::sync::{Arc, RwLock, RwLockReadGuard};

/// DNS port.
const DNS_PORT: u16 = 53;
/// WHOIS port.
const WHOIS_PORT: u16 = ruwhere_registry::WHOIS_PORT;
/// Daily probability a sanctioned domain obtains a certificate ("testing
/// different CAs", §4.2).
const SANCTIONED_DAILY_ISSUE: f64 = 0.012;

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
    /// Each plan's served data: one row per managed customer, in plan
    /// membership order (the rebalancer draws from it), and the infra
    /// zones homed on the plan.
    plan_zone_sets: Vec<SharedPlanZones>,
    ns_hosts: Vec<NsHost>,
    /// infra parent domain → (home plan, zone-set owner) for NS-host A
    /// records.
    infra_home: HashMap<DomainName, usize>,

    net: Network,
    /// `[0]` = `.ru`, `[1]` = `.рф`; shared with the WHOIS service, which
    /// answers from the live registries.
    registries: Arc<RwLock<Vec<Registry>>>,
    ripn_zones: SharedZoneSet,
    gtld_zones: SharedZoneSet,
    root_zone: SharedZoneSet,
    scanner_ip: Ipv4Addr,
    root_ip: Ipv4Addr,
    ripn_ip: Ipv4Addr,
    gtld_ip: Ipv4Addr,

    sanctions: SanctionsList,
    scripted_moves: Vec<ScriptedMove>,

    cas: Vec<CertificateAuthority>,
    ca_specs: Vec<CaSpec>,
    /// Every certificate issued, CT-logged or not: the store both CT logs
    /// are over and the serving map serves from.
    certs: SharedCertStore,
    ct_logs: Vec<CtLog>,
    ocsp: OcspResponder,
    pending_revocations: BTreeMap<Date, Vec<(CaId, u64)>>,
    issue_carry: Vec<f64>,
    russian_ca_queue: BTreeMap<Date, Vec<RussianCaTarget>>,

    serving: ServingMap,
    geo: LongitudinalGeoDb,

    domains: BTreeMap<DomainName, DomainState>,
    hosting_members: Vec<NameList<DomainName>>,
    tls_pool: NameList<DomainName>,
    namegen: NameGenerator,
    extra_sites: Vec<(DomainName, Ipv4Addr)>,
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
        let mut plan_zone_sets: Vec<SharedPlanZones> = Vec::new();
        let mut infra_home: HashMap<DomainName, usize> = HashMap::new();
        let name_to_pid: HashMap<&str, usize> = providers
            .iter()
            .enumerate()
            .map(|(i, p)| (p.name, i))
            .collect();
        for (plan_i, plan) in plans.iter().enumerate() {
            let mut hosts = Vec::with_capacity(plan.ns.len());
            for h in &plan.ns {
                let host: DomainName = h.host.parse().expect("catalog host names are valid");
                let op = *name_to_pid
                    .get(h.operator)
                    .expect("catalog operator exists");
                let ip = infra_alloc[op].alloc().expect("infra space");
                infra_home.entry(host.registrable()).or_insert(plan_i);
                hosts.push(Name::from(&host));
                ns_hosts.push(NsHost {
                    name: host,
                    ip,
                    plan: plan_i,
                });
            }
            let template = Self::plan_template(hosts);
            plan_zone_sets.push(Arc::new(RwLock::new(PlanZones::new(template))));
        }

        let certs = SharedCertStore::default();
        let mut world = World {
            rng: seed.child("behave").rng(),
            namegen: NameGenerator::new(seed.child("names")),
            issue_carry: vec![0.0; ca_specs.len()],
            cas: ca_specs
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    // The state CA's chain ends in its own root; every other
                    // CA chains to a root named after it.
                    let root = if CaId(i as u16) == caid::RUSSIAN {
                        s.org.to_owned()
                    } else {
                        format!("{} Root", s.org)
                    };
                    CertificateAuthority::new(
                        s.org,
                        s.country,
                        s.brands,
                        s.logs_to_ct,
                        s.validity_days,
                    )
                    .with_chain(&[&root])
                })
                .collect(),
            ca_specs,
            ct_logs: vec![
                CtLog::over("ruwhere-argon", &certs),
                CtLog::over("ruwhere-xenon", &certs),
            ],
            ocsp: OcspResponder::new(),
            pending_revocations: BTreeMap::new(),
            russian_ca_queue: BTreeMap::new(),
            serving: Arc::new(Serving::new(&certs)),
            certs,
            geo: LongitudinalGeoDb::new(),
            domains: BTreeMap::new(),
            hosting_members: vec![NameList::default(); providers.len()],
            tls_pool: NameList::default(),
            extra_sites: Vec::new(),
            portfolio: Vec::new(),
            scripted_moves: Vec::new(),
            sanctions: SanctionsList::new(),
            registries: Arc::new(RwLock::new(vec![
                Registry::new("ru".parse().expect("static")),
                Registry::new("рф".parse().expect("static")),
            ])),
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
            self.rebalance(start, Pool::Hosting);
            self.rebalance(start, Pool::Plans);
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
    /// `advance_to_time(max lane end)`. A plain clock set: nothing is in
    /// flight between requests. Monotonic: a reading at or before the
    /// current clock is a no-op.
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

    /// The `.ru` and `.рф` registries, read-locked.
    pub fn registries(&self) -> RwLockReadGuard<'_, Vec<Registry>> {
        read(&self.registries)
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
    /// diversity; indexers deduplicate across them. The world's logs are
    /// over one certificate store, so they hold the same entries.
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
        let mut v: Vec<DomainName> = read(&self.registries)
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

    /// What every customer zone on a plan served by `ns` shares: the SOA
    /// naming the first host, one NS record per host, and the TTLs.
    fn plan_template(ns: Vec<Name>) -> PlanTemplate {
        PlanTemplate {
            soa: Self::plan_soa(&ns[0]),
            soa_ttl: 3_600,
            ns,
            ns_ttl: 3_600,
            a_ttl: 300,
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
                registries: Arc::clone(&self.registries),
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
        write(&self.plan_zone_sets[home]).zones_mut().insert(zone);
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
            self.namegen.reserve(parent.clone());
            let registered = self.cfg.start.add_days(-400);
            let mut registries = write(&self.registries);
            let reg = &mut registries[registry_index(parent)];
            let _ = reg.register(parent.clone(), registered, 30);
            let _ = reg.set_delegation(parent, Delegation { nameservers, glue });
        } else {
            self.delegate_in_gtld(parent, &nameservers, &glue);
        }
    }

    /// Delegate `parent` to `ns` in its external TLD zone and replace the
    /// address records of every `glue` host. An empty `ns` with empty glue
    /// addresses clears the delegation.
    fn delegate_in_gtld(
        &self,
        parent: &DomainName,
        ns: &[DomainName],
        glue: &BTreeMap<DomainName, Vec<Ipv4Addr>>,
    ) {
        let tld: Name = parent.tld().parse().expect("valid tld");
        let mut g = write(&self.gtld_zones);
        let Some(zone) = g.get_mut(&tld) else {
            return;
        };
        let owner = Name::from(parent);
        zone.remove(&owner, None);
        for t in ns {
            zone.add(Record::new(owner.clone(), 86_400, RData::Ns(Name::from(t))));
        }
        for (host, addrs) in glue {
            let howner = Name::from(host);
            zone.remove(&howner, None);
            for a in addrs {
                zone.add(Record::new(howner.clone(), 86_400, RData::A(*a)));
            }
        }
    }

    /// Sample a provider id from the hosting-share table at `date`,
    /// optionally restricted to Russian or non-Russian providers.
    fn sample_hosting(&mut self, date: Date, russia: Option<bool>) -> ProviderId {
        let mut weights: Vec<(ProviderId, f64)> = Vec::with_capacity(self.hosting_shares.len());
        weights.extend(
            self.hosting_shares
                .iter()
                .filter(|(p, _)| {
                    russia.is_none_or(|ru| self.providers[p.0 as usize].country.is_russia() == ru)
                })
                .map(|(p, sched)| (*p, sched.at(date).max(0.0))),
        );
        match weighted_index(&mut self.rng, weights.iter().map(|(_, w)| *w)) {
            Some(i) => weights[i].0,
            None => weights.last().map_or(pid::REG_RU, |(p, _)| *p),
        }
    }

    /// Sample a managed DNS plan at `date`.
    fn sample_plan(&mut self, date: Date) -> usize {
        let weights: Vec<f64> = self
            .plans
            .iter()
            .map(|p| p.share.at(date).max(0.0))
            .collect();
        weighted_index(&mut self.rng, weights.iter().copied()).unwrap_or(0)
    }

    fn sample_ca(&mut self, date: Date) -> CaId {
        let period = Period::of(date);
        let shares = self.ca_specs.iter().map(|s| s.share(period));
        weighted_index(&mut self.rng, shares).map_or(caid::LETS_ENCRYPT, |i| CaId(i as u16))
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

        let tls = self.rng.random_bool(0.80);
        if tls {
            // Draws whose values nothing reads: they keep the behaviour
            // stream, and with it every pinned figure, where it was when a
            // TLS domain drew a preferred CA and a renewal batch size.
            self.sample_ca(date);
            self.rng.random_range(1..=4);
        }

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

        let _ =
            write(&self.registries)[registry_index(&name)].register(name.clone(), registered, 30);
        self.install_domain(&state);

        // Membership bookkeeping.
        self.hosting_members[primary.0 as usize].insert(name.clone());
        if let Some((sec, _)) = state.hosting.secondary {
            self.hosting_members[sec.0 as usize].insert(name.clone());
        }
        if state.tls {
            self.tls_pool.insert(name.clone());
        }
        self.domains.insert(name.clone(), state);
        name
    }

    /// Write the domain's zone, delegation, and TLS endpoints into the
    /// infrastructure, according to its current state: a managed domain
    /// becomes a row of its plan, the end of the plan's member list.
    /// [`World::uninstall_dns`] undoes the DNS half.
    fn install_domain(&mut self, state: &DomainState) {
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
                let parent = exotic_parent(&state.name, *i);
                let ns1 = parent.prepend("ns1").expect("valid label");
                (vec![ns1], BTreeMap::new(), ZoneHome::ExoticVanity(parent))
            }
        };

        match zone_home {
            ZoneHome::Plan(plan_i) => {
                // A row shadows a plan zone at the same origin. None can
                // clash: the `.ru`/`.рф` infra domains are reserved in
                // the name generator and registered before any customer.
                assert!(
                    !self.infra_home.contains_key(&state.name),
                    "{} is a name-server domain",
                    state.name
                );
                write(&self.plan_zone_sets[plan_i]).insert_row(Row {
                    name: state.name.clone(),
                    primary: state.hosting.primary_ip,
                    secondary: state.hosting.secondary.map(|(_, ip)| ip),
                });
            }
            ZoneHome::SelfHosted => {
                // AuthServer at the web IP, serving just this zone.
                let zone = Self::own_zone(state, &ns_names, &glue);
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
                let zone = Self::own_zone(state, &ns_names, &glue);
                let ns1 = ns_names[0].clone();
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
                let glue = [(ns1.clone(), vec![state.hosting.primary_ip])].into();
                self.delegate_in_gtld(&parent, &[ns1], &glue);
            }
        }

        // Registry delegation.
        let _ = write(&self.registries)[registry_index(&state.name)].set_delegation(
            &state.name,
            Delegation {
                nameservers: ns_names,
                glue,
            },
        );

        // TLS endpoints.
        if state.tls {
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

    /// Take the domain's DNS out of service: drop a managed domain's plan
    /// row (the plan's last row takes its place), or unbind a vanity
    /// server and clear an exotic parent's gTLD delegation.
    fn uninstall_dns(&mut self, state: &DomainState) {
        match &state.dns {
            DnsPlan::Managed(p) => {
                write(&self.plan_zone_sets[p.0 as usize]).remove_row(&state.name);
            }
            DnsPlan::VanityOwn => {
                self.net.unbind(state.hosting.primary_ip, DNS_PORT);
            }
            DnsPlan::VanityExotic(i) => {
                self.net.unbind(state.hosting.primary_ip, DNS_PORT);
                let parent = exotic_parent(&state.name, *i);
                let ns1 = parent.prepend("ns1").expect("valid label");
                self.delegate_in_gtld(&parent, &[], &[(ns1, Vec::new())].into());
            }
        }
    }

    /// A vanity domain's own zone: the SOA naming its first name server,
    /// the apex A record(s), one NS record per name server and the
    /// in-zone glue.
    fn own_zone(
        state: &DomainState,
        ns_names: &[DomainName],
        glue: &BTreeMap<DomainName, Vec<Ipv4Addr>>,
    ) -> Zone {
        let owner = Name::from(&state.name);
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
        for n in ns_names {
            zone.add(Record::new(owner.clone(), 3_600, RData::Ns(Name::from(n))));
        }
        for (host, addrs) in glue {
            for a in addrs {
                zone.add(Record::new(Name::from(host), 3_600, RData::A(*a)));
            }
        }
        zone
    }

    /// Tear a domain out of the infrastructure (expiry / deletion).
    fn remove_domain(&mut self, name: &DomainName) {
        let Some(state) = self.domains.remove(name) else {
            return;
        };
        self.uninstall_dns(&state);
        self.hosting_members[state.hosting.primary.0 as usize].swap_remove(name);
        if let Some((sec, ip)) = state.hosting.secondary {
            self.hosting_members[sec.0 as usize].swap_remove(name);
            self.net.unbind(ip, TLS_PORT);
            write(&self.serving.index).remove(&ip);
        }
        if state.tls {
            self.net.unbind(state.hosting.primary_ip, TLS_PORT);
            write(&self.serving.index).remove(&state.hosting.primary_ip);
            self.tls_pool.swap_remove(name);
        }
        let _ = write(&self.registries)[registry_index(name)].delete(name);
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
            let name: DomainName = format!("russian-affiliate-{i:02}.{tld}")
                .parse()
                .expect("static pattern");
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
        self.rebalance(date, Pool::Hosting);
        self.rebalance(date, Pool::Plans);
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

    /// Revoke every certificate `ca` issued to a sanctioned domain. The
    /// store holds every issuance, and sanctioned domains are never
    /// churned, so the rows whose CN is a live sanctioned domain are
    /// exactly those certificates.
    fn revoke_all_sanctioned(&mut self, ca: CaId, date: Date) {
        let org = self.ca_specs[ca.0 as usize].org;
        let crl = self.ocsp.crl_mut(org);
        for cert in read(&self.certs).iter() {
            if cert.issuer_org() == org
                && self
                    .domains
                    .get(cert.subject_cn())
                    .is_some_and(|d| d.sanctioned)
            {
                crl.revoke(cert.serial(), date, RevocationReason::PrivilegeWithdrawn);
            }
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
            .filter(|d| d.sanctioned && d.tls)
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
            let (subject, ips) = match &t {
                RussianCaTarget::Domain(name) => {
                    let Some(d) = self.domains.get(name).filter(|d| d.tls) else {
                        continue;
                    };
                    let mut ips = vec![d.hosting.primary_ip];
                    if let Some((_, ip)) = d.hosting.secondary {
                        ips.push(ip);
                    }
                    (name.clone(), ips)
                }
                RussianCaTarget::ExtraSite(i) => {
                    let (name, ip) = &self.extra_sites[*i];
                    (name.clone(), vec![*ip])
                }
            };
            let ca_i = caid::RUSSIAN.0 as usize;
            let mut certs = write(&self.certs);
            let san = std::slice::from_ref(&subject);
            if let Some(cert) = self.cas[ca_i].issue(&mut certs, &subject, san, 0, date) {
                // Not CT-logged (logs_to_ct = false) — visible to the
                // IP-wide scan only, via the served chain.
                let mut serving = write(&self.serving.index);
                for ip in ips {
                    serving.insert(ip, cert);
                }
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
                .items()
                .choose(&mut self.rng)
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

    /// Move domains in `pool` from members above their share target to
    /// members below it. A member over target by more than one domain
    /// offers up to its surplus, capped at 8 % of its domains but at least
    /// 24; each offered domain moves to an under-target member drawn in
    /// proportion to its deficit.
    fn rebalance(&mut self, date: Date, pool: Pool) {
        let pop = self.domains.len().max(1) as f64;
        let targets: Vec<(usize, f64)> = match pool {
            Pool::Hosting => self
                .hosting_shares
                .iter()
                .map(|(p, sched)| (p.0 as usize, sched.at(date)))
                .collect(),
            Pool::Plans => self
                .plans
                .iter()
                .enumerate()
                .map(|(i, plan)| (i, plan.share.at(date)))
                .collect(),
        };
        let mut deficits: Vec<(usize, f64)> = Vec::new();
        let mut surplus_pool: Vec<DomainName> = Vec::new();
        for (slot, share) in targets {
            let actual = self.member_count(pool, slot) as f64;
            let gap = actual - share * pop;
            let cap = (actual * 0.08).max(24.0);
            if gap > 1.0 {
                let k = gap.min(cap).round() as usize;
                let mut picked = 0;
                let mut guard = 0;
                while picked < k && guard < k * 4 {
                    guard += 1;
                    let Some(name) = self.sample_member(pool, slot) else {
                        break;
                    };
                    if self.may_rebalance(pool, slot, &name) && !surplus_pool.contains(&name) {
                        surplus_pool.push(name);
                        picked += 1;
                    }
                }
            } else if gap < -1.0 {
                deficits.push((slot, -gap));
            }
        }
        if deficits.is_empty() {
            return;
        }
        for name in surplus_pool {
            let i = weighted_index(&mut self.rng, deficits.iter().map(|(_, d)| *d));
            let dest = deficits[i.unwrap_or(0)].0;
            match pool {
                Pool::Hosting => self.move_hosting(&name, ProviderId(dest as u16)),
                Pool::Plans => self.move_plan(&name, dest),
            }
        }
    }

    /// Number of domains in member `slot` of `pool`.
    fn member_count(&self, pool: Pool, slot: usize) -> usize {
        match pool {
            Pool::Hosting => self.hosting_members[slot].len(),
            Pool::Plans => read(&self.plan_zone_sets[slot]).rows().len(),
        }
    }

    /// A domain drawn uniformly from member `slot` of `pool`.
    fn sample_member(&mut self, pool: Pool, slot: usize) -> Option<DomainName> {
        match pool {
            Pool::Hosting => self.hosting_members[slot]
                .items()
                .choose(&mut self.rng)
                .cloned(),
            Pool::Plans => read(&self.plan_zone_sets[slot])
                .rows()
                .choose(&mut self.rng)
                .map(|row| row.name.clone()),
        }
    }

    /// Whether the rebalancer may move `name` out of member `slot` of
    /// `pool`. Sanctioned domains move only by script; for hosting, neither
    /// may split-hosted domains nor the scripted parking portfolio.
    fn may_rebalance(&self, pool: Pool, slot: usize, name: &DomainName) -> bool {
        self.domains.get(name).is_some_and(|d| {
            !d.sanctioned
                && match pool {
                    Pool::Hosting => {
                        d.hosting.primary.0 as usize == slot
                            && d.hosting.secondary.is_none()
                            && !self.portfolio.contains(name)
                    }
                    Pool::Plans => true,
                }
        })
    }

    /// Re-home a domain's web hosting (and TLS endpoint) to `to`.
    fn move_hosting(&mut self, name: &DomainName, to: ProviderId) {
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

        // Re-address the apex wherever the domain's DNS lives.
        match &state.dns {
            DnsPlan::Managed(p) => {
                write(&self.plan_zone_sets[p.0 as usize]).set_addresses(
                    name,
                    new_ip,
                    state.hosting.secondary.map(|(_, ip)| ip),
                );
            }
            // Vanity DNS rides on the web IP: re-installed from scratch
            // at the new address below.
            DnsPlan::VanityOwn | DnsPlan::VanityExotic(_) => self.uninstall_dns(&state),
        }

        // TLS endpoint moves with the address.
        if state.tls {
            self.net.unbind(old_ip, TLS_PORT);
            let mut index = write(&self.serving.index);
            if let Some(cert) = index.remove(&old_ip) {
                index.insert(new_ip, cert);
            }
            drop(index);
            self.net.bind(
                new_ip,
                TLS_PORT,
                Box::new(TlsEndpoint::new(Arc::clone(&self.serving), new_ip)),
            );
        }

        self.hosting_members[state.hosting.primary.0 as usize].swap_remove(name);
        self.hosting_members[to.0 as usize].insert(name.clone());
        let mut new_state = state.clone();
        new_state.hosting.primary = to;
        new_state.hosting.primary_ip = new_ip;
        if matches!(state.dns, DnsPlan::VanityOwn | DnsPlan::VanityExotic(_)) {
            self.install_domain(&new_state);
        }
        self.domains.insert(name.clone(), new_state);
    }

    /// Switch a domain to managed DNS plan `to_plan`.
    fn move_plan(&mut self, name: &DomainName, to_plan: usize) {
        let Some(state) = self.domains.get(name).cloned() else {
            return;
        };
        if state.dns == DnsPlan::Managed(PlanId(to_plan as u16)) {
            return;
        }
        self.uninstall_dns(&state);
        let mut new_state = state;
        new_state.dns = DnsPlan::Managed(PlanId(to_plan as u16));
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
            let spec_share = self.ca_specs[i].share(period);
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
                let Some(name) = self.tls_pool.items().choose(&mut self.rng).cloned() else {
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
        // Issuing appends the CT entry every log over the store shares.
        let mut certs = write(&self.certs);
        // The SAN list is the name, then `www.` over it — or the name
        // twice where `www.` would make it longer than a name may be.
        let cert = if name.as_str().len() + "www.".len() <= MAX_NAME_LEN {
            self.cas[i].issue_cn_and_www(&mut certs, name, brand, date)
        } else {
            let san = [name.clone(), name.clone()];
            self.cas[i].issue(&mut certs, name, &san, brand, date)
        };
        if force {
            self.cas[i].policy = saved_policy;
        }
        let Some(cert) = cert else { return };
        let serial = certs.get(cert).serial();

        // Serve the fresh certificate — unless the endpoint already serves
        // a Russian Trusted Root CA chain (its operator deliberately
        // switched to the state CA; later background issuance must not
        // silently revert what the IP scan should observe, §4.3). Domains
        // without a TLS endpoint get the certificate (it exists in CT) but
        // never serve it.
        if let Some(d) = self.domains.get(name).filter(|d| d.tls) {
            let mut serving = write(&self.serving.index);
            let keeps_russian = |ip: &Ipv4Addr, s: &HashMap<Ipv4Addr, CertId>| {
                s.get(ip)
                    .is_some_and(|&c| certs.get(c).chain_contains_org("Russian Trusted Root CA"))
            };
            if !keeps_russian(&d.hosting.primary_ip, &serving) {
                serving.insert(d.hosting.primary_ip, cert);
            }
            if let Some((_, ip)) = d.hosting.secondary {
                if !keeps_russian(&ip, &serving) {
                    serving.insert(ip, cert);
                }
            }
        }
        drop(certs);
        // Background revocation.
        let rate = self.ca_specs[i].background_revocation_rate;
        if rate > 0.0 && self.rng.random_bool(rate.min(1.0)) {
            let when = date.add_days(self.rng.random_range(3..45));
            self.pending_revocations
                .entry(when)
                .or_default()
                .push((ca, serial));
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
            let org = self.ca_specs[ca.0 as usize].org;
            let reason = if self.rng.random_bool(0.5) {
                RevocationReason::CessationOfOperation
            } else {
                RevocationReason::Superseded
            };
            self.ocsp.crl_mut(org).revoke(serial, date, reason);
        }
    }

    fn snapshot_geo(&mut self, effective: Date) {
        let db = GeoDbBuilder::from_topology(self.net.topology()).build();
        self.geo.add_snapshot(effective, db);
    }

    /// Publish today's TLD zones into the RIPN server, so it serves the
    /// registries as of today until the next publish. (WHOIS needs no
    /// publish: it answers from the live registries.)
    ///
    /// The first publish installs full [`Registry::zone_snapshot`]s and
    /// starts the registries recording what they touch. Every later
    /// publish edits the served zones in place
    /// ([`Registry::publish_changes`]), at a cost that grows with the
    /// names changed since the last publish, not with the population.
    ///
    /// A measurement sweep (`OpenIntelScanner::sweep_frame`) publishes on
    /// its own; call this only before talking to the RIPN servers
    /// directly (a bare resolver).
    pub fn publish_tld_zones(&mut self) {
        let mut zones = write(&self.ripn_zones);
        let mut registries = write(&self.registries);
        if zones.is_empty() {
            // The first publish: nothing is served yet.
            for r in registries.iter_mut() {
                zones.insert(r.zone_snapshot(self.today));
                r.record_changes();
            }
        } else {
            for r in registries.iter_mut() {
                let zone = zones
                    .get_mut(&Name::from(r.tld()))
                    .expect("the first publish installed every TLD zone");
                r.publish_changes(self.today, zone);
            }
        }
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

    /// Verify internal cross-structure consistency; returns the list of
    /// violations (empty = consistent). Used by tests after build and
    /// after evolution to catch bookkeeping regressions.
    pub fn check_invariants(&self) -> Vec<String> {
        let mut problems = Vec::new();
        let registries = read(&self.registries);

        // 1. Membership lists agree with domain states.
        let mut hosting_counts = vec![0usize; self.providers.len()];
        let mut plan_counts = vec![0usize; self.plans.len()];
        for (name, state) in &self.domains {
            hosting_counts[state.hosting.primary.0 as usize] += 1;
            if let Some((sec, _)) = state.hosting.secondary {
                hosting_counts[sec.0 as usize] += 1;
            }
            if let DnsPlan::Managed(p) = &state.dns {
                plan_counts[p.0 as usize] += 1;
            }
            // 2. Registry entry exists.
            if !registries.iter().any(|r| r.is_registered(name)) {
                problems.push(format!("{name}: missing registry entry"));
            }
            // 3. TLS domains have bound endpoints.
            if state.tls && !self.net.is_bound(state.hosting.primary_ip, TLS_PORT) {
                problems.push(format!("{name}: TLS endpoint not bound"));
            }
            // 4. Managed domains have a row in their plan, addressed as
            //    their hosting says.
            if let DnsPlan::Managed(p) = &state.dns {
                let plan = read(&self.plan_zone_sets[p.0 as usize]);
                let want = (
                    state.hosting.primary_ip,
                    state.hosting.secondary.map(|(_, ip)| ip),
                );
                match plan.row(name) {
                    None => problems.push(format!("{name}: row missing from its plan")),
                    Some(row) if (row.primary, row.secondary) != want => problems.push(format!(
                        "{name}: plan row serves {:?}, hosting says {want:?}",
                        (row.primary, row.secondary)
                    )),
                    Some(_) => {}
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
        // With every managed domain's row present (4), equal counts mean
        // no plan holds an orphan row.
        for (i, expected) in plan_counts.iter().enumerate() {
            let actual = read(&self.plan_zone_sets[i]).rows().len();
            if actual != *expected {
                problems.push(format!(
                    "plan rows[{}] = {actual}, states say {expected}",
                    self.plans[i].name
                ));
            }
        }
        // 5. Serving map points at addresses that are actually bound.
        for ip in read(&self.serving.index).keys() {
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

/// A population the background rebalancer drifts toward its share
/// targets ([`World::rebalance`]).
#[derive(Clone, Copy)]
enum Pool {
    /// Web hosting providers: `hosting_shares` over `hosting_members`.
    Hosting,
    /// Managed DNS plans: each plan's share over its customer rows.
    Plans,
}

/// Draw an index with probability proportional to `weights`, or `None`
/// when the draw rounds past the last weight.
fn weighted_index(
    rng: &mut StdRng,
    mut weights: impl Iterator<Item = f64> + Clone,
) -> Option<usize> {
    let total: f64 = weights.clone().sum();
    let mut x = rng.random_range(0.0..total.max(f64::MIN_POSITIVE));
    weights.position(|w| {
        x -= w;
        x <= 0.0
    })
}

/// Index into `World::registries` of the registry (`.ru` or `.рф`) that
/// holds `name`.
fn registry_index(name: &DomainName) -> usize {
    if name.tld() == "ru" {
        0
    } else {
        1
    }
}

/// The `<sld>-dns.<tld>` parent whose `ns1` serves a domain on exotic
/// vanity DNS with exotic TLD `i`.
fn exotic_parent(name: &DomainName, i: u16) -> DomainName {
    let sld = name.labels().next().expect("non-empty");
    let tld = catalog::exotic_tld(i as usize);
    format!("{sld}-dns.{tld}").parse().expect("valid name")
}

/// Port-43 WHOIS over the live registry database (see
/// [`ruwhere_registry::whois`] for the protocol).
struct WhoisService {
    registries: Arc<RwLock<Vec<Registry>>>,
}

impl ruwhere_netsim::Service for WhoisService {
    fn handle(
        &self,
        payload: &[u8],
        _src: (Ipv4Addr, u16),
        _now: ruwhere_netsim::SimTime,
        reply: &mut Vec<u8>,
    ) -> bool {
        let Ok(query) = std::str::from_utf8(payload) else {
            return false;
        };
        reply.extend_from_slice(
            ruwhere_registry::whois::respond(&read(&self.registries), query).as_bytes(),
        );
        true
    }

    fn processing_us(&self) -> u64 {
        400
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
                w.domain_state(n)
                    .is_some_and(|s| matches!(s.dns, DnsPlan::Managed(_)) && s.tls && !s.sanctioned)
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
        // The plan row now serves the new address.
        if let DnsPlan::Managed(p) = state.dns {
            let plan = read(&w.plan_zone_sets[p.0 as usize]);
            let row = plan.row(&name).expect("row present");
            assert_eq!(
                (row.primary, row.secondary),
                (state.hosting.primary_ip, None)
            );
        }
        // Idempotent move to the same provider is a no-op.
        let ip_before = state.hosting.primary_ip;
        w.move_hosting(&name, pid::SERVEREL);
        assert_eq!(w.domain_state(&name).unwrap().hosting.primary_ip, ip_before);
    }

    #[test]
    fn move_plan_moves_the_row_between_plans() {
        let mut w = World::new(WorldConfig::tiny());
        let name = w
            .seed_names()
            .into_iter()
            .find(|n| {
                w.domain_state(n)
                    .is_some_and(|s| matches!(s.dns, DnsPlan::Managed(PlanId(0))) && !s.sanctioned)
            })
            .expect("plan-0 domain exists");
        assert!(read(&w.plan_zone_sets[0]).row(&name).is_some());
        let plan5_rows = read(&w.plan_zone_sets[5]).rows().len();
        w.move_plan(&name, 5);
        assert!(read(&w.plan_zone_sets[0]).row(&name).is_none());
        let plan5 = read(&w.plan_zone_sets[5]);
        assert_eq!(plan5.rows().len(), plan5_rows + 1);
        assert_eq!(plan5.rows().last().unwrap().name, name, "joins at the end");
        drop(plan5);
        assert!(matches!(
            w.domain_state(&name).unwrap().dns,
            DnsPlan::Managed(PlanId(5))
        ));
        // Registry delegation now lists plan 5's name servers.
        let delegation = w.registries()[registry_index(&name)]
            .get(&name)
            .unwrap()
            .delegation
            .clone();
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
                    .is_some_and(|s| matches!(s.dns, DnsPlan::Managed(_)) && s.tls)
            })
            .unwrap();
        let state = w.domain_state(&name).unwrap().clone();
        let pop = w.population();
        w.remove_domain(&name);
        assert_eq!(w.population(), pop - 1);
        assert!(w.domain_state(&name).is_none());
        assert!(!w.network().is_bound(state.hosting.primary_ip, TLS_PORT));
        if let DnsPlan::Managed(p) = state.dns {
            assert!(read(&w.plan_zone_sets[p.0 as usize]).row(&name).is_none());
        }
        assert!(w.registries()[registry_index(&name)].get(&name).is_none());
        // Removing again is a no-op.
        w.remove_domain(&name);
        assert_eq!(w.population(), pop - 1);
    }

    /// The exotic parent of `name`, which must be on exotic vanity DNS.
    fn parent_of(w: &World, name: &DomainName) -> DomainName {
        match w.domain_state(name).map(|s| &s.dns) {
            Some(DnsPlan::VanityExotic(i)) => exotic_parent(name, *i),
            other => panic!("{name} is not on exotic vanity DNS: {other:?}"),
        }
    }

    /// Owners the gTLD zone holds for `parent` and for `parent`'s `ns1`.
    fn gtld_owners(w: &World, parent: &DomainName) -> Vec<Name> {
        let owners = [
            Name::from(parent),
            Name::from(&parent.prepend("ns1").unwrap()),
        ];
        let g = read(&w.gtld_zones);
        let zone = g
            .get(&parent.tld().parse::<Name>().unwrap())
            .expect("TLD zone");
        let mut held: Vec<Name> = zone
            .iter()
            .map(|r| r.name.clone())
            .filter(|n| owners.contains(n))
            .collect();
        held.dedup();
        held
    }

    #[test]
    fn exotic_vanity_teardown_clears_the_gtld_delegation() {
        let mut w = World::new(WorldConfig::tiny());
        let exotic: Vec<DomainName> = w
            .seed_names()
            .into_iter()
            .filter(|n| {
                w.domain_state(n)
                    .is_some_and(|s| matches!(s.dns, DnsPlan::VanityExotic(_)))
            })
            .take(2)
            .collect();
        assert_eq!(exotic.len(), 2, "the tiny world has exotic vanity domains");
        let parents: Vec<DomainName> = exotic.iter().map(|n| parent_of(&w, n)).collect();
        for parent in &parents {
            assert_eq!(
                gtld_owners(&w, parent).len(),
                2,
                "{parent} delegated with glue"
            );
        }

        w.move_plan(&exotic[0], 0);
        assert_eq!(
            w.domain_state(&exotic[0]).unwrap().dns,
            DnsPlan::Managed(PlanId(0))
        );
        assert_eq!(gtld_owners(&w, &parents[0]), Vec::<Name>::new());
        assert_eq!(w.check_invariants(), Vec::<String>::new());

        w.remove_domain(&exotic[1]);
        assert!(w.domain_state(&exotic[1]).is_none());
        assert_eq!(gtld_owners(&w, &parents[1]), Vec::<Name>::new());
        assert_eq!(w.check_invariants(), Vec::<String>::new());
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

    #[test]
    fn check_invariants_reports_corrupt_plan_rows() {
        let w = World::new(WorldConfig::tiny());
        assert_eq!(w.check_invariants(), Vec::<String>::new());
        let (name, plan) = w
            .domains
            .iter()
            .find_map(|(n, s)| match s.dns {
                DnsPlan::Managed(p) => Some((n.clone(), p.0 as usize)),
                _ => None,
            })
            .expect("a managed domain");
        let row = read(&w.plan_zone_sets[plan]).row(&name).unwrap().clone();

        // A row serving other addresses than the domain's hosting.
        write(&w.plan_zone_sets[plan]).set_addresses(&name, row.primary, Some(row.primary));
        let problems = w.check_invariants();
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].starts_with(&format!("{name}: plan row serves")));
        write(&w.plan_zone_sets[plan]).insert_row(row.clone());
        assert_eq!(w.check_invariants(), Vec::<String>::new());

        // A missing row, which also leaves the plan a row short.
        write(&w.plan_zone_sets[plan]).remove_row(&name);
        let problems = w.check_invariants();
        assert_eq!(problems.len(), 2, "{problems:?}");
        assert_eq!(problems[0], format!("{name}: row missing from its plan"));
        assert!(problems[1].starts_with("plan rows["));

        // The same row in another plan: an orphan there.
        let other = (plan + 1) % w.plans.len();
        write(&w.plan_zone_sets[plan]).insert_row(row.clone());
        write(&w.plan_zone_sets[other]).insert_row(row);
        let problems = w.check_invariants();
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].starts_with(&format!("plan rows[{}]", w.plans[other].name)));
    }

    /// `name`'s question, its letters alternately upper- and lowercase.
    fn mixed_case_query(id: u16, name: &Name, rtype: ruwhere_dns::RType) -> Vec<u8> {
        let mut wire = ruwhere_dns::Message::query(id, name.clone(), rtype)
            .encode()
            .unwrap();
        // The question name starts after the 12-byte header; length
        // octets are below 64, so only letters change.
        for (i, b) in wire[12..12 + name.wire_len()].iter_mut().enumerate() {
            if i % 2 == 0 {
                b.make_ascii_uppercase();
            }
        }
        wire
    }

    #[test]
    fn plan_rows_answer_byte_for_byte_like_whole_zones() {
        use ruwhere_dns::{Message, RType};
        use ruwhere_netsim::Service;

        // More split hosting than the paper's 0.19 %, so that rows with a
        // secondary address are common.
        let mut cfg = WorldConfig::tiny();
        cfg.hosting_part_ru_at_start = 0.2;
        let mut w = World::new(cfg);
        w.advance_to(Date::from_ymd(2022, 3, 20));
        // Explicit moves on top of the churn and rebalancing.
        let managed: Vec<DomainName> = w
            .domains
            .iter()
            .filter(|(_, s)| matches!(s.dns, DnsPlan::Managed(_)) && !s.sanctioned)
            .map(|(n, _)| n.clone())
            .collect();
        for (i, name) in managed.iter().take(40).enumerate() {
            if i % 2 == 0 {
                w.move_plan(name, i % w.plans.len());
            } else {
                w.move_hosting(name, pid::SERVEREL);
            }
        }
        assert_eq!(w.check_invariants(), Vec::<String>::new());

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
        let src = ("10.0.0.1".parse().unwrap(), 40_000);
        let (mut compared, mut split) = (0, 0);
        for plan in 0..w.plans.len() {
            // The plan as whole zones, built from the domain states the
            // way customer zones were built before they became rows.
            let ns: Vec<DomainName> = w
                .ns_hosts
                .iter()
                .filter(|h| h.plan == plan)
                .map(|h| h.name.clone())
                .collect();
            let mut reference = read(&w.plan_zone_sets[plan]).zones().clone();
            let mut names: Vec<Name> = w.ns_hosts.iter().map(|h| Name::from(&h.name)).collect();
            names.extend(w.infra_home.keys().map(Name::from));
            names.extend(["ru", "example.com", "no-such-name.ru"].map(|n| n.parse().unwrap()));
            for state in w.domains.values() {
                if state.dns == DnsPlan::Managed(PlanId(plan as u16)) {
                    reference.insert(World::own_zone(state, &ns, &BTreeMap::new()));
                    split += usize::from(state.hosting.secondary.is_some());
                }
                names.push(Name::from(&state.name));
                names.push(Name::from(&state.name.prepend("www").unwrap()));
                names.push(Name::from(
                    &state.name.prepend("a").unwrap().prepend("b").unwrap(),
                ));
            }
            let rows = AuthServer::new(Arc::clone(&w.plan_zone_sets[plan]));
            let zones = AuthServer::new(Arc::new(RwLock::new(reference)));
            let serve = |srv: &dyn Service, q: &[u8]| {
                let mut out = Vec::new();
                srv.handle(q, src, SimTime::ZERO, &mut out).then_some(out)
            };
            for (i, name) in names.iter().enumerate() {
                for (t, &rtype) in types.iter().enumerate() {
                    let id = (i * types.len() + t) as u16;
                    let plain = Message::query(id, name.clone(), rtype).encode().unwrap();
                    for q in [plain, mixed_case_query(id, name, rtype)] {
                        let want = serve(&zones, &q);
                        assert!(want.is_some(), "{name} {rtype}: no reference reply");
                        assert_eq!(serve(&rows, &q), want, "plan {plan}: {name} {rtype}");
                        compared += 1;
                    }
                }
            }
        }
        assert!(split > 10, "only {split} managed domains hosted split");
        assert!(compared > 100_000, "only {compared} replies compared");
    }
}
