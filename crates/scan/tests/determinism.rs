//! The parallel sweep engine's determinism contract: for ANY worker
//! count, the merged daily sweep is byte-identical to the 1-worker run —
//! faults, packet loss, partial-sweep salvage, completeness
//! classification AND the embedded observability section (histograms,
//! per-link tables, cause recorders) included. Worker count trades
//! wall-clock time only.

use proptest::prelude::*;
use ruwhere_authdns::{
    IterativeResolver, NoDependencyCache, Resolution, ResolveError, ResolverObs, ResolverStats,
};
use ruwhere_dns::{Name, RType, Record};
use ruwhere_netsim::fault::{FaultWindow, LinkFault, ServerFault, ServerFaultMode};
use ruwhere_netsim::{NetObs, NetStats, SimTime};
use ruwhere_scan::{OpenIntelScanner, SweepFrame, SweepOptions};
use ruwhere_store::checkpoint::fnv1a64;
use ruwhere_types::DomainName;
use ruwhere_world::{ConflictEvent, FaultTarget, InfraFault, World, WorldConfig};
use std::net::Ipv4Addr;

/// One measured day: the columnar frame and the interner's canonical
/// symbol-table dump that gives its symbols meaning.
struct Measured {
    frame: SweepFrame,
    interner_dump: String,
}

/// A randomly drawn measurement day: worker count, background loss, and
/// an active fault window (timeline infrastructure fault + direct server
/// fault + link degradation) the sweep runs inside.
#[derive(Debug, Clone)]
struct DaySpec {
    workers: usize,
    loss: f64,
    fault_day_offset: i32,
    target: FaultTarget,
    duration_hours: u32,
    server_octets: (u8, u8),
    server_flaps: bool,
    link_loss: f64,
    link_provider: u8,
}

fn arb_day() -> impl Strategy<Value = DaySpec> {
    (
        2usize..=8,
        0.0f64..0.2,
        1i32..8,
        prop_oneof![
            Just(FaultTarget::RuTldServers),
            Just(FaultTarget::Root),
            Just(FaultTarget::GtldServers),
        ],
        1u32..30,
        (0u8..8, 1u8..255),
        any::<bool>(),
        0.0f64..0.25,
        0u8..8,
    )
        .prop_map(
            |(
                workers,
                loss,
                fault_day_offset,
                target,
                duration_hours,
                server_octets,
                server_flaps,
                link_loss,
                link_provider,
            )| DaySpec {
                workers,
                loss,
                fault_day_offset,
                target,
                duration_hours,
                server_octets,
                server_flaps,
                link_loss,
                link_provider,
            },
        )
}

/// Sweep the spec's fault day with the given worker count.
fn sweep_with_workers(spec: &DaySpec, workers: usize) -> Measured {
    let mut cfg = WorldConfig::tiny();
    let fault_date = cfg.start.add_days(spec.fault_day_offset);
    cfg.extra_events.push((
        fault_date,
        ConflictEvent::InfrastructureFault(InfraFault {
            target: spec.target,
            duration_hours: spec.duration_hours,
        }),
    ));
    let mut world = World::new(cfg);
    world.network_mut().loss_rate = spec.loss;

    let mode = if spec.server_flaps {
        ServerFaultMode::Flapping { period_us: 750_000 }
    } else {
        ServerFaultMode::Outage
    };
    let plan = world.network_mut().faults_mut();
    plan.add_server_fault(ServerFault {
        addr: Ipv4Addr::new(20, spec.server_octets.0, 128, spec.server_octets.1),
        port: None,
        mode,
        window: FaultWindow::from(SimTime::ZERO),
    });
    plan.add_link_fault(LinkFault {
        prefix: format!("20.{}.0.0/16", spec.link_provider).parse().unwrap(),
        extra_loss: spec.link_loss,
        extra_latency_us: 15_000,
        window: FaultWindow::from(SimTime::ZERO),
    });

    world.advance_to(fault_date);
    let mut scanner = OpenIntelScanner::with_options(&world, SweepOptions::new().workers(workers));
    let frame = scanner.sweep_frame(&mut world);
    let interner_dump = scanner.interner().dump();
    Measured {
        frame,
        interner_dump,
    }
}

proptest! {
    // World construction dominates each case, and every case sweeps the
    // world twice; a handful of cases still covers all fault targets,
    // both server-fault modes and a spread of worker counts.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn n_worker_sweep_is_byte_identical_to_serial(spec in arb_day()) {
        let serial = sweep_with_workers(&spec, 1);
        let sharded = sweep_with_workers(&spec, spec.workers);
        // Symbol assignment is a pure function of the zone snapshot and
        // the merged record order — never of the sharding (DESIGN.md
        // §10), so the whole symbol table dumps byte-identically.
        prop_assert_eq!(&serial.interner_dump, &sharded.interner_dump);
        // And with identical symbol tables, the columnar frames (date,
        // stats, domain syms, offset columns, address/country/ASN columns)
        // are equal wholesale.
        prop_assert_eq!(&serial.frame, &sharded.frame);
        let (serial, sharded) = (serial.frame, sharded.frame);
        // The observability section merges associatively over whatever
        // sharding the worker count induced: merged histograms, link
        // tables and cause recorders are equal — and their JSON export is
        // byte-identical, which is what the CI determinism gate compares.
        prop_assert_eq!(&serial.metrics, &sharded.metrics);
        prop_assert_eq!(serial.metrics.render_json(), sharded.metrics.render_json());
    }
}

/// Worker counts far beyond the seed count (empty shards) change nothing
/// either.
#[test]
fn more_workers_than_useful_is_still_identical() {
    let sweep = |workers: usize| {
        let mut world = World::new(WorldConfig::tiny());
        world.network_mut().loss_rate = 0.1;
        let mut scanner =
            OpenIntelScanner::with_options(&world, SweepOptions::new().workers(workers));
        let frame = scanner.sweep_frame(&mut world);
        (frame, scanner.interner().dump())
    };
    let (serial, serial_dump) = sweep(1);
    let (wide, wide_dump) = sweep(64);
    assert_eq!(serial_dump, wide_dump);
    assert_eq!(serial, wide);
    assert_eq!(serial.metrics.render_json(), wide.metrics.render_json());
}

/// The tiny world at 15 % background loss with the first name-server box
/// of four hosting providers flapping (provider ids 3..=6; 0 and 1 are
/// the root and the TLD operator): timeouts, retries and penalty boxes
/// on every layer of a sweep.
fn flapping_hoster_world() -> World {
    let mut world = World::new(WorldConfig::tiny());
    world.network_mut().loss_rate = 0.15;
    let plan = world.network_mut().faults_mut();
    for provider in 3..7u8 {
        plan.add_server_fault(ServerFault {
            addr: Ipv4Addr::new(20, provider, 128, 1),
            port: None,
            mode: ServerFaultMode::Flapping { period_us: 750_000 },
            window: FaultWindow::from(SimTime::ZERO),
        });
    }
    world
}

/// A faulted sweep's counters and metric section, pinned. The warmup,
/// every NS-target fill and every domain charge the sweep's totals; a
/// charge site that counted a lane twice or dropped one would move these
/// figures while every worker count still agreed with every other.
#[test]
fn faulted_sweep_counters_are_pinned() {
    let mut world = flapping_hoster_world();
    let mut scanner = OpenIntelScanner::with_options(&world, SweepOptions::new().workers(1));
    let frame = scanner.sweep_frame(&mut world);
    assert_eq!(
        format!("{:?}", frame.stats),
        "SweepStats { seeded: 525, ns_failures: 17, apex_failures: 24, queries: 2025, \
         virtual_elapsed_us: 2121105148, timeouts: 241, servfails: 0, lame: 0, \
         retries_spent: 241, ns_cache_hits: 1291, ns_cache_misses: 100, shards_retried: 0, \
         shards_lost: 0, completeness: Full }"
    );
    assert_eq!(
        fnv1a64(frame.metrics.render_json().as_bytes()),
        0xaa71_80b0_2479_5cbc,
        "the sweep's metric section moved"
    );
    assert_eq!(scanner.queries_sent(), frame.stats.queries);
}

/// Everything one domain's measurement leaves behind: the answers, the
/// resolver's counters and observability, and the lane's.
#[derive(Debug, PartialEq)]
struct DomainRun {
    ns: Result<Resolution, ResolveError>,
    targets: Vec<Result<Resolution, ResolveError>>,
    apex: Result<Resolution, ResolveError>,
    queries: u64,
    stats: ResolverStats,
    obs: ResolverObs,
    net: NetStats,
    net_obs: NetObs,
    elapsed_us: u64,
}

/// Measure `domain` the way a sweep worker does: reset the overlay, then
/// resolve the NS set, each NS target and the apex on the domain's lane.
fn measure(world: &World, resolver: &mut IterativeResolver, domain: &DomainName) -> DomainRun {
    let mut lane = world
        .network()
        .lane(format_args!("{}/{}", world.today(), domain));
    resolver.reset();
    let qname = Name::from(domain);
    let ns = resolver.resolve(&mut lane, &qname, RType::Ns);
    let targets = match &ns {
        Ok(res) => res
            .ns_targets()
            .iter()
            .map(|t| resolver.resolve(&mut lane, t, RType::A))
            .collect(),
        Err(_) => Vec::new(),
    };
    let apex = resolver.resolve(&mut lane, &qname, RType::A);
    DomainRun {
        ns,
        targets,
        apex,
        queries: resolver.queries_sent(),
        stats: resolver.stats(),
        obs: resolver.take_obs(),
        net: lane.stats(),
        net_obs: lane.take_obs(),
        elapsed_us: lane.elapsed_us(),
    }
}

/// A worker's overlay is reused for every domain of its shard. Under a
/// fault plan that leaves timeouts, penalty boxes and half-walked cuts in
/// the overlay, a reset must still give each domain exactly what a fresh
/// overlay gives it — the same answers, counters and observability — or
/// a domain's measurement would depend on the domains its worker measured
/// before.
#[test]
fn a_reused_overlay_measures_like_a_fresh_one() {
    let mut world = flapping_hoster_world();
    world.publish_tld_zones();
    let seeds = world.seed_names();

    // Prime on a few domains of its own, so the frozen base carries cuts,
    // answers, SRTT and (cleared) penalties.
    let mut primed = IterativeResolver::new(world.scanner_ip(), world.root_hints());
    let mut warmup = world.network().lane(format_args!("warmup"));
    for d in seeds.iter().rev().take(8) {
        let _ = primed.resolve(&mut warmup, &Name::from(d), RType::Ns);
    }
    assert!(primed.obs().penalty_entries > 0, "warmup saw no penalty");
    let base = primed.freeze();

    let mut reused = IterativeResolver::overlay(&base);
    let (mut answered, mut timeouts, mut penalties) = (0, 0, 0);
    for d in seeds.iter().take(40) {
        let fresh = measure(&world, &mut IterativeResolver::overlay(&base), d);
        let again = measure(&world, &mut reused, d);
        assert_eq!(
            again, fresh,
            "{d}: the reused overlay remembered earlier domains"
        );
        answered += u32::from(fresh.apex.is_ok());
        timeouts += fresh.stats.timeouts;
        penalties += fresh.obs.penalty_entries;
    }
    assert!(answered > 20, "only {answered} of 40 domains answered");
    assert!(timeouts > 0 && penalties > 0, "the fault plan never bit");
}

/// One resolution and the resolver's counters right after it.
#[derive(Debug, PartialEq)]
struct Answered {
    records: Result<Vec<Record>, ResolveError>,
    queries: u64,
    stats: ResolverStats,
    obs: ResolverObs,
    elapsed_us: u64,
}

/// Resolve `domain`'s NS set, then its apex, on a fresh overlay over
/// `base` and the domain's own lane, through the streamed path
/// (`resolve_into`) or the owned one (`resolve`).
fn answer_both(
    world: &World,
    base: &std::sync::Arc<ruwhere_authdns::PrimedBase>,
    domain: &DomainName,
    streamed: bool,
) -> [Answered; 2] {
    let mut resolver = IterativeResolver::overlay(base);
    let mut lane = world
        .network()
        .lane(format_args!("{}/{}", world.today(), domain));
    let qname = Name::from(domain);
    [RType::Ns, RType::A].map(|rtype| {
        let records = if streamed {
            let mut got = Vec::new();
            resolver
                .resolve_into(&mut lane, &qname, rtype, &NoDependencyCache, &mut |r| {
                    got.push(r.to_record())
                })
                .map(|()| got)
        } else {
            resolver
                .resolve(&mut lane, &qname, rtype)
                .map(|res| match res {
                    Resolution::Records(r) => r.to_vec(),
                    Resolution::NxDomain | Resolution::NoData => Vec::new(),
                })
        };
        Answered {
            records,
            queries: resolver.queries_sent(),
            stats: resolver.stats(),
            obs: resolver.obs().clone(),
            elapsed_us: lane.elapsed_us(),
        }
    })
}

/// The sweep reads each per-domain answer in place through a sink; the
/// owned path returns it as records. For every seed of the tiny world,
/// healthy and under the flapping fault plan, both must yield the same
/// records in the same order at the same cost: queries, failure counters
/// and observability (answer-cache hits included).
#[test]
fn streamed_answers_match_owned_answers() {
    for (label, mut world) in [
        ("healthy", World::new(WorldConfig::tiny())),
        ("flapping", flapping_hoster_world()),
    ] {
        world.publish_tld_zones();
        let seeds = world.seed_names();
        // The base holds a few domains' NS answers, so those arrive from
        // the cache.
        let mut primed = IterativeResolver::new(world.scanner_ip(), world.root_hints());
        let mut warmup = world.network().lane(format_args!("warmup"));
        for d in seeds.iter().take(8) {
            let _ = primed.resolve(&mut warmup, &Name::from(d), RType::Ns);
        }
        let base = primed.freeze();

        let (mut records, mut cached, mut failed) = (0, 0, 0);
        for d in &seeds {
            let owned = answer_both(&world, &base, d, false);
            let streamed = answer_both(&world, &base, d, true);
            assert_eq!(streamed, owned, "{label} {d}: the streamed path diverged");
            for a in &owned {
                match &a.records {
                    Ok(r) => records += r.len(),
                    Err(_) => failed += 1,
                }
            }
            cached += owned[1].obs.answer_cache_hits;
        }
        assert!(records > seeds.len() * 2, "{label}: only {records} records");
        assert!(cached >= 8, "{label}: the cached path never ran");
        if label == "flapping" {
            assert!(failed > 0, "the fault plan never bit");
        }
    }
}
