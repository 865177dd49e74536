//! Resolver-caching ablation: what OpenINTEL-style per-domain
//! re-observation costs in queries. Clearing the resolver cache before
//! each domain re-walks the root and TLD referrals every time; one cache
//! shared across the batch walks them once and then goes straight to the
//! domain's name servers.

use ruwhere::prelude::*;
use ruwhere_authdns::IterativeResolver;
use ruwhere_dns::{Name, RType};

/// Queries sent to resolve `batch` for A, clearing the cache before each
/// name when `clear_each` is set.
fn queries_for(world: &mut World, batch: &[Name], clear_each: bool) -> u64 {
    let mut resolver = IterativeResolver::new(world.scanner_ip(), world.root_hints());
    for name in batch {
        if clear_each {
            resolver.clear_cache();
        }
        let _ = resolver.resolve(world.network_mut(), name, RType::A);
    }
    resolver.queries_sent()
}

#[test]
fn clearing_the_cache_per_domain_costs_at_least_one_and_a_half_times_the_queries() {
    let mut world = World::new(WorldConfig::tiny());
    world.publish_tld_zones();
    let batch: Vec<Name> = world.seed_names().iter().take(50).map(Name::from).collect();
    assert_eq!(batch.len(), 50);

    let cleared = queries_for(&mut world, &batch, true);
    let shared = queries_for(&mut world, &batch, false);
    let ratio = cleared as f64 / shared as f64;
    println!("50 names, A: cleared per domain {cleared} queries, shared cache {shared} queries ({ratio:.2}x)");

    assert!(cleared > shared, "cleared {cleared} vs shared {shared}");
    assert!(
        ratio >= 1.5,
        "cleared {cleared} vs shared {shared}: ratio {ratio:.2} below 1.5"
    );
}
