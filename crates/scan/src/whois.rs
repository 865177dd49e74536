//! WHOIS client: confirm registration dates over the wire.
//!
//! §3.4 of the paper cross-checks arrivals at Amazon against "Cisco's
//! Whois Domain API" to separate *newly registered* names from existing
//! names that relocated. This client speaks the registry's port-43
//! protocol through the simulated network and classifies arrival lists
//! the same way.

use crate::error::ScanError;
use ruwhere_registry::whois::{parse, WhoisRecord};
use ruwhere_types::{Date, DomainName};
use ruwhere_world::World;

/// Arrival classification result (the paper's footnote-10 analysis).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ArrivalClassification {
    /// Registered after the comparison date: genuinely new names.
    pub newly_registered: Vec<DomainName>,
    /// Registered before it: existing names that relocated in.
    pub preexisting: Vec<DomainName>,
    /// WHOIS gave no answer (lapsed between sweeps, or lookup failure).
    pub unknown: Vec<DomainName>,
}

/// A WHOIS client homed at the measurement vantage.
pub struct WhoisClient {
    src: std::net::Ipv4Addr,
}

impl WhoisClient {
    /// New client for `world`'s scanner vantage.
    pub fn new(world: &World) -> Self {
        WhoisClient {
            src: world.scanner_ip(),
        }
    }

    /// Look up one domain.
    ///
    /// Returns [`ScanError::NotFound`] when the registry answers
    /// authoritatively that the name is not registered — distinct from
    /// transport failures ([`ScanError::Timeout`] /
    /// [`ScanError::Unreachable`]), which the old `Option` return
    /// conflated with it.
    pub fn lookup(&self, world: &mut World, domain: &DomainName) -> Result<WhoisRecord, ScanError> {
        let server = world.whois_server();
        let query = format!("{}\r\n", domain.as_str());
        let mut reply = Vec::new();
        world
            .network_mut()
            .request(self.src, server, query.as_bytes(), 2_000_000, 2, &mut reply)
            .map_err(ScanError::from)?;
        let text = String::from_utf8(reply)
            .map_err(|_| ScanError::BadPayload("non-UTF-8 WHOIS reply".to_owned()))?;
        parse(&text).ok_or(ScanError::NotFound)
    }

    /// Classify `arrivals` by whether WHOIS shows them registered strictly
    /// after `existed_before` (newly registered) or on/before it
    /// (preexisting, i.e. relocated in).
    ///
    /// Takes the arrival list by value: each name is *moved* into its
    /// result bucket ([`DomainName`] is `Arc`-backed, so even the lookup
    /// borrow costs nothing — no string is cloned here).
    pub fn classify_arrivals(
        &self,
        world: &mut World,
        arrivals: Vec<DomainName>,
        existed_before: Date,
    ) -> ArrivalClassification {
        let mut out = ArrivalClassification::default();
        for domain in arrivals {
            match self.lookup(world, &domain) {
                Ok(rec) if rec.created > existed_before => out.newly_registered.push(domain),
                Ok(_) => out.preexisting.push(domain),
                // NotFound (lapsed between sweeps) and transport failures
                // alike: WHOIS could not confirm, so the name stays in
                // the unknown bucket (the paper's footnote-10 handling).
                Err(_) => out.unknown.push(domain),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruwhere_world::WorldConfig;

    #[test]
    fn lookup_matches_registry_facts() {
        // WHOIS answers from the live registries: no zone publish needed.
        let mut world = World::new(WorldConfig::tiny());
        let client = WhoisClient::new(&world);

        let name = world.seed_names()[0].clone();
        let truth_created = world.domain_state(&name).map(|s| s.registered);
        let rec = client.lookup(&mut world, &name).expect("whois answers");
        assert_eq!(rec.domain, name);
        if let Some(created) = truth_created {
            assert_eq!(rec.created, created);
        }
        assert!(!rec.nservers.is_empty(), "delegated domains list NS");

        // Unregistered name: an authoritative miss, not a wire failure.
        let missing: DomainName = "definitely-not-registered-xyz.ru".parse().unwrap();
        assert_eq!(
            client.lookup(&mut world, &missing).unwrap_err(),
            ScanError::NotFound
        );
    }

    #[test]
    fn classify_arrivals_by_creation_date() {
        let mut world = World::new(WorldConfig::tiny());
        // Advance so churn registers some new names after the start.
        let t0 = world.today();
        world.advance_to(t0.add_days(45));
        let client = WhoisClient::new(&world);

        // Find one old and (if churn produced one) one new domain.
        let seeds = world.seed_names();
        let old: Vec<DomainName> = seeds
            .iter()
            .filter(|d| world.domain_state(d).is_some_and(|s| s.registered <= t0))
            .take(3)
            .cloned()
            .collect();
        let new: Vec<DomainName> = seeds
            .iter()
            .filter(|d| world.domain_state(d).is_some_and(|s| s.registered > t0))
            .take(3)
            .cloned()
            .collect();
        assert!(!old.is_empty());

        let mut arrivals = old.clone();
        arrivals.extend(new.clone());
        arrivals.push("gone-away-domain.ru".parse().unwrap());
        let classified = client.classify_arrivals(&mut world, arrivals, t0);
        assert_eq!(classified.preexisting, old);
        assert_eq!(classified.newly_registered, new);
        assert_eq!(classified.unknown.len(), 1);
    }
}
