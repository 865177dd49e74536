//! Integration tests: build a tiny world, evolve it across the conflict
//! window, and observe it through the network the way a scanner would.

use ruwhere_authdns::IterativeResolver;
use ruwhere_ct::hash::hex;
use ruwhere_ct::revocation::RevocationReason;
use ruwhere_dns::{Name, RType};
use ruwhere_types::{Date, DomainName};
use ruwhere_world::{Banner, ConflictEvent, DnsPlan, World, WorldConfig, TLS_PORT};
use std::collections::BTreeSet;
use std::sync::Arc;

fn tiny_world() -> World {
    World::new(WorldConfig::tiny())
}

#[test]
fn world_builds_with_expected_population() {
    let w = tiny_world();
    let cfg = w.config().clone();
    // population = initial + parking portfolio (~0.3%) + sanctioned overlay
    let portfolio = (cfg.initial_population as f64 * 0.003).ceil() as usize;
    assert_eq!(
        w.population(),
        cfg.initial_population + portfolio + cfg.sanctioned_count
    );
    assert_eq!(w.sanctions().len(), cfg.sanctioned_count);
    assert_eq!(w.today(), cfg.start);
    // Both registries populated; .рф a minority.
    let ru = w.registries()[0].count();
    let rf = w.registries()[1].count();
    assert!(ru > rf, "ru={ru} rf={rf}");
    assert!(rf > 0);
}

#[test]
fn seed_names_are_sorted_and_complete() {
    let w = tiny_world();
    let seeds = w.seed_names();
    let mut sorted = seeds.clone();
    sorted.sort();
    assert_eq!(seeds, sorted);
    // Seeds include the sanctioned domains and infra domains like reg.ru.
    assert!(seeds
        .iter()
        .any(|d| d.as_str().starts_with("sanctioned-entity-")));
    assert!(seeds.iter().any(|d| d.as_str() == "reg.ru"));
}

#[test]
fn end_to_end_resolution_through_simulated_internet() {
    let mut w = tiny_world();
    w.publish_tld_zones();
    let mut resolver = IterativeResolver::new(w.scanner_ip(), w.root_hints());

    // Pick an ordinary managed-plan domain from ground truth.
    let seeds = w.seed_names();
    let target: DomainName = seeds
        .iter()
        .find(|d| {
            w.domain_state(d)
                .is_some_and(|s| matches!(s.dns, DnsPlan::Managed(_)))
        })
        .expect("some managed domain exists")
        .clone();
    let truth_ip = w.domain_state(&target).unwrap().hosting.primary_ip;

    let qname = Name::from(&target);
    let res = resolver
        .resolve(w.network_mut(), &qname, RType::A)
        .expect("resolution should succeed");
    assert_eq!(res.addresses(), vec![truth_ip]);

    // NS resolution returns the plan's name servers.
    let res = resolver
        .resolve(w.network_mut(), &qname, RType::Ns)
        .expect("NS resolution should succeed");
    assert!(!res.ns_targets().is_empty());

    // And the NS hosts' addresses resolve too.
    for ns in res.ns_targets() {
        let a = resolver
            .resolve(w.network_mut(), &ns, RType::A)
            .unwrap_or_else(|e| panic!("NS host {ns} failed: {e:?}"));
        assert!(!a.addresses().is_empty(), "no address for NS host {ns}");
    }
}

#[test]
fn vanity_dns_domains_resolve() {
    let mut w = tiny_world();
    w.publish_tld_zones();
    let seeds = w.seed_names();
    let vanity: Vec<DomainName> = seeds
        .iter()
        .filter(|d| {
            w.domain_state(d)
                .is_some_and(|s| matches!(s.dns, DnsPlan::VanityOwn | DnsPlan::VanityExotic(_)))
        })
        .cloned()
        .collect();
    assert!(
        !vanity.is_empty(),
        "tiny world should have vanity-NS domains"
    );
    let mut resolver = IterativeResolver::new(w.scanner_ip(), w.root_hints());
    let mut resolved = 0;
    for d in vanity.iter().take(5) {
        let truth_ip = w.domain_state(d).unwrap().hosting.primary_ip;
        let res = resolver.resolve(w.network_mut(), &Name::from(d), RType::A);
        if let Ok(r) = res {
            assert_eq!(r.addresses(), vec![truth_ip], "wrong address for {d}");
            resolved += 1;
        }
    }
    assert!(resolved > 0, "no vanity domain resolved");
}

#[test]
fn netnod_event_rehomes_cloud_hosts() {
    let mut w = tiny_world();
    let netnod_date = w.timeline().date_of(ConflictEvent::NetnodRehoming).unwrap();

    // Resolve ns4-cloud.nic.ru before and after the event.
    w.publish_tld_zones();
    let mut resolver = IterativeResolver::new(w.scanner_ip(), w.root_hints());
    let host: Name = "ns4-cloud.nic.ru".parse().unwrap();
    let before = resolver
        .resolve(w.network_mut(), &host, RType::A)
        .expect("pre-event resolution")
        .addresses();
    assert_eq!(before.len(), 1);
    let cc_before = w.geo().lookup(w.today(), before[0]).unwrap();
    assert_eq!(
        cc_before.code(),
        "SE",
        "cloud host starts at Netnod (Sweden)"
    );

    w.advance_to(netnod_date);
    w.publish_tld_zones();
    resolver.clear_cache();
    let after = resolver
        .resolve(w.network_mut(), &host, RType::A)
        .expect("post-event resolution")
        .addresses();
    assert_eq!(after.len(), 1);
    assert_ne!(after[0], before[0], "IP must change");
    let cc_after = w.geo().lookup(w.today(), after[0]).unwrap();
    assert_eq!(cc_after.code(), "RU", "cloud host re-homed to Russia");
}

#[test]
fn certificates_flow_into_ct_log_and_endpoints() {
    let mut w = tiny_world();
    w.advance_to(Date::from_ymd(2022, 2, 1));
    assert!(
        w.ct_log().size() > 0,
        "CT log should have entries by February"
    );

    // Russian CA issuance never reaches CT.
    assert!(logged_by(&w, "Russian Trusted Root CA").is_empty());

    // Every CT entry matches a Russian TLD (our generator's SAN rule).
    let certs = w.ct_log().certs();
    assert!(certs
        .entries()
        .iter()
        .all(|e| certs.get(e.cert).matches_russian_tld()));
}

#[test]
fn ct_logs_share_certificates_and_keep_their_roots() {
    let mut w = tiny_world();
    w.advance_to(Date::from_ymd(2022, 4, 1));
    let [argon, xenon] = w.ct_logs() else {
        panic!("CAs submit to two logs");
    };
    // Both logs hold the same certificates and so the same Merkle tree;
    // only the signatures, which bind the log identity, differ. The
    // values pin the leaf encoding: a certificate's fingerprint hashes
    // the same bytes however its fields are stored.
    let root = "d0537e579aef548587e76cb1edc91a3b27118163116987614401bdd07cbc732d";
    for (log, signature) in [
        (
            argon,
            "3e4a0f07391e12a90d588bfdd9eea19faecb64c709dc5130660700280d9df17d",
        ),
        (
            xenon,
            "5bf671845bd6a26c2f5cab99a5a3c99491592ec1a21bea30ad1ce5d4558bd557",
        ),
    ] {
        let sth = log.sth();
        assert_eq!(sth.tree_size, 1142, "{}", log.name());
        assert_eq!(hex(&sth.root), root, "{}", log.name());
        assert_eq!(hex(&sth.signature), signature, "{}", log.name());
    }
    // One copy of each certificate and entry, whichever log it is read
    // from: both logs are over one store's entry column.
    assert!(Arc::ptr_eq(argon.store(), xenon.store()));
}

#[test]
fn ca_stops_are_enforced() {
    let mut w = tiny_world();
    w.advance_to(Date::from_ymd(2022, 4, 30));
    // DigiCert's last regular (non-leak) issuance must precede its stop
    // date; Let's Encrypt keeps issuing.
    let mut last_digicert_regular = None;
    let mut last_le = None;
    let certs = w.ct_log().certs();
    for e in certs.entries() {
        let issuer = certs.get(e.cert).issuer();
        if &*issuer.organization == "Let's Encrypt" {
            last_le = Some(e.timestamp);
        }
        if &*issuer.organization == "DigiCert" && issuer.common_name.starts_with("DigiCert") {
            last_digicert_regular = Some(e.timestamp);
        }
    }
    let stop = Date::from_ymd(2022, 2, 26);
    if let Some(d) = last_digicert_regular {
        assert!(d < stop, "DigiCert primary brand issued at {d} after stop");
    }
    assert!(last_le.unwrap() > Date::from_ymd(2022, 4, 15));
}

/// The (serial, CN) of every certificate `org` CT-logged in `w`'s log 0.
fn logged_by(w: &World, org: &str) -> Vec<(u64, DomainName)> {
    let certs = w.ct_log().certs();
    certs
        .entries()
        .iter()
        .map(|e| certs.get(e.cert))
        .filter(|c| c.issuer_org() == org)
        .map(|c| (c.serial(), c.subject_cn().clone()))
        .collect()
}

/// Whether `name` is on the sanctions list at any date.
fn listed(w: &World, name: &DomainName) -> bool {
    w.sanctions().iter().any(|(d, _, _)| d == name)
}

#[test]
fn sanctioned_revocation_sweeps_happen() {
    let mut w = tiny_world();
    w.advance_to(Date::from_ymd(2022, 4, 1));
    w.finalize_ocsp();
    let end = Date::from_ymd(2022, 4, 1);

    // Every sanctioned DigiCert/Sectigo certificate is revoked.
    for org in ["DigiCert", "Sectigo"] {
        let issued: Vec<u64> = logged_by(&w, org)
            .into_iter()
            .filter(|(_, cn)| listed(&w, cn))
            .map(|(serial, _)| serial)
            .collect();
        assert!(!issued.is_empty(), "{org} issued no sanctioned certificate");
        let crl = w.ocsp().crl(org);
        for s in &issued {
            assert!(
                crl.is_some_and(|c| c.is_revoked(*s, end)),
                "{org} serial {s} not revoked"
            );
        }
    }
}

#[test]
fn sanctioned_revocation_spares_other_certificates() {
    let mut w = tiny_world();
    w.advance_to(Date::from_ymd(2022, 4, 1));
    for org in ["DigiCert", "Sectigo"] {
        let sanctioned: BTreeSet<u64> = logged_by(&w, org)
            .into_iter()
            .filter(|(_, cn)| listed(&w, cn))
            .map(|(serial, _)| serial)
            .collect();
        let withdrawn: Vec<u64> = w
            .ocsp()
            .crl(org)
            .expect("the sweep wrote a CRL")
            .iter()
            .filter(|(_, e)| e.reason == RevocationReason::PrivilegeWithdrawn)
            .map(|(serial, _)| serial)
            .collect();
        assert!(!withdrawn.is_empty(), "{org} withdrew nothing");
        for s in withdrawn {
            assert!(
                sanctioned.contains(&s),
                "{org} serial {s} withdrawn without a sanctioned CN in CT"
            );
        }
    }
}

#[test]
fn russian_ca_certs_are_served_but_not_logged() {
    let mut w = tiny_world();
    w.advance_to(Date::from_ymd(2022, 5, 1));
    // Grab every TLS endpoint's banner, as the IP-wide scan does.
    let mut russian_cns: Vec<DomainName> = Vec::new();
    let mut reply = Vec::new();
    for addr in w.network().bound_endpoints(TLS_PORT) {
        let src = w.scanner_ip();
        if w.network_mut()
            .request(
                src,
                (addr, TLS_PORT),
                b"CLIENT-HELLO",
                1_500_000,
                4,
                &mut reply,
            )
            .is_err()
        {
            continue;
        }
        let banner = Banner::parse(&reply).expect("endpoints serve well-formed banners");
        if banner.issuer_org() == "Russian Trusted Root CA" {
            russian_cns.push(banner.subject_cn().parse().expect("CN is a domain name"));
        }
    }
    assert!(
        !russian_cns.is_empty(),
        "Russian CA should be served by May"
    );
    assert!(
        russian_cns.iter().any(|cn| listed(&w, cn)),
        "some Russian CA certs secure sanctioned domains"
    );
    // None in CT.
    assert!(logged_by(&w, "Russian Trusted Root CA").is_empty());
}

#[test]
fn population_evolves_and_stays_consistent() {
    let mut w = tiny_world();
    let p0 = w.population();
    w.advance_to(Date::from_ymd(2022, 3, 15));
    let p1 = w.population();
    // Growth plus churn keeps population in a sane band.
    assert!(
        p1 > p0 / 2 && p1 < p0 * 2,
        "population went wild: {p0} → {p1}"
    );
    // Registry and domain map agree.
    let reg_total: usize = w.registries().iter().map(|r| r.count()).sum();
    // Registries also hold infra domains (reg.ru, nic.ru, …).
    assert!(reg_total >= w.population());
    assert!(reg_total <= w.population() + 64);
}

#[test]
fn deterministic_across_runs() {
    let build = || {
        let mut w = World::new(WorldConfig::tiny());
        w.advance_to(Date::from_ymd(2022, 3, 10));
        (
            w.population(),
            w.ct_log().size(),
            w.ct_log().sth().root,
            w.seed_names().len(),
        )
    };
    assert_eq!(build(), build());
}

#[test]
fn google_intra_move_shifts_hosting() {
    let mut w = tiny_world();
    let date = w
        .timeline()
        .date_of(ConflictEvent::GoogleIntraMove)
        .unwrap();
    let count_at = |w: &World, pid: ruwhere_world::catalog::ProviderId| {
        w.seed_names()
            .iter()
            .filter(|d| w.domain_state(d).is_some_and(|s| s.hosting.primary == pid))
            .count()
    };
    w.advance_to(date.pred());
    let google_before = count_at(&w, ruwhere_world::catalog::pid::GOOGLE);
    w.advance_to(date);
    let moved = count_at(&w, ruwhere_world::catalog::pid::GOOGLE_CLOUD);
    // At tiny scale Google may have no customers at all; when it does,
    // the 2022-03-16 event must shift some of them to AS396982.
    if google_before > 0 {
        assert!(moved > 0, "no domains moved to Google-Cloud");
    }
}

#[test]
fn invariants_hold_after_build_and_evolution() {
    let mut w = tiny_world();
    let problems = w.check_invariants();
    assert!(problems.is_empty(), "after build: {problems:?}");
    w.advance_to(Date::from_ymd(2022, 4, 15));
    let problems = w.check_invariants();
    assert!(problems.is_empty(), "after evolution: {problems:?}");
}
