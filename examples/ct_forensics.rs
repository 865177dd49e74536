//! WebPKI forensics (paper §4): CA issuance shifts, revocation sweeps, the
//! Russian Trusted Root CA — plus a CT-monitor workout proving the log is
//! append-only.
//!
//! ```sh
//! cargo run --release --example ct_forensics
//! ```

use ruwhere::ct::ctlog::{verify_consistency, verify_inclusion};
use ruwhere::prelude::*;

fn main() {
    let mut world = World::new(WorldConfig::tiny());

    // Take a CT monitor's checkpoint mid-January …
    world.advance_to(Date::from_ymd(2022, 1, 15));
    let checkpoint = world.ct_log().sth();
    println!(
        "CT checkpoint: size {} root {:02x}{:02x}…",
        checkpoint.tree_size, checkpoint.root[0], checkpoint.root[1]
    );

    // … then run through the conflict window.
    world.advance_to(Date::from_ymd(2022, 5, 15));
    world.finalize_ocsp();
    let head = world.ct_log().sth();
    println!(
        "CT head:       size {} root {:02x}{:02x}…",
        head.tree_size, head.root[0], head.root[1]
    );

    // The monitor verifies append-only growth with a consistency proof.
    let proof = world
        .ct_log()
        .consistency_proof(checkpoint.tree_size, head.tree_size)
        .expect("both sizes are historical");
    assert!(verify_consistency(&checkpoint.root, &head.root, &proof));
    println!(
        "consistency proof: {} nodes — log is append-only ✓",
        proof.path.len()
    );

    // Spot-check an inclusion proof for the first post-conflict entry.
    let idx = world
        .ct_log()
        .certs()
        .entries()
        .iter()
        .position(|e| e.timestamp >= CONFLICT_START)
        .expect("post-conflict issuance exists") as u64;
    let inclusion = world.ct_log().inclusion_proof(idx, head.tree_size).unwrap();
    let leaf = world.ct_log().leaf_at(idx).unwrap();
    assert!(verify_inclusion(&leaf, &inclusion, &head.root));
    println!(
        "inclusion proof for entry {idx}: {} nodes ✓\n",
        inclusion.audit_path.len()
    );

    // §4.1: who issues for .ru/.рф in each period?
    let certs = CertDataset::from_log(
        world.ct_log(),
        Date::from_ymd(2022, 1, 1),
        Date::from_ymd(2022, 5, 15),
        MatchRule::CnOrSan,
    );
    println!("{} certificates matched .ru/.рф in the window", certs.len());
    let issuance = CaIssuanceAnalysis::new(&certs);
    let timeline = issuance.timeline(10);
    println!("\nper-CA issuance (top 10):");
    for org in issuance.top_orgs(10) {
        let last = timeline.last_issuance(&org).unwrap();
        let stopped = timeline.stopped_by(&org, Date::from_ymd(2022, 5, 15), 7);
        println!(
            "  {org:<26} last issued {last}  {}",
            if stopped { "← STOPPED" } else { "" }
        );
    }

    // §4.2: revocation rates, overall vs sanctioned.
    let sanctions = world.sanctions().clone();
    let revocation = RevocationAnalysis::new(
        &certs,
        world.ocsp(),
        &sanctions,
        Date::from_ymd(2022, 5, 15),
    );
    println!("\nrevocation activity (top 5 by revocations):");
    for row in revocation.top_by_revocations(5) {
        println!(
            "  {:<26} issued {:>6} revoked {:>4} ({:>6}) | sanctioned {}/{} ({:.0}%)",
            row.org,
            row.issued,
            row.revoked,
            format!("{:.2}%", row.rate()),
            row.sanctioned_revoked,
            row.sanctioned_issued,
            row.sanctioned_rate(),
        );
    }
    println!(
        "CAs revoking 100% of sanctioned certs: {:?} (paper: DigiCert, Sectigo)",
        revocation.full_sanctioned_revokers()
    );

    // §4.3: the Russian Trusted Root CA is invisible to CT — find it by
    // scanning served chains.
    let mut scanner = IpScanner::new(&world);
    let snapshot = scanner.scan(&mut world);
    let analysis =
        RussianCaAnalysis::new(&snapshot, &certs, &sanctions, Date::from_ymd(2022, 5, 15));
    println!(
        "\nRussian Trusted Root CA: {} served certs ({} on .ru, {} on .рф), {}–{:.0}% of sanctioned list, {} in CT",
        analysis.unique_certs,
        analysis.domains_by_tld.get("ru").copied().unwrap_or(0),
        analysis.domains_by_tld.get("xn--p1ai").copied().unwrap_or(0),
        analysis.sanctioned_covered,
        100.0 * analysis.sanctioned_coverage(),
        analysis.in_ct,
    );
}
