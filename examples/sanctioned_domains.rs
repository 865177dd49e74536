//! Sanctioned-domain analysis (paper §3.3, Figure 5): follow the 107
//! OFAC/UK-listed domains' name-server composition through the Netnod
//! cutoff of 2022-03-03.
//!
//! ```sh
//! cargo run --release --example sanctioned_domains
//! ```

use ruwhere::prelude::*;

fn main() {
    let mut world = World::new(WorldConfig::tiny());
    let sanctions = world.sanctions().clone();
    println!(
        "tracking {} sanctioned domains (sources: US OFAC SDN, UK list)\n",
        sanctions.len()
    );

    let mut scanner = OpenIntelScanner::new(&world);
    let mut series = CompositionSeries::sanctioned(InfraKind::NameServers, sanctions.clone());

    // Measure daily across the window the paper's Figure 5 plots.
    let dates: Vec<Date> = Date::from_ymd(2022, 2, 22)
        .to(Date::from_ymd(2022, 3, 10))
        .collect();
    for date in dates {
        world.advance_to(date);
        let sweep = scanner.sweep_frame(&mut world);
        series.observe(&sweep, scanner.interner());
    }

    println!("date        full%   partial%   non%   #sanctioned");
    for (date, c) in series.rows() {
        println!(
            "{date}  {:6.1}  {:8.1}  {:5.1}   {}",
            c.pct_full(),
            c.pct_partial(),
            c.pct_non(),
            c.total()
        );
    }

    // The paper's headline: partial collapses to full around March 3-4,
    // because the Netnod-hosted secondaries were re-homed to Russia.
    let before = series.at(Date::from_ymd(2022, 3, 2)).unwrap();
    let after = series.at(Date::from_ymd(2022, 3, 4)).unwrap();
    println!(
        "\nNetnod effect: partial {:.1}% → {:.1}%, full {:.1}% → {:.1}%",
        before.pct_partial(),
        after.pct_partial(),
        before.pct_full(),
        after.pct_full(),
    );
    println!("(paper: 34.0% partial on 2022-02-24; 93.8% full by 2022-03-04)");

    // Which individual sanctioned domains are still not fully Russian?
    let sweep = scanner.sweep_frame(&mut world);
    let snap = scanner.interner().snapshot();
    let mut holdouts = Vec::new();
    for rec in sweep.records() {
        let domain = snap.name(rec.domain_sym());
        if !sanctions.is_sanctioned(domain, sweep.date) {
            continue;
        }
        let c = Composition::classify_syms(rec.ns_addrs().countries(), &snap);
        if !matches!(c, Composition::Full) {
            holdouts.push((domain.clone(), c));
        }
    }
    println!("\nholdouts (NS not fully Russian) on {}:", sweep.date);
    for (domain, c) in holdouts {
        println!("  {domain}: {c:?}");
    }
}
