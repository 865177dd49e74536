//! Provider exodus analysis (paper §3.4, Figures 4, 6, 7): what happened
//! to domains hosted at Amazon, Sedo, Cloudflare and Google after each
//! provider's March 2022 announcement.
//!
//! ```sh
//! cargo run --release --example provider_exodus [scale]
//! ```
//!
//! `scale` is the world scale denominator (default 2000 ≈ 2.5k domains;
//! use 100 for the full paper scale — slower).

use ruwhere::prelude::*;
use ruwhere::scan::WhoisClient;
use ruwhere::world::World;

fn main() {
    let scale: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2000);
    let mut world_cfg = WorldConfig::paper_scale(scale);
    // Focus on the conflict window to keep the run short.
    world_cfg.start = Date::from_ymd(2022, 1, 1);
    world_cfg.cert_start = Date::from_ymd(2022, 1, 1);

    let mut cfg = StudyConfig::paper_schedule(world_cfg);
    cfg.verbose = true;
    eprintln!(
        "running study at 1:{scale} scale ({} sweeps)…",
        cfg.sweep_dates().len()
    );
    let results = run_study(&cfg);
    eprintln!(
        "done: {} sweeps, {} DNS queries\n",
        results.sweeps_run, results.total_queries
    );

    // Figure 4: hosting shares through the window.
    println!("{}", figures::fig4_series(&results).render());

    // Figures 6 and 7: movement out of Amazon and Sedo.
    let end = results.retained.keys().next_back().copied().unwrap();
    for (asn, label, start, paper) in [
        (
            Asn::AMAZON,
            "Figure 6 (Amazon)",
            Date::from_ymd(2022, 3, 8),
            ">50% relocated, 43% remained, 574 new + 988 relocated in",
        ),
        (
            Asn::SEDO,
            "Figure 7 (Sedo)",
            Date::from_ymd(2022, 3, 8),
            "98% relocated, 2.7k remained, 311 in",
        ),
    ] {
        if let Some((table, report)) =
            figures::movement_table(&results, asn, label, start, end, paper)
        {
            println!("{}", table.render());
            let dests = report.destinations();
            if let Some((top_dest, n)) = dests.iter().max_by_key(|(_, n)| **n) {
                println!("largest destination: {top_dest} ({n} domains)\n");
            }
        }
    }

    // §3.4 summary for all four named providers.
    println!("{}", figures::provider_actions_table(&results).render());

    // Footnote 10: confirm the Amazon arrivals' registration dates over
    // WHOIS, exactly as the paper did with Cisco's Whois Domain API. (We
    // re-create the end-state world deterministically — same seed — to
    // query its registry.)
    if let Some((_, amazon)) = figures::movement_table(
        &results,
        Asn::AMAZON,
        "check",
        Date::from_ymd(2022, 3, 8),
        end,
        "",
    ) {
        let mut arrivals = amazon.relocated_in.clone();
        arrivals.extend(amazon.newly_registered.clone());
        if !arrivals.is_empty() {
            let mut world = World::new(cfg.world.clone());
            world.advance_to(cfg.world.end);
            let whois = WhoisClient::new(&world);
            let total_arrivals = arrivals.len();
            let classified =
                whois.classify_arrivals(&mut world, arrivals, Date::from_ymd(2022, 3, 8));
            println!(
                "WHOIS check of {} Amazon arrivals: {} newly registered, {} preexisting, {} unknown",
                total_arrivals,
                classified.newly_registered.len(),
                classified.preexisting.len(),
                classified.unknown.len(),
            );
            println!("(paper: 574 newly registered + 988 relocated existing domains)");
        }
    }
}
