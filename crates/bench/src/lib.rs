//! The pinned study fixture and the exports of the `repro` binary.
//!
//! The whole-study performance benchmark is `studybench` (see
//! `BENCHMARK.json`); this crate keeps the pinned fixture schedule, the
//! worker-independent `--metrics`/`--report` exports that CI compares
//! byte-for-byte, and [`render_report`], which `studybench` digests.

use ruwhere_core::{figures, StudyConfig, StudyResults};
use ruwhere_scan::{OpenIntelScanner, SweepMetrics, SweepOptions};
use ruwhere_types::{Asn, Date};
use ruwhere_world::{World, WorldConfig};

/// Environment variable naming the number of daily-sweep days in the
/// bench fixture (and in the `--metrics` sweep). Unset means the whole
/// window.
pub const BENCH_DAYS_ENV: &str = "RUWHERE_BENCH_DAYS";

/// The day count in [`BENCH_DAYS_ENV`]: `Ok(None)` when unset, the value
/// when it is a positive integer, and an error naming the bad value
/// otherwise.
pub fn bench_days() -> Result<Option<i32>, String> {
    let Ok(raw) = std::env::var(BENCH_DAYS_ENV) else {
        return Ok(None);
    };
    match raw.trim().parse::<i32>() {
        Ok(days) if days >= 1 => Ok(Some(days)),
        _ => Err(format!(
            "{BENCH_DAYS_ENV} must be a positive integer, got {raw:?}"
        )),
    }
}

/// The fixture's study configuration: the test schedule (tiny world,
/// daily sweeps from 2022-02-20), with the daily window trimmed to the
/// last `days` days when given. Callers pass [`bench_days`], so
/// `RUWHERE_BENCH_DAYS` shrinks the fixture; harnesses that pin that
/// variable on child processes (e.g. the crash harness) pass the same
/// count to get the matching sweep schedule in-process.
pub fn fixture_config_for_days(days: Option<i32>) -> StudyConfig {
    let mut cfg = StudyConfig::test_schedule();
    cfg.daily_from = Date::from_ymd(2022, 2, 20);
    if let Some(days) = days {
        cfg.daily_from = cfg
            .world
            .end
            .add_days(-(days.max(1) - 1))
            .max(cfg.world.start);
    }
    cfg
}

/// Sweep the first `days` days of the tiny world (all of them when
/// `None`) and return the run-level merged metric section plus the day
/// count.
///
/// The merge is the same associative fold the sweep engine uses per
/// worker, applied across days — so the run-level section inherits the
/// per-sweep guarantee: identical for any worker count.
pub fn collect_sweep_metrics(workers: usize, days: Option<i32>) -> (SweepMetrics, i32) {
    let config = WorldConfig::tiny();
    let window = config.days() as i32;
    let days = days.map_or(window, |d| d.min(window));
    let mut world = World::new(config);
    let mut scanner = OpenIntelScanner::with_options(&world, SweepOptions::new().workers(workers));
    let mut merged = SweepMetrics::new();
    for day in 0..days {
        if day > 0 {
            world.advance_to(world.today().succ());
        }
        let frame = scanner.sweep_frame(&mut world);
        merged.merge(&frame.metrics);
    }
    (merged, days)
}

/// Serialise the run-level metric section as the `METRICS_sweep.json`
/// artifact. Deliberately carries NO worker count, timestamp or host
/// information: two runs over the same fixture must produce
/// byte-identical files regardless of parallelism, so the CI determinism
/// gate can compare them with `cmp`.
pub fn render_metrics_json(metrics: &SweepMetrics, days: i32) -> String {
    let mut out = format!("{{\"bench\":\"sweep_metrics\",\"days\":{days},\"metrics\":");
    metrics.push_json(&mut out);
    out.push_str("}\n");
    out
}

/// Render every paper artifact the study can produce, plus the retained
/// sweeps' aggregate stats, the engine's work counters and the full
/// symbol-table dump, as one text document. The content is a pure
/// function of the study output, and the determinism contract makes that
/// output byte-identical for any worker count — CI renders a 1-worker
/// and a 4-worker report and compares them with `cmp`.
pub fn render_report(r: &StudyResults) -> String {
    let mut artifacts: Vec<(&str, String)> = vec![
        ("dataset_stats", figures::dataset_table(r).render()),
        ("fig1_series", figures::fig1_series(r).render()),
        ("fig1_summary", figures::fig1_summary(r).render()),
        ("hosting_summary", figures::hosting_summary(r).render()),
        ("fig2_series", figures::fig2_series(r).render()),
        ("fig2_summary", figures::fig2_summary(r).render()),
        ("fig3_series", figures::fig3_series(r).render()),
        ("fig3_summary", figures::fig3_summary(r).render()),
        ("fig4_series", figures::fig4_series(r).render()),
        ("fig5_series", figures::fig5_series(r).render()),
        ("fig5_summary", figures::fig5_summary(r).render()),
    ];
    let end = r.retained.keys().next_back().copied();
    let start = Date::from_ymd(2022, 3, 8);
    if let Some(end) = end {
        if let Some((t, _)) = figures::movement_table(r, Asn::AMAZON, "Figure 6", start, end, "") {
            artifacts.push(("fig6_amazon", t.render()));
        }
        if let Some((t, _)) = figures::movement_table(r, Asn::SEDO, "Figure 7", start, end, "") {
            artifacts.push(("fig7_sedo", t.render()));
        }
    }
    artifacts.push((
        "provider_actions",
        figures::provider_actions_table(r).render(),
    ));
    let (fig8, _) = figures::fig8_table(r);
    artifacts.push(("fig8_ca_timelines", fig8.render()));
    artifacts.push(("tab1_issuance", figures::table1(r).render()));
    artifacts.push(("cert_volume", figures::cert_volume_table(r).render()));
    artifacts.push(("tab2_revocation", figures::table2(r).render()));
    if let Some(t) = figures::russian_ca_table(r) {
        artifacts.push(("sec4_3_russian_ca", t.render()));
    }
    artifacts.push(("transition_flows", figures::transition_table(r).render()));
    artifacts.push(("sec6_discussion", figures::discussion_table(r).render()));

    let mut stats = String::new();
    for (date, frame) in &r.retained {
        stats.push_str(&format!(
            "{date}  records={}  {:?}\n",
            frame.len(),
            frame.stats
        ));
    }
    artifacts.push(("retained_sweep_stats", stats));
    artifacts.push((
        "analysis_engine",
        format!(
            "frames={}  record_visits={}  observer_dispatches={}\n",
            r.analysis.frames(),
            r.analysis.record_visits(),
            r.analysis.observer_dispatches()
        ),
    ));
    // The symbol table is the byte-identity oracle: identical dumps mean
    // identical symbol assignment across the whole study.
    artifacts.push(("interner_dump", r.interner.dump()));

    let mut out = String::new();
    for (id, text) in &artifacts {
        out.push_str(&format!("=== {id} ===\n{text}\n"));
    }
    out
}
