//! The traced run: a mirror of `ruwhere_core::try_run_study`'s day loop,
//! built from the crates' public functions, with a span around every call
//! into a layer and counters read at the same boundaries.
//!
//! The mirror must render the same report as the real entry point; the
//! benchmark compares the two (`trace.faithful`) on every traced run. A
//! mismatch means `try_run_study` changed in a way this file does not yet
//! follow — the per-layer split is then stale, but the end-to-end numbers,
//! which come from the real entry point, are unaffected.

use crate::check::DayTally;
use crate::stats::quantile;
use crate::trace::Recorder;
use ruwhere_core::{
    AnalysisEngine, AsnShareSeries, CaIssuanceAnalysis, CompositionSeries, DatasetStats, InfraKind,
    RevocationAnalysis, RussianCaAnalysis, StudyConfig, StudyResults, TldDependencySeries,
    TldUsageSeries, TransitionFlows,
};
use ruwhere_netsim::NetStats;
use ruwhere_scan::{
    CertDataset, IpScanSnapshot, IpScanner, MatchRule, OpenIntelScanner, SweepOptions,
};
use ruwhere_store::{
    CheckpointDir, DayCheckpoint, Interner, InternerDelta, SweepFrame, SweepStats, TableSizes,
};
use ruwhere_types::{Date, CERT_WINDOW_END, CERT_WINDOW_START};
use ruwhere_world::World;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// One traced study: its report, wall time, spans, per-layer metrics and
/// the checks only the mirror can make (it owns the world).
pub struct Traced {
    pub report: String,
    pub study_s: f64,
    pub rec: Recorder,
    /// Per-layer metrics, by name (see `PER_LAYER` in `main.rs`).
    pub metrics: BTreeMap<&'static str, f64>,
    pub problems: Vec<String>,
    pub tally: DayTally,
}

/// Sweep-layer counters summed over the run's live sweeps.
#[derive(Default)]
struct SweepTotals {
    sweeps: u64,
    records: u64,
    stats: SweepStats,
    partial_days: u64,
}

impl SweepTotals {
    fn add(&mut self, frame: &SweepFrame) {
        let (t, s) = (&mut self.stats, &frame.stats);
        self.sweeps += 1;
        self.records += frame.len() as u64;
        self.partial_days += u64::from(frame.is_partial());
        t.seeded += s.seeded;
        t.queries += s.queries;
        t.ns_failures += s.ns_failures;
        t.timeouts += s.timeouts;
        t.servfails += s.servfails;
        t.lame += s.lame;
        t.retries_spent += s.retries_spent;
        t.ns_cache_hits += s.ns_cache_hits;
        t.ns_cache_misses += s.ns_cache_misses;
        t.shards_retried += s.shards_retried;
        t.shards_lost += s.shards_lost;
        t.virtual_elapsed_us += s.virtual_elapsed_us;
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn file_len(path: &std::path::Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// Run `cfg` through the mirror with every layer call traced.
pub fn run(cfg: &StudyConfig) -> Result<Traced, String> {
    let t0 = Instant::now();
    let mut rec = Recorder::new();
    let study = rec.open("study");
    let err = |e: &dyn std::fmt::Display| e.to_string();

    let store = match &cfg.checkpoint_dir {
        Some(dir) => Some(
            rec.time("store.open", || CheckpointDir::open(dir))
                .map_err(|e| err(&e))?,
        ),
        None => None,
    };
    let fingerprint = cfg.fingerprint();
    let mut replayed: Vec<DayCheckpoint> = Vec::new();
    let mut bytes_read = 0u64;
    let mut problems = Vec::new();
    if let Some(store) = &store {
        if cfg.resume {
            let outcome = rec
                .time("store.load", || store.load(fingerprint))
                .map_err(|e| err(&e))?;
            if !outcome.quarantined.is_empty() {
                problems.push(format!(
                    "{} checkpoint segment(s) quarantined on load",
                    outcome.quarantined.len()
                ));
            }
            bytes_read = (0..outcome.days.len() as u32)
                .map(|i| file_len(&store.segment_path(i)))
                .sum();
            replayed = outcome.days;
        } else if store.has_segments().map_err(|e| err(&e))? {
            return Err("checkpoint directory already holds segments".into());
        }
    }

    let mut world = rec.time("world.new", || World::new(cfg.world.clone()));
    let net_start = world.network().stats();
    let day_start = world.today();
    let sanctions = world.sanctions().clone();

    let mut ns_composition = CompositionSeries::new(InfraKind::NameServers);
    let mut hosting_composition = CompositionSeries::new(InfraKind::Hosting);
    let mut sanctioned_ns =
        CompositionSeries::sanctioned(InfraKind::NameServers, sanctions.clone());
    let mut tld_dependency = TldDependencySeries::new();
    let mut tld_usage = TldUsageSeries::new();
    let mut asn_share = AsnShareSeries::new();
    let mut dataset = DatasetStats::new();
    let mut transitions = TransitionFlows::new(InfraKind::NameServers);
    let mut retained: BTreeMap<Date, SweepFrame> = BTreeMap::new();
    let mut engine = AnalysisEngine::new();

    let sweep_dates = cfg.sweep_dates();
    let first = sweep_dates.first().copied();
    let last = sweep_dates.last().copied();
    let interner = Arc::new(Interner::new());
    let mut scanner = rec.time("scan.new", || {
        OpenIntelScanner::with_options(
            &world,
            SweepOptions::new()
                .workers(cfg.workers)
                .interner(interner.clone()),
        )
    });
    let mut ip_scanner = rec.time("scan.ip_new", || IpScanner::new(&world));
    let mut ip_scans: Vec<IpScanSnapshot> = Vec::new();
    let mut scans_pending = cfg.ip_scans.clone();
    scans_pending.sort();

    let mut replayed_queries = 0u64;
    let mut sweeps = SweepTotals::default();
    let mut tally = DayTally::default();
    let (mut segments_written, mut bytes_written) = (0u64, 0u64);
    for (i, &date) in sweep_dates.iter().enumerate() {
        let day = rec.begin_day(i as u32);
        rec.time("world.advance", || world.advance_to(date));
        while scans_pending.first().is_some_and(|d| *d <= date) {
            scans_pending.remove(0);
            let scan = rec.time("scan.ipscan", || ip_scanner.scan(&mut world));
            ip_scans.push(scan);
        }
        let frame = match replayed.get(i) {
            Some(ck) => {
                if ck.date != date {
                    return Err(format!(
                        "checkpoint day {i} is dated {}, the schedule says {date}",
                        ck.date
                    ));
                }
                rec.time("world.publish", || world.publish_tld_zones());
                rec.time("store.replay", || ck.interner.replay(&interner))
                    .map_err(|e| err(&e))?;
                rec.time("world.restore_clock", || {
                    world.restore_net_clock_us(ck.net_clock_us)
                });
                replayed_queries += ck.frame.stats.queries;
                ck.frame.clone()
            }
            None => {
                let base = TableSizes::of(&interner);
                let frame = rec.time("scan.sweep", || scanner.sweep_frame(&mut world));
                sweeps.add(&frame);
                if let Some(store) = &store {
                    let ck = DayCheckpoint {
                        day_index: i as u32,
                        date,
                        net_clock_us: world.network().now().as_micros(),
                        interner: InternerDelta::capture(&interner, base),
                        frame: frame.clone().strip_metrics(),
                    };
                    rec.time("store.write", || store.write_day(&ck, fingerprint))
                        .map_err(|e| err(&e))?;
                    segments_written += 1;
                    bytes_written += file_len(&store.segment_path(i as u32));
                }
                frame
            }
        };
        tally.add(&frame.stats);
        rec.time("core.observe", || {
            engine.observe_frame(
                &frame,
                &interner,
                &mut [
                    &mut ns_composition,
                    &mut hosting_composition,
                    &mut sanctioned_ns,
                    &mut tld_dependency,
                    &mut tld_usage,
                    &mut asn_share,
                    &mut dataset,
                    &mut transitions,
                ],
            )
        });
        if cfg.retain.contains(&date) || first == Some(date) || last == Some(date) {
            retained.insert(date, frame.strip_metrics());
        }
        rec.end_day(day);
    }

    rec.time("world.finalize_ocsp", || world.finalize_ocsp());
    let cert_from = CERT_WINDOW_START.max(cfg.world.cert_start);
    let cert_to = CERT_WINDOW_END.min(cfg.world.end);
    let certs = rec.time("scan.ct_index", || {
        CertDataset::from_logs(world.ct_logs(), cert_from, cert_to, MatchRule::CnOrSan)
    });
    let cert_span = rec.open("core.cert_analysis");
    let issuance = CaIssuanceAnalysis::new(&certs);
    let revocation = RevocationAnalysis::new(&certs, world.ocsp(), &sanctions, cert_to);
    let russian_ca = ip_scans
        .last()
        .map(|scan| RussianCaAnalysis::new(scan, &certs, &sanctions, cert_to));
    rec.close(cert_span);

    let results = StudyResults {
        ns_composition,
        hosting_composition,
        sanctioned_ns,
        tld_dependency,
        tld_usage,
        asn_share,
        retained,
        interner,
        analysis: engine,
        certs,
        issuance,
        revocation,
        russian_ca,
        ip_scans,
        sanctions,
        dataset,
        transitions,
        total_queries: replayed_queries + scanner.queries_sent(),
        sweeps_run: sweep_dates.len(),
    };
    let report = rec.time("core.render", || ruwhere_bench::render_report(&results));
    rec.close(study);
    let study_s = t0.elapsed().as_secs_f64();

    // Checks that need the world itself.
    problems.extend(world.check_invariants());
    if tally.queries != results.total_queries {
        problems.push(format!(
            "total_queries {} != sum of per-day queries {}",
            results.total_queries, tally.queries
        ));
    }

    let net = world.network().stats();
    let net_delta = |f: fn(&NetStats) -> u64| f(&net).saturating_sub(f(&net_start)) as f64;
    let day_ms: Vec<f64> = rec
        .spans()
        .iter()
        .filter(|s| s.name == "day")
        .map(|s| s.secs() * 1e3)
        .collect();
    let self_by_name = rec.self_by_name();
    let layer_self = |prefix: &str| -> f64 {
        self_by_name
            .iter()
            .filter(|(n, _)| n.starts_with(prefix))
            .fold(0.0, |acc, (_, t)| acc + t)
    };
    let sizes = TableSizes::of(&results.interner);
    let s = &sweeps.stats;
    let metrics: BTreeMap<&'static str, f64> = [
        ("world.new_s", rec.total_secs("world.new")),
        ("world.advance_s", rec.total_secs("world.advance")),
        (
            "world.finalize_ocsp_s",
            rec.total_secs("world.finalize_ocsp"),
        ),
        ("world.publish_s", rec.total_secs("world.publish")),
        ("world.self_s", layer_self("world.")),
        ("world.days_stepped", (world.today() - day_start) as f64),
        ("world.population_end", world.population() as f64),
        ("scan.sweep_s", rec.total_secs("scan.sweep")),
        ("scan.ipscan_s", rec.total_secs("scan.ipscan")),
        ("scan.ct_index_s", rec.total_secs("scan.ct_index")),
        ("scan.self_s", layer_self("scan.")),
        ("scan.sweeps", sweeps.sweeps as f64),
        ("scan.seeded", s.seeded as f64),
        ("scan.queries", s.queries as f64),
        (
            "scan.ns_cache_hit_rate",
            ratio(s.ns_cache_hits, s.ns_cache_hits + s.ns_cache_misses),
        ),
        ("scan.records_per_query", ratio(sweeps.records, s.queries)),
        ("scan.timeouts", s.timeouts as f64),
        ("scan.servfails", s.servfails as f64),
        ("scan.lame", s.lame as f64),
        ("scan.retries_spent", s.retries_spent as f64),
        ("scan.ns_failures", s.ns_failures as f64),
        ("scan.partial_days", sweeps.partial_days as f64),
        ("scan.shards_retried", s.shards_retried as f64),
        ("scan.shards_lost", s.shards_lost as f64),
        ("scan.virtual_s", s.virtual_elapsed_us as f64 / 1e6),
        ("scan.ip_probes", ip_scanner.probes_sent() as f64),
        ("scan.certs_indexed", results.certs.len() as f64),
        ("netsim.sent", net_delta(|n| n.sent)),
        ("netsim.dropped", net_delta(|n| n.dropped)),
        ("netsim.faulted", net_delta(|n| n.faulted)),
        ("netsim.unreachable", net_delta(|n| n.unreachable)),
        ("store.write_s", rec.total_secs("store.write")),
        ("store.load_s", rec.total_secs("store.load")),
        ("store.replay_s", rec.total_secs("store.replay")),
        ("store.self_s", layer_self("store.")),
        ("store.segments_written", segments_written as f64),
        ("store.bytes_written", bytes_written as f64),
        ("store.bytes_read", bytes_read as f64),
        (
            "store.symbols",
            (sizes.names + sizes.tlds + sizes.countries) as f64,
        ),
        ("core.observe_s", rec.total_secs("core.observe")),
        ("core.cert_analysis_s", rec.total_secs("core.cert_analysis")),
        ("core.render_s", rec.total_secs("core.render")),
        ("core.self_s", layer_self("core.")),
        (
            "core.record_visits",
            results.analysis.record_visits() as f64,
        ),
        (
            "core.observer_dispatches",
            results.analysis.observer_dispatches() as f64,
        ),
        ("core.report_bytes", report.len() as f64),
        ("day.p50_ms", quantile(&day_ms, 0.5)),
        ("day.p90_ms", quantile(&day_ms, 0.9)),
    ]
    .into_iter()
    .collect();

    Ok(Traced {
        report,
        study_s,
        rec,
        metrics,
        problems,
        tally,
    })
}
