//! The end-to-end study harness: build a world, run the measurement
//! schedule, and collect every analysis the paper reports.
//!
//! The paper's dataset is daily for five years; at reproduction scale we
//! sweep weekly before the certificate window and daily from 2022 onward,
//! which preserves every figure's temporal structure (the 2022 events are
//! all at daily granularity) at a fraction of the cost. The cadence is
//! configurable.

use crate::asn_share::AsnShareSeries;
use crate::ca_issuance::CaIssuanceAnalysis;
use crate::composition::{CompositionSeries, InfraKind};
use crate::dataset_stats::DatasetStats;
use crate::engine::AnalysisEngine;
use crate::revocation::RevocationAnalysis;
use crate::russian_ca::RussianCaAnalysis;
use crate::tld_dependency::{TldDependencySeries, TldUsageSeries};
use crate::transitions::TransitionFlows;
use ruwhere_registry::SanctionsList;
use ruwhere_scan::{
    CertDataset, IpScanSnapshot, IpScanner, MatchRule, OpenIntelScanner, SweepOptions,
};
use ruwhere_store::checkpoint::fnv1a64;
use ruwhere_store::{
    CheckpointDir, CheckpointError, DayCheckpoint, Interner, InternerDelta, SweepFrame, TableSizes,
};
use ruwhere_types::{Date, CERT_WINDOW_END, CERT_WINDOW_START};
use ruwhere_world::{World, WorldConfig};
use std::collections::BTreeMap;
use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;

/// Measurement schedule and retention configuration.
#[derive(Debug, Clone)]
pub struct StudyConfig {
    /// World configuration (scale, windows, behaviour).
    pub world: WorldConfig,
    /// Sweep weekly before this date, daily from it on.
    pub daily_from: Date,
    /// Extra dates whose full sweeps are retained for movement analysis
    /// (the first and last sweeps are always retained).
    pub retain: Vec<Date>,
    /// Dates to run IP-wide TLS scans (the last one feeds §4.3).
    pub ip_scans: Vec<Date>,
    /// Extra sweep dates outside the weekly/daily cadence. OpenINTEL is
    /// daily, so event days the scaled-down weekly schedule would skip
    /// (the footnote-8 outage falls on a Monday; the weekly cadence runs
    /// Sundays) get explicit sweeps here.
    pub extra_sweeps: Vec<Date>,
    /// Sweep worker-pool size. Output is byte-identical for any value
    /// (the engine's determinism contract); this only trades wall-clock
    /// time. Defaults to the machine's available parallelism.
    pub workers: usize,
    /// Print progress to stderr.
    pub verbose: bool,
    /// Directory to write (and resume from) durable day checkpoints.
    /// `None` runs fully in-memory, as before.
    pub checkpoint_dir: Option<PathBuf>,
    /// Resume from the checkpoints in `checkpoint_dir`: salvage the
    /// longest valid day prefix, replay it (interner, network clock,
    /// analysis observers), and sweep live from the first missing day.
    /// Without this flag a non-empty checkpoint directory is refused.
    pub resume: bool,
    /// Stop after processing this many study days (crash-harness knob:
    /// simulates an interrupted run that wrote only a prefix of its
    /// checkpoints). The analyses still finalize over what was processed.
    pub stop_after_sweeps: Option<usize>,
}

impl StudyConfig {
    /// The paper's schedule against a given world configuration.
    pub fn paper_schedule(world: WorldConfig) -> Self {
        let daily_from = Date::from_ymd(2022, 1, 1).max(world.start);
        let retain = vec![
            Date::from_ymd(2022, 2, 23),
            Date::from_ymd(2022, 3, 7),
            Date::from_ymd(2022, 3, 8),
            Date::from_ymd(2022, 3, 10),
            world.end,
        ];
        let ip_scans = vec![
            Date::from_ymd(2022, 3, 15),
            Date::from_ymd(2022, 4, 15),
            CERT_WINDOW_END,
        ];
        StudyConfig {
            world,
            daily_from,
            retain,
            ip_scans,
            // The 2021-03-22 measurement outage (footnote 8).
            extra_sweeps: vec![Date::from_ymd(2021, 3, 22)],
            workers: ruwhere_scan::available_workers(),
            verbose: false,
            checkpoint_dir: None,
            resume: false,
            stop_after_sweeps: None,
        }
    }

    /// A fast schedule for tests: tiny world, daily sweeps only from
    /// mid-February, fewer IP scans.
    pub fn test_schedule() -> Self {
        let world = WorldConfig::tiny();
        let mut cfg = Self::paper_schedule(world);
        cfg.daily_from = Date::from_ymd(2022, 2, 20);
        cfg
    }

    /// The sweep dates implied by the cadence.
    pub fn sweep_dates(&self) -> Vec<Date> {
        let mut dates = Vec::new();
        let mut d = self.world.start;
        while d < self.daily_from.min(self.world.end) {
            dates.push(d);
            d = d.add_days(7);
        }
        let mut d = self.daily_from.max(self.world.start);
        while d <= self.world.end {
            dates.push(d);
            d = d.succ();
        }
        for &d in &self.extra_sweeps {
            if d >= self.world.start && d <= self.world.end {
                dates.push(d);
            }
        }
        dates.sort_unstable();
        dates.dedup();
        dates
    }

    /// FNV-1a fingerprint of everything that shapes measurement output:
    /// the world configuration and the sweep/scan schedule. Stamped into
    /// every checkpoint segment so a directory can only be resumed by the
    /// same study. Deliberately EXCLUDES `workers` (output is
    /// byte-identical for any worker count — a study checkpointed at 4
    /// workers may resume at 1), `verbose`, and the checkpoint knobs
    /// themselves.
    pub fn fingerprint(&self) -> u64 {
        let canon = format!(
            "{:?}|{:?}|{:?}|{:?}|{:?}",
            self.world, self.daily_from, self.retain, self.ip_scans, self.extra_sweeps
        );
        fnv1a64(canon.as_bytes())
    }
}

/// Why a checkpointed study run could not proceed. Validation problems
/// (unwritable directory, mismatched config, refusing to clobber) are
/// reported here — never as panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StudyError {
    /// The checkpoint store failed (I/O, corruption beyond salvage,
    /// config fingerprint mismatch).
    Checkpoint(CheckpointError),
    /// The study configuration is inconsistent with the on-disk state.
    InvalidConfig(String),
}

impl fmt::Display for StudyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StudyError::Checkpoint(e) => write!(f, "checkpoint error: {e}"),
            StudyError::InvalidConfig(msg) => write!(f, "invalid study configuration: {msg}"),
        }
    }
}

impl std::error::Error for StudyError {}

impl From<CheckpointError> for StudyError {
    fn from(e: CheckpointError) -> StudyError {
        StudyError::Checkpoint(e)
    }
}

/// Everything the analyses produce, ready for figure/table rendering.
pub struct StudyResults {
    /// Figure 1: NS-infrastructure country composition.
    pub ns_composition: CompositionSeries,
    /// §3.1 text: hosting composition.
    pub hosting_composition: CompositionSeries,
    /// Figure 5: sanctioned domains' NS composition.
    pub sanctioned_ns: CompositionSeries,
    /// Figure 2: NS TLD-dependency composition.
    pub tld_dependency: TldDependencySeries,
    /// Figure 3: per-TLD NS usage.
    pub tld_usage: TldUsageSeries,
    /// Figure 4: hosting ASN shares.
    pub asn_share: AsnShareSeries,
    /// Retained sweep frames for movement analysis (Figures 6, 7; §3.4).
    /// Columnar, metrics-stripped: symbols resolve via
    /// [`StudyResults::interner`].
    pub retained: BTreeMap<Date, SweepFrame>,
    /// The study-wide symbol table every frame and observer shares.
    pub interner: Arc<Interner>,
    /// The single-pass engine's work counters (frames walked, record
    /// visits, observer dispatches).
    pub analysis: AnalysisEngine,
    /// §4 certificate dataset (CT index over the analysis window).
    pub certs: CertDataset,
    /// Figure 8 / Table 1 analysis.
    pub issuance: CaIssuanceAnalysis,
    /// Table 2 analysis.
    pub revocation: RevocationAnalysis,
    /// §4.3 analysis (from the final IP scan).
    pub russian_ca: Option<RussianCaAnalysis>,
    /// All IP scans that ran.
    pub ip_scans: Vec<IpScanSnapshot>,
    /// The sanctions list used.
    pub sanctions: SanctionsList,
    /// §2 dataset-scale statistics.
    pub dataset: DatasetStats,
    /// Per-sweep composition transition flows (who moved, when).
    pub transitions: TransitionFlows,
    /// Measurement statistics: total DNS queries across all sweeps.
    pub total_queries: u64,
    /// Number of sweeps run.
    pub sweeps_run: usize,
}

impl StudyResults {
    /// The retained sweep frame at `date`, if any.
    pub fn sweep_at(&self, date: Date) -> Option<&SweepFrame> {
        self.retained.get(&date)
    }

    /// The last retained sweep frame (study end).
    pub fn final_sweep(&self) -> Option<&SweepFrame> {
        self.retained.values().next_back()
    }
}

/// Run the full study. Panics if a checkpointed run fails validation —
/// use [`try_run_study`] when `checkpoint_dir` is set and errors should
/// be reported instead.
pub fn run_study(cfg: &StudyConfig) -> StudyResults {
    // Infallible for non-checkpointed configs: every error path below
    // starts at the checkpoint store.
    try_run_study(cfg).unwrap_or_else(|e| panic!("study failed: {e}"))
}

/// Run the full study, durably checkpointing and/or resuming when
/// [`StudyConfig::checkpoint_dir`] is set.
///
/// With a checkpoint directory, each study day is written as a
/// checksummed segment after its sweep (frame + interner delta + network
/// clock — see `ruwhere_store::checkpoint`). With `resume`, the longest
/// valid prefix of segments is *replayed* instead of re-measured: the
/// world advances through the same dates (re-running scheduled IP scans,
/// which are deterministic, but not zone publishes, which nothing on a
/// replayed day reads), the interner is re-primed delta by delta in
/// original order (preserving the seeds-first symbol-assignment
/// invariant), the network clock is restored day by day (fault windows
/// anchor to the absolute clock), and every observer sees the
/// checkpointed frames. A resumed run is therefore byte-identical —
/// report and interner `dump()` — to an uninterrupted one, which the
/// crash harness in `crates/bench` asserts.
pub fn try_run_study(cfg: &StudyConfig) -> Result<StudyResults, StudyError> {
    let store = match &cfg.checkpoint_dir {
        Some(dir) => Some(CheckpointDir::open(dir)?),
        None => None,
    };
    let fingerprint = cfg.fingerprint();
    let mut replayed: Vec<DayCheckpoint> = Vec::new();
    if let Some(store) = &store {
        if cfg.resume {
            let outcome = store.load(fingerprint)?;
            for q in &outcome.quarantined {
                eprintln!(
                    "[study] quarantined damaged checkpoint segment {}: {}{}",
                    q.original.display(),
                    q.reason,
                    q.moved_to
                        .as_ref()
                        .map(|m| format!(" (moved to {})", m.display()))
                        .unwrap_or_default(),
                );
            }
            replayed = outcome.days;
            if cfg.verbose && !replayed.is_empty() {
                eprintln!(
                    "[study] resuming: replaying {} checkpointed day(s)",
                    replayed.len()
                );
            }
        } else if store.has_segments()? {
            return Err(StudyError::InvalidConfig(format!(
                "checkpoint directory {} already contains segments; \
                 pass --resume to continue that run, or use a fresh directory",
                store.path().display()
            )));
        }
    }

    let mut world = World::new(cfg.world.clone());
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
    // One symbol table spans the whole study: the scanner interns into it
    // (seeds first, then merged discoveries — DESIGN.md §10) and every
    // observer reads from it.
    let interner = Arc::new(Interner::new());
    let mut scanner = OpenIntelScanner::with_options(
        &world,
        SweepOptions::new()
            .workers(cfg.workers)
            .interner(interner.clone()),
    );
    let mut ip_scanner = IpScanner::new(&world);
    let mut ip_scans: Vec<IpScanSnapshot> = Vec::new();
    let mut scans_pending = cfg.ip_scans.clone();
    scans_pending.sort();

    // Queries accounted by replayed checkpoints (their sweeps ran in the
    // interrupted process); added to the live scanner's own count so
    // `total_queries` matches an uninterrupted run exactly.
    let mut replayed_queries: u64 = 0;
    for (i, &date) in sweep_dates.iter().enumerate() {
        world.advance_to(date);
        // Run any IP scans scheduled on or before this sweep date. These
        // re-run during replay too — they are a deterministic function of
        // the world, and the original run executed them at exactly this
        // point in the sequence.
        while scans_pending.first().is_some_and(|d| *d <= date) {
            scans_pending.remove(0);
            ip_scans.push(ip_scanner.scan(&mut world));
        }
        // Measurement-outage days (e.g. the 2021-03-22 TLD-server outage
        // behind Figure 1's dip, footnote 8) need no special-casing here:
        // the timeline installs the fault into the network, the sweep
        // mostly times out, and the scanner salvages it as a partial
        // sweep. The dip emerges mechanically.
        let frame = match replayed.get(i) {
            Some(ck) => {
                if ck.date != date {
                    return Err(StudyError::Checkpoint(CheckpointError::ChainBroken {
                        detail: format!(
                            "checkpoint day {i} is dated {}, but the schedule says {date} \
                             — the directory belongs to a different study",
                            ck.date
                        ),
                    }));
                }
                // Mirror the replaced sweep's world interactions, in
                // order: it appended to the interner and advanced the
                // network clock to its slowest lane's end. Its zone
                // publish is not repeated: nothing on a replayed day
                // reads the RIPN servers (IP scans only probe TLS), and
                // the next live sweep publishes its own day.
                ck.interner.replay(&interner)?;
                world.restore_net_clock_us(ck.net_clock_us);
                replayed_queries += ck.frame.stats.queries;
                ck.frame.clone()
            }
            None => {
                let base = TableSizes::of(&interner);
                let frame = scanner.sweep_frame(&mut world);
                if let Some(store) = &store {
                    store.write_day(
                        &DayCheckpoint {
                            day_index: i as u32,
                            date,
                            net_clock_us: world.network().now().as_micros(),
                            interner: InternerDelta::capture(&interner, base),
                            frame: frame.clone().strip_metrics(),
                        },
                        fingerprint,
                    )?;
                }
                frame
            }
        };
        // One walk over the frame feeds every series (the old design made
        // eight passes over cloned row data here).
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
        );
        if cfg.retain.contains(&date) || first == Some(date) || last == Some(date) {
            // Movement analysis only needs the columns; the observability
            // payload is rendered per sweep, not re-read later.
            retained.insert(date, frame.strip_metrics());
        }
        if cfg.verbose && i % 25 == 0 {
            eprintln!(
                "[study] {date}  sweep {}/{}  queries so far: {}",
                i + 1,
                sweep_dates.len(),
                replayed_queries + scanner.queries_sent()
            );
        }
        if cfg.stop_after_sweeps.is_some_and(|n| i + 1 >= n) {
            break;
        }
    }

    // Certificate analyses over the paper's window.
    world.finalize_ocsp();
    let cert_from = CERT_WINDOW_START.max(cfg.world.cert_start);
    let cert_to = CERT_WINDOW_END.min(cfg.world.end);
    let certs = CertDataset::from_logs(world.ct_logs(), cert_from, cert_to, MatchRule::CnOrSan);
    let issuance = CaIssuanceAnalysis::new(&certs);
    let revocation = RevocationAnalysis::new(&certs, world.ocsp(), &sanctions, cert_to);
    let russian_ca = ip_scans
        .last()
        .map(|scan| RussianCaAnalysis::new(scan, &certs, &sanctions, cert_to));

    Ok(StudyResults {
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
        sweeps_run: cfg
            .stop_after_sweeps
            .map_or(sweep_dates.len(), |n| n.min(sweep_dates.len())),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_cadence() {
        let mut world = WorldConfig::tiny();
        world.start = Date::from_ymd(2021, 12, 1);
        world.end = Date::from_ymd(2022, 1, 10);
        let mut cfg = StudyConfig::paper_schedule(world);
        cfg.daily_from = Date::from_ymd(2022, 1, 1);
        let dates = cfg.sweep_dates();
        // Weekly in December (12-01, 08, 15, 22, 29), daily in January.
        assert_eq!(dates[0], Date::from_ymd(2021, 12, 1));
        assert_eq!(dates[1], Date::from_ymd(2021, 12, 8));
        assert!(dates.contains(&Date::from_ymd(2022, 1, 1)));
        assert!(dates.contains(&Date::from_ymd(2022, 1, 2)));
        assert_eq!(*dates.last().unwrap(), Date::from_ymd(2022, 1, 10));
        // Strictly increasing.
        assert!(dates.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn schedule_daily_only_when_daily_from_is_start() {
        let world = WorldConfig::tiny(); // starts 2022-01-01
        let cfg = StudyConfig::paper_schedule(world.clone());
        let dates = cfg.sweep_dates();
        assert_eq!(dates.len(), world.days());
    }
}
