//! The three generated workloads. Each is a `StudyConfig` built from the
//! workload name and the seed alone; the program under test sees nothing
//! else.

use ruwhere_core::StudyConfig;
use ruwhere_types::Date;
use ruwhere_world::WorldConfig;
use std::path::{Path, PathBuf};

/// World scale denominator of `conflict-daily` and `resume-replay`: the
/// size of `repro --scale 5000` (about 1100 initial domains).
const CONFLICT_SCALE: usize = 5000;
/// World scale denominator of `quiet-daily` (about 2100 initial domains):
/// a larger population, so the sweep's working set (NS cache, interner)
/// is bigger than in the conflict window.
const QUIET_SCALE: usize = 2500;
/// `StudyConfig::workers`, at most the CPU count of any machine. On a
/// shared 2-CPU host a two-worker sweep waits for the slower of two
/// CPUs: back-to-back `quiet-daily` studies varied by ±25% on two
/// workers and ±8% on one.
const SWEEP_WORKERS: usize = 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's condensed window 2021-11-01 → 2022-05-25: weekly then
    /// daily sweeps, every timeline event, three IP scans, the cert
    /// window, and a checkpoint segment written per day.
    ConflictDaily,
    /// Daily sweeps over an event-free 2021 stretch after the 2021-03-22
    /// outage: no checkpoints, no IP scans, no cert window.
    QuietDaily,
    /// `resume = true` over a complete `conflict-daily` checkpoint chain:
    /// zero sweeps; load, interner replay, world advance and analysis.
    ResumeReplay,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ConflictDaily,
        Workload::QuietDaily,
        Workload::ResumeReplay,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ConflictDaily => "conflict-daily",
            Workload::QuietDaily => "quiet-daily",
            Workload::ResumeReplay => "resume-replay",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The checkpoint directory of study `n` of a run whose scratch
    /// directory is `tmp`: a fresh one per study for `conflict-daily`, the
    /// one shared chain for `resume-replay`, none for `quiet-daily`.
    pub fn checkpoint_dir(self, tmp: &Path, n: usize) -> Option<PathBuf> {
        match self {
            Workload::ConflictDaily => Some(tmp.join(format!("ck-{n}"))),
            Workload::ResumeReplay => Some(tmp.join("chain")),
            Workload::QuietDaily => None,
        }
    }

    /// The study configuration for `seed`, without a checkpoint directory
    /// (see [`Workload::checkpoint_dir`]).
    pub fn config(self, seed: u64) -> StudyConfig {
        let mut cfg = match self {
            Workload::ConflictDaily | Workload::ResumeReplay => {
                let mut world = WorldConfig::paper_scale(CONFLICT_SCALE);
                world.start = Date::from_ymd(2021, 11, 1);
                world.cert_start = world.start;
                StudyConfig::paper_schedule(world)
            }
            Workload::QuietDaily => {
                let mut world = WorldConfig::paper_scale(QUIET_SCALE);
                world.start = Date::from_ymd(2021, 4, 1);
                world.end = Date::from_ymd(2021, 4, 30);
                // No certificate is issued inside the window.
                world.cert_start = world.end.succ();
                let mut cfg = StudyConfig::paper_schedule(world);
                cfg.daily_from = cfg.world.start;
                cfg.ip_scans.clear();
                cfg.extra_sweeps.clear();
                cfg
            }
        };
        cfg.world.seed = seed;
        cfg.workers = SWEEP_WORKERS;
        cfg.verbose = false;
        cfg.resume = self == Workload::ResumeReplay;
        cfg
    }
}
