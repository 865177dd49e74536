//! Output checks: the report digest and the per-day accounting.

use ruwhere_core::{StudyConfig, StudyResults};
use ruwhere_store::{CheckpointDir, SweepStats};
use std::path::Path;

/// Report sections left out of the digest: they count measurement cost
/// (`retained_sweep_stats`, `analysis_engine`) or record symbol order
/// (`interner_dump`), which a legitimate optimisation may change.
const EXCLUDED_SECTIONS: [&str; 3] = ["retained_sweep_stats", "analysis_engine", "interner_dump"];
/// `dataset_stats` rows that count query failures and retry budget —
/// measurement cost again, not findings.
const EXCLUDED_ROWS: [&str; 2] = ["query failures", "retry budget spent"];

/// Digests of the default seed's figure and table sections, one line per
/// workload: `<workload>\t<digest>`.
const PINNED: &str = include_str!("../pinned.tsv");

/// The seed whose digests are pinned in `pinned.tsv`.
pub const DEFAULT_SEED: u64 = 1;

/// The figure and table sections of a `render_report` document, in a form
/// that excluded rows cannot influence: table rules and cell padding
/// (which track the widest cell, excluded rows included) are dropped.
pub fn figure_text(report: &str) -> String {
    let mut out = String::new();
    let mut section: Option<&str> = None;
    for line in report.lines() {
        if let Some(id) = line
            .strip_prefix("=== ")
            .and_then(|l| l.strip_suffix(" ==="))
        {
            section = Some(id);
            if !EXCLUDED_SECTIONS.contains(&id) {
                out.push_str(line);
                out.push('\n');
            }
            continue;
        }
        match section {
            Some(id) if EXCLUDED_SECTIONS.contains(&id) => {}
            Some("dataset_stats") => {
                if line.starts_with('+') || EXCLUDED_ROWS.iter().any(|r| line.contains(r)) {
                    continue;
                }
                let cells: Vec<&str> = line.split('|').map(str::trim).collect();
                out.push_str(&cells.join("|"));
                out.push('\n');
            }
            _ => {
                out.push_str(line);
                out.push('\n');
            }
        }
    }
    out
}

/// FNV-1a 64 of `bytes` as 16 hex digits. The benchmark keeps its own
/// hash so pinned digests never move with the program's code.
pub fn fnv_hex(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Digest of the report's figure and table sections.
pub fn figure_digest(report: &str) -> String {
    fnv_hex(figure_text(report).as_bytes())
}

/// The pinned digest of `workload` at [`DEFAULT_SEED`].
pub fn pinned_digest(workload: &str) -> Option<&'static str> {
    PINNED
        .lines()
        .filter_map(|l| l.split_once('\t'))
        .find(|(w, _)| *w == workload)
        .map(|(_, d)| d.trim())
}

/// Per-day accounting: of one study's days, or of every study of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DayTally {
    pub days: u64,
    /// Failed days: days whose sweep lost a shard for good, and every day
    /// of a study that failed its checks.
    pub failed: u64,
    pub queries: u64,
}

impl DayTally {
    /// Account one study day.
    pub fn add(&mut self, stats: &SweepStats) {
        self.days += 1;
        self.queries += stats.queries;
        if stats.shards_lost > 0 {
            self.failed += 1;
        }
    }

    /// Account one whole study of `days` days: `Ok(failed)` fails that
    /// many of them, `Err` fails every one.
    pub fn study(&mut self, days: u64, outcome: &Result<u64, String>) {
        self.days += days;
        match outcome {
            Ok(failed) => self.failed += failed,
            Err(e) => {
                eprintln!("studybench: study failed: {e}");
                self.failed += days;
            }
        }
    }
}

/// Per-day counters of a study with a checkpoint directory, read back from
/// its segments; `None` without one. On `resume-replay` the study summed
/// the same segments, so there the sum is an identity, not a check.
pub fn persisted_days(cfg: &StudyConfig) -> Option<Result<DayTally, String>> {
    let dir = cfg.checkpoint_dir.as_deref()?;
    Some(load_chain(dir, cfg).map(|days| {
        let mut tally = DayTally::default();
        for day in days {
            tally.add(&day.frame.stats);
        }
        tally
    }))
}

fn load_chain(dir: &Path, cfg: &StudyConfig) -> Result<Vec<ruwhere_store::DayCheckpoint>, String> {
    let outcome = CheckpointDir::open(dir)
        .and_then(|store| store.load(cfg.fingerprint()))
        .map_err(|e| format!("checkpoint chain unreadable: {e}"))?;
    if !outcome.quarantined.is_empty() {
        return Err(format!(
            "{} checkpoint segment(s) quarantined",
            outcome.quarantined.len()
        ));
    }
    Ok(outcome.days)
}

/// Everything that must hold for one finished study, as a list of
/// problems (empty = correct). `digest` is the report's figure digest.
pub fn study_problems(
    workload: &str,
    seed: u64,
    cfg: &StudyConfig,
    results: &StudyResults,
    digest: &str,
) -> (Vec<String>, DayTally) {
    let mut problems = Vec::new();
    let scheduled = cfg.sweep_dates().len() as u64;
    if results.sweeps_run as u64 != scheduled {
        problems.push(format!(
            "sweeps_run {} != scheduled days {scheduled}",
            results.sweeps_run
        ));
    }
    if results.analysis.record_visits() == 0 {
        problems.push("no domain-days observed".into());
    }
    // Without a checkpoint chain the per-day counters are not kept; the
    // traced mirror, which sees every frame, checks the sum instead.
    let mut tally = DayTally::default();
    if let Some(persisted) = persisted_days(cfg) {
        match persisted {
            Ok(t) => tally = t,
            Err(e) => problems.push(e),
        }
        if tally.days != scheduled {
            problems.push(format!(
                "{} persisted days != scheduled days {scheduled}",
                tally.days
            ));
        }
        if tally.queries != results.total_queries {
            problems.push(format!(
                "total_queries {} != sum of per-day queries {}",
                results.total_queries, tally.queries
            ));
        }
    }
    if seed == DEFAULT_SEED {
        match pinned_digest(workload) {
            Some(p) if p == digest => {}
            Some(p) => problems.push(format!("report digest {digest} != pinned {p}")),
            None => problems.push(format!("no pinned digest for {workload}")),
        }
    }
    (problems, tally)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_ignores_cost_sections_and_rows() {
        let report = |failures: &str, dump: &str| {
            format!(
                "=== dataset_stats ===\n+-----+\n| unique | 10 |\n| query failures | {failures} |\n\
                 +-----+\n\n=== fig1_series ===\n# F\n1\t2\n\n=== interner_dump ===\n{dump}\n"
            )
        };
        let a = report("1 / 2 / 3", "a b");
        let b = report("1000 / 2 / 3", "b a");
        assert_eq!(figure_digest(&a), figure_digest(&b));
        let c = a.replace("1\t2", "1\t3");
        assert_ne!(figure_digest(&a), figure_digest(&c));
        assert!(figure_text(&a).contains("|unique|10|"));
    }

    #[test]
    fn every_workload_has_a_pinned_digest() {
        for w in crate::workload::Workload::ALL {
            let d = pinned_digest(w.name()).expect("pinned");
            assert_eq!(d.len(), 16);
        }
    }
}
