//! `studybench` — the whole-study benchmark.
//!
//! ```sh
//! cargo run --release --offline --manifest-path studybench/Cargo.toml -- \
//!     --workload conflict-daily --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Runs the real study entry point (`ruwhere_core::try_run_study` followed
//! by `ruwhere_bench::render_report`) on a generated workload, one study at
//! a time, each in a child process of its own so that its peak RSS is its
//! own. `--trace 0` reports the end-to-end metrics, with wall times scaled
//! to a nominal host speed (`calib.rs`); `--trace 1` also runs the traced
//! mirror of the day loop (`mirror.rs`) and reports per-layer metrics.
//! Every study's output is checked (`check.rs`); failures count
//! against the run's `attempted`/`failed` study days. The last stdout line
//! is the result as one JSON object; the human-readable table goes to
//! stderr.

mod calib;
mod check;
mod mirror;
mod stats;
mod trace;
mod workload;

use check::DayTally;
use ruwhere_core::{try_run_study, StudyConfig};
use ruwhere_scan::{IpScanner, OpenIntelScanner, SweepOptions};
use ruwhere_store::Interner;
use ruwhere_world::World;
use stats::median;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};
use workload::Workload;

/// Set-up repetitions before each timed study, each right after a
/// reference sample that normalises it (see `calib.rs`).
const SETUP_REPS_PER_STUDY: usize = 30;
/// Studies timed per run even when `--seconds` is shorter.
const MIN_STUDIES: usize = 2;
/// Spans and scratch checkpoint directories, inside the checkout.
const OUT_DIR: &str = "studybench/out";

/// End-to-end metrics (tracing off): name, unit.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("study_s", "s"),
    ("domain_days_per_s", "1/s"),
    ("queries_per_domain_day", "queries/dd"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced run): name, unit. The mirror produces all
/// but the last three, which compare the traced and untraced runs.
const PER_LAYER: [(&str, &str); 51] = [
    ("world.new_s", "s"),
    ("world.advance_s", "s"),
    ("world.finalize_ocsp_s", "s"),
    ("world.publish_s", "s"),
    ("world.self_s", "s"),
    ("world.days_stepped", "count"),
    ("world.population_end", "count"),
    ("scan.sweep_s", "s"),
    ("scan.ipscan_s", "s"),
    ("scan.ct_index_s", "s"),
    ("scan.self_s", "s"),
    ("scan.sweeps", "count"),
    ("scan.seeded", "count"),
    ("scan.queries", "count"),
    ("scan.ns_cache_hit_rate", "frac"),
    ("scan.records_per_query", "ratio"),
    ("scan.timeouts", "count"),
    ("scan.servfails", "count"),
    ("scan.lame", "count"),
    ("scan.retries_spent", "count"),
    ("scan.ns_failures", "count"),
    ("scan.partial_days", "count"),
    ("scan.shards_retried", "count"),
    ("scan.shards_lost", "count"),
    ("scan.virtual_s", "s"),
    ("scan.ip_probes", "count"),
    ("scan.certs_indexed", "count"),
    ("netsim.sent", "count"),
    ("netsim.dropped", "count"),
    ("netsim.faulted", "count"),
    ("netsim.unreachable", "count"),
    ("store.write_s", "s"),
    ("store.load_s", "s"),
    ("store.replay_s", "s"),
    ("store.self_s", "s"),
    ("store.segments_written", "count"),
    ("store.bytes_written", "B"),
    ("store.bytes_read", "B"),
    ("store.symbols", "count"),
    ("core.observe_s", "s"),
    ("core.cert_analysis_s", "s"),
    ("core.render_s", "s"),
    ("core.self_s", "s"),
    ("core.record_visits", "count"),
    ("core.observer_dispatches", "count"),
    ("core.report_bytes", "B"),
    ("day.p50_ms", "ms"),
    ("day.p90_ms", "ms"),
    ("trace.overhead_frac", "frac"),
    ("trace.faithful", "bool"),
    ("error_rate", "frac"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set in child processes: `study`, `traced` or `chain`.
    child: Option<String>,
    ckpt: Option<PathBuf>,
}

fn usage(err: &str) -> ! {
    eprintln!("error: {err}");
    eprintln!(
        "usage: studybench --workload <conflict-daily|quiet-daily|resume-replay> \
         --seed N --seconds S --trace <0|1>"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut args = Args {
        workload: Workload::ConflictDaily,
        seed: check::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        child: None,
        ckpt: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| usage(&format!("missing value for {flag}")))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value();
                workload = Some(
                    Workload::parse(&v).unwrap_or_else(|| usage(&format!("unknown workload {v}"))),
                );
            }
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => {
                args.seconds = value()
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s >= 0.0)
                    .unwrap_or_else(|| usage("bad --seconds"))
            }
            "--trace" => {
                args.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--child" => args.child = Some(value()),
            "--ckpt" => args.ckpt = Some(PathBuf::from(value())),
            other => usage(&format!("unknown argument {other}")),
        }
    }
    args.workload = workload.unwrap_or_else(|| usage("--workload is required"));
    args
}

fn main() {
    // The program must see only the generated StudyConfig: never a worker
    // count or checkpoint directory from the environment.
    std::env::remove_var(ruwhere_scan::openintel::WORKERS_ENV);
    std::env::remove_var(ruwhere_scan::openintel::CHECKPOINT_DIR_ENV);
    let args = parse_args();
    let outcome = match args.child.as_deref() {
        Some("study") => child_study(&args),
        Some("traced") => child_traced(&args),
        Some("chain") => child_chain(&args),
        Some(other) => usage(&format!("unknown child mode {other}")),
        None => bench(&args),
    };
    if let Err(e) = outcome {
        eprintln!("studybench: {e}");
        std::process::exit(1);
    }
}

// --- child processes: one study each ------------------------------------

/// High-water resident set size of this process, in KiB.
fn peak_rss_kb() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

fn child_config(args: &Args) -> StudyConfig {
    let mut cfg = args.workload.config(args.seed);
    cfg.checkpoint_dir = args.ckpt.clone();
    cfg
}

/// Time one untraced study from input to complete report, then check it.
fn child_study(args: &Args) -> Result<(), String> {
    let cfg = child_config(args);
    let t0 = calib::mono_s();
    let results = try_run_study(&cfg).map_err(|e| format!("study failed: {e}"))?;
    let report = ruwhere_bench::render_report(&results);
    let t1 = calib::mono_s();
    let study_s = t1 - t0;
    let rss_kb = peak_rss_kb()?;

    let digest = check::figure_digest(&report);
    let (problems, tally) =
        check::study_problems(args.workload.name(), args.seed, &cfg, &results, &digest);
    for p in &problems {
        eprintln!("studybench: {}: {p}", args.workload.name());
    }
    println!(
        "RESULT study_s={study_s} t0={t0} t1={t1} rss_kb={rss_kb} digest={digest} domain_days={} \
         queries={} failed_days={} problems={}",
        results.analysis.record_visits(),
        results.total_queries,
        tally.failed,
        problems.len()
    );
    Ok(())
}

/// Write the checkpoint chain `resume-replay` resumes from: one complete
/// `conflict-daily` study. It runs in a child so that its heap does not
/// shape the parent's set-up and reference timings: with the chain written
/// in the parent, `setup_s` on `resume-replay` split into two levels 10%
/// apart from run to run.
fn child_chain(args: &Args) -> Result<(), String> {
    let mut cfg = Workload::ConflictDaily.config(args.seed);
    cfg.checkpoint_dir = args.ckpt.clone();
    try_run_study(&cfg).map_err(|e| format!("study failed: {e}"))?;
    println!("RESULT written=1");
    Ok(())
}

/// Run the traced mirror once; write its spans out and report its
/// per-layer metrics.
fn child_traced(args: &Args) -> Result<(), String> {
    let cfg = child_config(args);
    let traced = mirror::run(&cfg)?;
    for p in &traced.problems {
        eprintln!("studybench: {} (traced): {p}", args.workload.name());
    }
    let spans = Path::new(OUT_DIR).join(format!(
        "spans-{}-seed{}.tsv",
        args.workload.name(),
        args.seed
    ));
    std::fs::write(&spans, traced.rec.to_tsv())
        .map_err(|e| format!("write {}: {e}", spans.display()))?;

    let mut line = format!(
        "RESULT study_s={} digest={} failed_days={} problems={}",
        traced.study_s,
        check::figure_digest(&traced.report),
        traced.tally.failed,
        traced.problems.len()
    );
    for (name, value) in &traced.metrics {
        let _ = write!(line, " {name}={value}");
    }
    println!("{line}");
    Ok(())
}

// --- the parent: set-up, study loop, aggregation --------------------------

/// One child's `RESULT` line, parsed.
struct ChildResult(BTreeMap<String, String>);

impl ChildResult {
    fn num(&self, key: &str) -> Result<f64, String> {
        self.0
            .get(key)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("child result lacks {key}"))
    }

    fn text(&self, key: &str) -> &str {
        self.0.get(key).map_or("", String::as_str)
    }
}

/// Run one child to completion and parse its result. With `sample`, take
/// reference samples while it runs and add its normalised study time to
/// the result as `norm_s`.
fn spawn_child(
    args: &Args,
    mode: &str,
    ckpt: Option<&Path>,
    sample: bool,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", mode, "--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if let Some(dir) = ckpt {
        cmd.arg("--ckpt").arg(dir);
    }
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("spawn {mode} child: {e}"))?;
    // The child prints one short line, which the pipe holds until read.
    let mut samples = Vec::new();
    while child.try_wait().map_err(|e| e.to_string())?.is_none() {
        if sample {
            samples.push(calib::sample());
            std::thread::sleep(calib::SAMPLE_GAP);
        } else {
            std::thread::sleep(Duration::from_millis(20));
        }
    }
    let out = child
        .wait_with_output()
        .map_err(|e| format!("{mode} child: {e}"))?;
    if !out.status.success() {
        return Err(format!("{mode} child exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix("RESULT "))
        .ok_or_else(|| format!("{mode} child printed no result"))?;
    let mut result = ChildResult(
        line.split_whitespace()
            .filter_map(|kv| kv.split_once('='))
            .map(|(k, v)| (k.to_owned(), v.to_owned()))
            .collect(),
    );
    if sample {
        let norm = calib::normalise(result.num("t0")?, result.num("t1")?, &samples)
            .ok_or("no reference sample overlaps the study")?;
        result.0.insert("norm_s".into(), norm.to_string());
    }
    Ok(result)
}

/// `World::new` + `OpenIntelScanner::with_options` + `IpScanner::new` on
/// the workload's configuration — the study's set-up — timed alone.
fn setup_once(cfg: &StudyConfig) -> f64 {
    let t0 = Instant::now();
    let world = World::new(cfg.world.clone());
    let scanner = OpenIntelScanner::with_options(
        &world,
        SweepOptions::new()
            .workers(cfg.workers)
            .interner(Arc::new(Interner::new())),
    );
    let ip = IpScanner::new(&world);
    let secs = t0.elapsed().as_secs_f64();
    std::hint::black_box((&world, &scanner, &ip));
    secs
}

/// File names, sizes and content hashes of a checkpoint chain; resume
/// must leave all three unchanged.
fn chain_fingerprint(dir: &Path) -> Result<Vec<(String, u64, String)>, String> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir).map_err(|e| e.to_string())? {
        let path = entry.map_err(|e| e.to_string())?.path();
        let bytes = std::fs::read(&path).map_err(|e| e.to_string())?;
        let name = path
            .file_name()
            .unwrap_or_default()
            .to_string_lossy()
            .into_owned();
        files.push((name, bytes.len() as u64, check::fnv_hex(&bytes)));
    }
    files.sort();
    Ok(files)
}

fn bench(args: &Args) -> Result<(), String> {
    let tmp = Path::new(OUT_DIR).join(format!("tmp-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).map_err(|e| format!("create {}: {e}", tmp.display()))?;
    let measured = measure(args, &tmp);
    let _ = std::fs::remove_dir_all(&tmp);
    let (metrics, tally, correct) = measured?;

    let units: BTreeMap<&str, &str> = END_TO_END.iter().chain(PER_LAYER.iter()).copied().collect();
    let mut json = String::new();
    let mut table = String::new();
    for (name, value) in &metrics {
        let unit = units[name.as_str()];
        let _ = write!(
            json,
            "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
            if json.is_empty() { "" } else { ", " }
        );
        let _ = writeln!(table, "  {name:<28} {value:>16.6} {unit}");
    }
    eprintln!(
        "studybench {} seed {} (trace {}):\n{table}  study days attempted {}, failed {}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        tally.days,
        tally.failed
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        correct && tally.failed == 0,
        tally.days.max(1),
        tally.failed
    );
    Ok(())
}

type Measured = (Vec<(String, f64)>, DayTally, bool);

fn measure(args: &Args, tmp: &Path) -> Result<Measured, String> {
    let w = args.workload;
    let base_cfg = w.config(args.seed);
    // Studies, set-up and reference samples share one CPU, so the samples
    // see the host phases the timed work sees.
    let cpu = calib::pin_to_one_cpu()?;
    eprintln!("studybench: pinned to CPU {cpu}");
    let days = base_cfg.sweep_dates().len() as u64;

    // Untimed preparation: the chain `resume-replay` resumes from.
    let chain = if w == Workload::ResumeReplay {
        let dir = w.checkpoint_dir(tmp, 0);
        spawn_child(args, "chain", dir.as_deref(), false)
            .map_err(|e| format!("writing the checkpoint chain failed: {e}"))?;
        dir
    } else {
        None
    };
    let chain_before = chain.as_deref().map(chain_fingerprint).transpose()?;

    let mut tally = DayTally::default();
    let mut n = 0usize;
    // Runs one child and folds its checks into the tally: a child that
    // died, reported problems, or changed the checkpoint chain fails every
    // day of its study. Its result, if any, is returned either way.
    let mut run_child = |mode: &str, tally: &mut DayTally| -> Option<ChildResult> {
        n += 1;
        let ckpt = w.checkpoint_dir(tmp, n);
        let result = spawn_child(args, mode, ckpt.as_deref(), mode == "study" && !args.trace);
        let verdict = result.as_ref().map_err(Clone::clone).and_then(|r| {
            if r.num("problems")? > 0.0 {
                return Err(format!("{mode} study failed its output checks"));
            }
            if let (Some(dir), Some(before)) = (&chain, &chain_before) {
                if &chain_fingerprint(dir)? != before {
                    return Err("resume changed the checkpoint chain".into());
                }
            }
            Ok(r.num("failed_days")? as u64)
        });
        // A study's own fresh directory goes; the shared chain stays.
        if let (Some(dir), None) = (&ckpt, &chain) {
            let _ = std::fs::remove_dir_all(dir);
        }
        tally.study(days, &verdict);
        result.ok()
    };

    // The check pass: one traced study, which alone can check the world's
    // invariants (it owns the world).
    let mut traced: Vec<ChildResult> = run_child("traced", &mut tally).into_iter().collect();
    let mut studies: Vec<ChildResult> = Vec::new();
    let mut setups: Vec<f64> = Vec::new();
    let t0 = Instant::now();
    while studies.len() < MIN_STUDIES || t0.elapsed().as_secs_f64() < args.seconds {
        if !args.trace {
            // Each set-up, normalised by the reference sample just before it.
            setups.extend((0..SETUP_REPS_PER_STUDY).map(|_| {
                let host = calib::sample().cpu / calib::NOMINAL_S;
                setup_once(&base_cfg) / host
            }));
        }
        let Some(r) = run_child("study", &mut tally) else {
            break; // a child that dies leaves nothing to measure
        };
        studies.push(r);
        if args.trace {
            traced.extend(run_child("traced", &mut tally));
        }
    }

    let mut correct = !studies.is_empty();
    let reference = studies.first().map(|r| r.text("digest").to_owned());
    for r in &studies {
        if Some(r.text("digest")) != reference.as_deref() {
            eprintln!("studybench: report digest differs between studies of one run");
            tally.failed += days;
            correct = false;
        }
    }
    let col = |rs: &[ChildResult], key: &str| -> Result<Vec<f64>, String> {
        rs.iter().map(|r| r.num(key)).collect()
    };
    let study_s = col(&studies, "study_s")?;
    let mut metrics: Vec<(String, f64)> = Vec::new();
    if args.trace {
        for (name, _) in &PER_LAYER[..PER_LAYER.len() - 3] {
            metrics.push((name.to_string(), median(&col(&traced, name)?)));
        }
        let faithful = !traced.is_empty()
            && traced
                .iter()
                .all(|r| Some(r.text("digest")) == reference.as_deref());
        if !faithful {
            eprintln!("studybench: the traced mirror's report differs from try_run_study's");
        }
        metrics.push((
            "trace.overhead_frac".into(),
            median(&col(&traced, "study_s")?) / median(&study_s) - 1.0,
        ));
        metrics.push(("trace.faithful".into(), f64::from(u8::from(faithful))));
        metrics.push((
            "error_rate".into(),
            tally.failed as f64 / tally.days.max(1) as f64,
        ));
    } else {
        let norm_s = col(&studies, "norm_s")?;
        eprintln!("studybench: normalised study times {norm_s:?}");
        let first = studies.first().ok_or("no study completed")?;
        let domain_days = first.num("domain_days")?;
        let study = median(&norm_s);
        let rss_mb: Vec<f64> = col(&studies, "rss_kb")?
            .iter()
            .map(|kb| kb / 1024.0)
            .collect();
        metrics.push(("setup_s".into(), median(&setups)));
        metrics.push(("study_s".into(), study));
        metrics.push(("domain_days_per_s".into(), domain_days / study));
        metrics.push((
            "queries_per_domain_day".into(),
            first.num("queries")? / domain_days,
        ));
        metrics.push(("peak_rss_mb".into(), median(&rss_mb)));
    }
    if metrics.iter().any(|(_, v)| !v.is_finite()) {
        return Err("a metric is not finite".into());
    }
    eprintln!(
        "studybench: {} untraced and {} traced studies; raw study wall times {:?}",
        studies.len(),
        traced.len(),
        study_s
    );
    Ok((metrics, tally, correct))
}
