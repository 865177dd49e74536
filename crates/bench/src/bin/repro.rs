//! `repro` — regenerate every table and figure of the paper.
//!
//! ```sh
//! cargo run --release -p ruwhere-bench --bin repro -- [--scale N] [--full] [--out DIR]
//! ```
//!
//! * `--scale N`  world scale denominator, an integer ≥ 1 (default 1000 ⇒
//!   ≈5 k domains; the paper-faithful setting is 100 ⇒ ≈50 k domains,
//!   slower).
//! * `--full`     simulate the full 2017-06-18 → 2022-05-25 window with
//!   weekly pre-2022 sweeps (default: 2021-11-01 → 2022-05-25, which
//!   covers every figure's active region).
//! * `--out DIR`  also write each artifact to `DIR/<id>.txt`.
//! * `--ablation-geolag`  instead of the full study, run the footnote-5
//!   A/B comparison (IP reconfiguration vs prefix move for the Netnod
//!   event) as two parallel studies and print the composition around
//!   2022-03-03 under each model.
//! * `--metrics FILE`  sweep the first `RUWHERE_BENCH_DAYS` days of the
//!   tiny fixture world (all of them when unset; `RUWHERE_WORKERS`
//!   honored) and write the run-level observability export
//!   (`METRICS_sweep.json`: per-cause latency histograms, per-link
//!   transport tables, resolver counters). The file is byte-identical for
//!   any worker count — CI compares a 1-worker and a 4-worker run with
//!   `cmp`.
//! * `--report FILE`  run the pinned fixture study (`RUWHERE_BENCH_DAYS`
//!   honored, `RUWHERE_WORKERS` honored) and write every figure/table
//!   artifact plus retained sweep stats, engine work counters and the
//!   full symbol-table dump as one text file. Byte-identical for any
//!   worker count — CI compares a 1-worker and a 4-worker report with
//!   `cmp`. Composes with `--metrics`.
//! * `--checkpoint-dir DIR`  persist one durable, checksummed segment per
//!   sweep day to `DIR` (the flag beats the `RUWHERE_CHECKPOINT_DIR`
//!   environment variable). Applies to the full study and to `--report`.
//! * `--resume`  continue an interrupted checkpointed run from its last
//!   valid segment; damaged tail segments are quarantined and reported.
//!   The resumed run's output is byte-identical to an uninterrupted one.
//!
//! `RUWHERE_BENCH_DAYS`, when set, must be a positive integer: the number
//! of days in the fixture's daily window (unset means the whole window).
//! A bad flag value or a bad `RUWHERE_BENCH_DAYS` exits with a usage
//! message and code 2 before any work starts. An output path that cannot
//! be written exits with `error: <path>: <io error>` and code 2. The
//! `--metrics` and `--report` files are created, and `--out`'s directory
//! is created and probed, before any sweep runs, so a bad path fails at
//! once.
//!
//! A run that completes ends with `repro: peak RSS <n> MB` on stderr: the
//! process's high-water resident set (`VmHWM` in `/proc/self/status`, in
//! MiB), omitted where that file does not exist. Stdout carries only the
//! artifacts.

use ruwhere_core::figures;
use ruwhere_core::{run_study, try_run_study, StudyConfig, StudyResults};
use ruwhere_types::Date;
use ruwhere_world::WorldConfig;
use std::path::Path;

struct Args {
    scale: usize,
    full: bool,
    out: Option<std::path::PathBuf>,
    ablation_geolag: bool,
    metrics: Option<std::path::PathBuf>,
    report: Option<std::path::PathBuf>,
    checkpoint_dir: Option<std::path::PathBuf>,
    resume: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        scale: 1000,
        full: false,
        out: None,
        ablation_geolag: false,
        metrics: None,
        report: None,
        checkpoint_dir: ruwhere_scan::default_checkpoint_dir(),
        resume: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| usage("missing value for --scale"));
                args.scale =
                    v.parse().ok().filter(|&n| n >= 1).unwrap_or_else(|| {
                        usage(&format!("--scale takes an integer >= 1, got {v:?}"))
                    });
            }
            "--full" => args.full = true,
            "--ablation-geolag" => args.ablation_geolag = true,
            "--metrics" => {
                args.metrics = Some(
                    it.next()
                        .unwrap_or_else(|| usage("missing value for --metrics"))
                        .into(),
                );
            }
            "--report" => {
                args.report = Some(
                    it.next()
                        .unwrap_or_else(|| usage("missing value for --report"))
                        .into(),
                );
            }
            "--checkpoint-dir" => {
                args.checkpoint_dir = Some(
                    it.next()
                        .unwrap_or_else(|| usage("missing value for --checkpoint-dir"))
                        .into(),
                );
            }
            "--resume" => args.resume = true,
            "--out" => {
                args.out = Some(
                    it.next()
                        .unwrap_or_else(|| usage("missing value for --out"))
                        .into(),
                );
            }
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown argument {other}")),
        }
    }
    args
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage: repro [--scale N] [--full] [--out DIR] [--ablation-geolag]\n\
         \x20            [--metrics FILE] [--report FILE]\n\
         \x20            [--checkpoint-dir DIR] [--resume]"
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

/// Run a study with the CLI's checkpoint knobs applied, turning every
/// checkpoint-layer failure (unwritable directory, config mismatch,
/// broken segment chain, clobber refusal) into a diagnostic and exit
/// code 2 instead of a panic.
fn run_study_checkpointed(mut cfg: StudyConfig, args: &Args) -> StudyResults {
    cfg.checkpoint_dir = args.checkpoint_dir.clone();
    cfg.resume = args.resume;
    match try_run_study(&cfg) {
        Ok(results) => results,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}

/// Print `error: <path>: <err>` and exit with code 2.
fn io_failure(path: &Path, err: std::io::Error) -> ! {
    eprintln!("error: {}: {err}", path.display());
    std::process::exit(2);
}

/// Write `contents` to `path`, or exit through [`io_failure`].
fn write_or_exit(path: &Path, contents: impl AsRef<[u8]>) {
    std::fs::write(path, contents).unwrap_or_else(|e| io_failure(path, e));
}

/// Create (or truncate) the artifact file at `path`, or exit through
/// [`io_failure`]: an unwritable `--metrics` or `--report` path then fails
/// before any sweep runs.
fn create_or_exit(path: &Path) {
    std::fs::File::create(path).unwrap_or_else(|e| io_failure(path, e));
}

/// Create `dir` and check that a file can be written in it, or exit
/// through [`io_failure`]: `--out` then fails before the study runs.
fn prepare_out_dir(dir: &Path) {
    std::fs::create_dir_all(dir).unwrap_or_else(|e| io_failure(dir, e));
    let probe = dir.join(".repro-probe");
    write_or_exit(&probe, "");
    std::fs::remove_file(&probe).unwrap_or_else(|e| io_failure(&probe, e));
}

/// Metrics-export mode: sweep the fixture world and write the run-level
/// `METRICS_sweep.json`. Worker count comes from `RUWHERE_WORKERS`
/// (default: available parallelism); the exported bytes do not depend on
/// it.
fn run_metrics_export(out: &Path, days: Option<i32>) {
    let workers = ruwhere_scan::available_workers();
    eprintln!("metrics: sweeping the fixture with {workers} workers…");
    let (metrics, days) = ruwhere_bench::collect_sweep_metrics(workers, days);
    let json = ruwhere_bench::render_metrics_json(&metrics, days);
    write_or_exit(out, &json);
    eprintln!(
        "wrote {} ({} days, {} delivered-packet samples, {} SRTT samples)",
        out.display(),
        days,
        metrics.net.delay_us.count(),
        metrics.resolver.srtt_us.count(),
    );
}

/// Report-export mode: run the pinned fixture study and render every
/// figure/table artifact, the retained sweeps' stats, the engine's work
/// counters and the full symbol-table dump into one text file. The
/// determinism contract makes the bytes independent of the worker count
/// (`RUWHERE_WORKERS` honored) — CI renders a 1-worker and a 4-worker
/// report and compares them with `cmp`.
fn run_report_export(out: &Path, days: Option<i32>, args: &Args) {
    let cfg = ruwhere_bench::fixture_config_for_days(days);
    eprintln!(
        "report: running the pinned fixture study with {} workers…",
        cfg.workers
    );
    let results = run_study_checkpointed(cfg, args);
    let text = ruwhere_bench::render_report(&results);
    write_or_exit(out, &text);
    eprintln!(
        "wrote {} ({} sections, {} bytes)",
        out.display(),
        text.matches("=== ").count(),
        text.len()
    );
}

/// Run the footnote-5 ablation: two studies in parallel, identical except
/// for how the Netnod event manifests in the network.
fn run_geolag_ablation(scale: usize) {
    let build_cfg = |prefix_move: bool| {
        let mut world = WorldConfig::paper_scale(scale);
        world.start = Date::from_ymd(2022, 2, 1);
        world.cert_start = Date::from_ymd(2022, 2, 1);
        world.end = Date::from_ymd(2022, 4, 15);
        world.netnod_prefix_move = prefix_move;
        // Sparse vendor refreshes make the lag unmistakable.
        world.geo_snapshot_interval_days = 28;
        let mut cfg = StudyConfig::paper_schedule(world);
        cfg.daily_from = Date::from_ymd(2022, 2, 20);
        cfg.ip_scans.clear();
        cfg
    };
    eprintln!("ablation: running both Netnod models in parallel…");
    let t0 = std::time::Instant::now();
    let (reconf, moved) = std::thread::scope(|s| {
        let a = s.spawn(|| run_study(&build_cfg(false)));
        let b = s.spawn(|| run_study(&build_cfg(true)));
        (
            a.join().expect("reconf study"),
            b.join().expect("move study"),
        )
    });
    eprintln!("both studies done in {:.1}s", t0.elapsed().as_secs_f64());

    let mut t = ruwhere_core::Table::new(
        "Footnote-5 ablation: measured partial-NS share around the Netnod event",
        &[
            "date",
            "IP reconfiguration (default)",
            "prefix move (geo lags)",
        ],
    );
    for d in Date::from_ymd(2022, 2, 28).to(Date::from_ymd(2022, 4, 10)) {
        let (Some(a), Some(b)) = (reconf.ns_composition.at(d), moved.ns_composition.at(d)) else {
            continue;
        };
        if d.day() % 3 != 0 && d != Date::from_ymd(2022, 3, 3) {
            continue; // thin the table
        }
        t.row([
            d.to_string(),
            format!("{:.2}%", a.pct_partial()),
            format!("{:.2}%", b.pct_partial()),
        ]);
    }
    println!("{}", t.render());
    println!(
        "Under the prefix-move model the partial share only falls at the next\n\
         geolocation snapshot — the measurement 'lags behind' exactly as the\n\
         paper's footnote 5 warns. The default (IP reconfiguration) model\n\
         matches the paper's observed same-day transition."
    );
}

fn main() {
    run(parse_args());
    if let Some(kib) = peak_rss_kib() {
        eprintln!("repro: peak RSS {:.1} MB", kib as f64 / 1024.0);
    }
}

/// This process's high-water resident set size in KiB, from `VmHWM` in
/// `/proc/self/status`; `None` where that file or line is missing.
fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

fn run(args: Args) {
    if args.resume && args.checkpoint_dir.is_none() {
        usage("--resume requires --checkpoint-dir DIR (or RUWHERE_CHECKPOINT_DIR)");
    }
    let days = ruwhere_bench::bench_days().unwrap_or_else(|e| usage(&e));
    // Artifact modes compose: both files are created first, then
    // --metrics and --report run in that order, then exit.
    for path in [&args.metrics, &args.report].into_iter().flatten() {
        create_or_exit(path);
    }
    if let Some(m) = &args.metrics {
        run_metrics_export(m, days);
    }
    if let Some(rp) = &args.report {
        run_report_export(rp, days, &args);
    }
    if args.metrics.is_some() || args.report.is_some() {
        return;
    }
    if args.ablation_geolag {
        run_geolag_ablation(args.scale.max(1000));
        return;
    }
    if let Some(dir) = &args.out {
        prepare_out_dir(dir);
    }
    let mut world = WorldConfig::paper_scale(args.scale);
    if !args.full {
        // The condensed window still covers: all of the cert analysis
        // (2022-01-01 → 05-15), every §3 event, and enough pre-conflict
        // baseline for composition levels.
        world.start = Date::from_ymd(2021, 11, 1);
        world.cert_start = Date::from_ymd(2021, 11, 1);
    }
    let mut cfg = StudyConfig::paper_schedule(world);
    cfg.verbose = true;

    eprintln!(
        "repro: scale 1:{} ({} initial domains), {} sweeps ({} → {})",
        args.scale,
        cfg.world.initial_population,
        cfg.sweep_dates().len(),
        cfg.world.start,
        cfg.world.end
    );
    let t0 = std::time::Instant::now();
    let results = run_study_checkpointed(cfg, &args);
    eprintln!(
        "study complete in {:.1}s — {} sweeps, {} DNS queries, {} certs indexed",
        t0.elapsed().as_secs_f64(),
        results.sweeps_run,
        results.total_queries,
        results.certs.len()
    );

    let artifacts = ruwhere_bench::paper_artifacts(&results, true);
    for (id, text) in &artifacts {
        println!("=== {id} ===");
        println!("{text}");
    }

    if let Some(dir) = &args.out {
        for (id, text) in &artifacts {
            write_or_exit(&dir.join(format!("{id}.txt")), text);
        }
        // Plottable figures: TSV + gnuplot script pairs.
        use ruwhere_core::{gnuplot_script, PlotSpec};
        let plots = [
            (
                figures::fig1_series(&results),
                PlotSpec::percent("fig1.png", "Figure 1: NS country composition"),
            ),
            (
                figures::fig2_series(&results),
                PlotSpec::percent("fig2.png", "Figure 2: NS TLD-dependency composition"),
            ),
            (
                figures::fig3_series(&results),
                PlotSpec::percent("fig3.png", "Figure 3: top-5 NS TLD usage"),
            ),
            (
                figures::fig4_series(&results),
                PlotSpec::percent("fig4.png", "Figure 4: hosting-network shares"),
            ),
            (
                figures::fig5_series(&results),
                PlotSpec::percent("fig5.png", "Figure 5: sanctioned NS composition"),
            ),
        ];
        for (i, (series, spec)) in plots.iter().enumerate() {
            let base = format!("fig{}", i + 1);
            write_or_exit(&dir.join(format!("{base}.tsv")), series.render());
            write_or_exit(
                &dir.join(format!("{base}.gnuplot")),
                gnuplot_script(series, &format!("{base}.tsv"), spec),
            );
        }
        eprintln!(
            "wrote {} artifacts + {} plot scripts to {}",
            artifacts.len(),
            plots.len(),
            dir.display()
        );
    }
}
