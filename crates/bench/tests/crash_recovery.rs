//! Crash-injection harness: SIGKILL a checkpointed `repro --report` run
//! at a randomized checkpoint boundary, corrupt segments on disk, then
//! resume and assert the recovered report is byte-identical to an
//! uninterrupted baseline — including across worker counts.
//!
//! The harness drives the real binary as a child process, so it
//! exercises the same code path an operator would: atomic segment
//! writes, quarantine-and-salvage on load, and replay-based resume.
//!
//! Gated on `RUWHERE_CRASH_TEST=1` (slow; runs full studies several
//! times). CI runs it in release with a pinned `RUWHERE_BENCH_DAYS`.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant, SystemTime};

const GATE_ENV: &str = "RUWHERE_CRASH_TEST";

fn gated() -> bool {
    let on = std::env::var(GATE_ENV).map(|v| v == "1").unwrap_or(false);
    if !on {
        eprintln!("crash_recovery: skipped (set {GATE_ENV}=1 to run)");
    }
    on
}

/// Days per study for the child processes. Enough that a kill lands
/// mid-run; overridable so CI can pin a cheaper fixture. A malformed
/// value fails the test rather than falling back to the default.
fn study_days() -> i32 {
    ruwhere_bench::bench_days()
        .unwrap_or_else(|e| panic!("{e}"))
        .unwrap_or(5)
}

/// Segments a complete child run writes: one per sweep of the pinned
/// fixture schedule (weeklies plus the trimmed daily window).
fn total_segments(days: i32) -> u64 {
    ruwhere_bench::fixture_config_for_days(Some(days))
        .sweep_dates()
        .len() as u64
}

/// Fresh work directory under the cargo-managed tmpdir, preserved on
/// failure so CI can upload quarantined segments as artifacts.
fn work_dir(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("crash-recovery")
        .join(tag);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create work dir");
    dir
}

/// A `repro --report` child with the harness's pinned environment.
fn repro(report: &Path, workers: &str, days: i32) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    cmd.arg("--report")
        .arg(report)
        .env("RUWHERE_WORKERS", workers)
        .env("RUWHERE_BENCH_DAYS", days.to_string())
        .env_remove("RUWHERE_CHECKPOINT_DIR");
    cmd
}

fn run_ok(mut cmd: Command, what: &str) -> String {
    let out = cmd.output().unwrap_or_else(|e| panic!("spawn {what}: {e}"));
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(
        out.status.success(),
        "{what} failed ({}):\n{stderr}",
        out.status
    );
    stderr
}

/// Assert two report files are byte-identical; on mismatch report the
/// first diverging offset instead of dumping megabytes.
fn assert_reports_identical(baseline: &Path, recovered: &Path, context: &str) {
    let a = std::fs::read(baseline).expect("read baseline report");
    let b = std::fs::read(recovered).expect("read recovered report");
    if a != b {
        let off = a
            .iter()
            .zip(b.iter())
            .position(|(x, y)| x != y)
            .unwrap_or_else(|| a.len().min(b.len()));
        panic!(
            "{context}: reports diverge at byte {off} (baseline {} B, recovered {} B)",
            a.len(),
            b.len()
        );
    }
}

fn segments(dir: &Path) -> Vec<String> {
    let mut v: Vec<String> = std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok())
                .map(|e| e.file_name().to_string_lossy().into_owned())
                .filter(|n| n.ends_with(".ckpt"))
                .collect()
        })
        .unwrap_or_default();
    v.sort();
    v
}

/// The uninterrupted 1-worker baseline report, rendered once per days
/// setting into the shared work area.
fn baseline_report(days: i32) -> PathBuf {
    let dir = work_dir(&format!("baseline-{days}"));
    let path = dir.join("report.txt");
    run_ok(repro(&path, "1", days), "baseline repro --report");
    path
}

/// SIGKILL the checkpointed run once a randomized number of segments
/// are durable, resume at 4 workers, and demand byte-identity with the
/// uninterrupted 1-worker baseline.
#[test]
fn sigkill_at_random_boundary_then_resume_is_byte_identical() {
    if !gated() {
        return;
    }
    let days = study_days();
    let total = total_segments(days);
    let baseline = baseline_report(days);
    let dir = work_dir("sigkill");
    let ckpt = dir.join("ckpt");
    let report = dir.join("report.txt");

    // Randomize the kill point across harness runs; the identity
    // assertion must hold at *every* boundary.
    let nanos = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.subsec_nanos() as u64)
        .unwrap_or(1);
    let kill_after = 1 + nanos % total.max(1);

    let mut child = repro(&report, "1", days)
        .arg("--checkpoint-dir")
        .arg(&ckpt)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn checkpointed repro");
    let deadline = Instant::now() + Duration::from_secs(600);
    let killed = loop {
        if segments(&ckpt).len() as u64 >= kill_after {
            child.kill().expect("SIGKILL child");
            break true;
        }
        if let Some(status) = child.try_wait().expect("poll child") {
            assert!(status.success(), "child exited early with {status}");
            break false; // outran the poll loop — resume still must hold
        }
        assert!(Instant::now() < deadline, "no checkpoint after 600s");
        std::thread::sleep(Duration::from_millis(2));
    };
    let _ = child.wait();
    eprintln!(
        "sigkill: killed={killed} after {} of {total} segments (target {kill_after})",
        segments(&ckpt).len()
    );

    let stderr = run_ok(
        {
            let mut c = repro(&report, "4", days);
            c.arg("--checkpoint-dir").arg(&ckpt).arg("--resume");
            c
        },
        "resume after SIGKILL",
    );
    assert_reports_identical(&baseline, &report, "SIGKILL + resume @4 workers");
    assert_eq!(
        segments(&ckpt).len() as u64,
        total,
        "resume must complete the segment chain:\n{stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Flip a random byte in a mid-chain segment: the loader must
/// quarantine it (and everything after it), salvage the prefix, and the
/// resumed run must still match the baseline byte-for-byte. Also
/// exercises `RUWHERE_CHECKPOINT_DIR` env parity on the resume leg.
#[test]
fn corrupted_segment_is_quarantined_and_resume_recovers() {
    if !gated() {
        return;
    }
    let days = study_days();
    let total = total_segments(days);
    let baseline = baseline_report(days);
    let dir = work_dir("corrupt");
    let ckpt = dir.join("ckpt");
    let report = dir.join("report.txt");

    run_ok(
        {
            let mut c = repro(&report, "2", days);
            c.arg("--checkpoint-dir").arg(&ckpt);
            c
        },
        "checkpointed repro --report",
    );
    let segs = segments(&ckpt);
    assert_eq!(segs.len() as u64, total, "one segment per sweep day");

    // Corrupt a mid-chain victim at a randomized offset.
    let victim = ckpt.join(&segs[segs.len() / 2]);
    let mut bytes = std::fs::read(&victim).expect("read victim segment");
    let nanos = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.subsec_nanos() as usize)
        .unwrap_or(7);
    let off = nanos % bytes.len();
    bytes[off] ^= 1 << (nanos % 8).max(1);
    std::fs::write(&victim, &bytes).expect("rewrite victim segment");
    eprintln!(
        "corrupt: flipped a bit at byte {off} of {}",
        victim.display()
    );

    let stderr = run_ok(
        {
            let mut c = repro(&report, "1", days);
            c.arg("--resume").env("RUWHERE_CHECKPOINT_DIR", &ckpt);
            c
        },
        "resume after corruption",
    );
    assert_reports_identical(&baseline, &report, "bit-flip + resume");
    let quarantined: Vec<String> = std::fs::read_dir(&ckpt)
        .expect("read ckpt dir")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".quarantined"))
        .collect();
    assert!(
        !quarantined.is_empty(),
        "damaged segment should be quarantined:\n{stderr}"
    );
    assert!(
        stderr.contains("quarantined"),
        "resume should report the quarantine:\n{stderr}"
    );
    assert_eq!(
        segments(&ckpt).len() as u64,
        total,
        "re-measured days must be re-checkpointed"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Guard rails: a non-resume run refuses a directory that already holds
/// segments (exit code 2, no clobber), and `--resume` without a
/// directory is a usage error.
#[test]
fn cli_refuses_clobber_and_flagless_resume() {
    if !gated() {
        return;
    }
    let days = study_days();
    let dir = work_dir("guard");
    let ckpt = dir.join("ckpt");
    let report = dir.join("report.txt");
    run_ok(
        {
            let mut c = repro(&report, "1", days);
            c.arg("--checkpoint-dir").arg(&ckpt);
            c
        },
        "first checkpointed run",
    );
    let before = segments(&ckpt);

    let out = {
        let mut c = repro(&report, "1", days);
        c.arg("--checkpoint-dir").arg(&ckpt);
        c
    }
    .output()
    .expect("spawn clobber attempt");
    assert_eq!(out.status.code(), Some(2), "clobber attempt must exit 2");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--resume"),
        "diagnostic should point at --resume"
    );
    assert_eq!(segments(&ckpt), before, "segments must be untouched");

    let out = {
        let mut c = repro(&report, "1", days);
        c.arg("--resume");
        c
    }
    .output()
    .expect("spawn flagless resume");
    assert_eq!(out.status.code(), Some(2), "flagless --resume must exit 2");
    let _ = std::fs::remove_dir_all(&dir);
}
