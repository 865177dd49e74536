//! `repro` rejects bad numeric inputs up front: a usage message on
//! stderr and exit code 2, before any world is built — never a panic, a
//! silent clamp or a silent default.

use std::process::{Command, Output};

fn repro(args: &[&str], bench_days: Option<&str>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    cmd.args(args)
        .env_remove("RUWHERE_CHECKPOINT_DIR")
        .env_remove("RUWHERE_BENCH_DAYS");
    if let Some(days) = bench_days {
        cmd.env("RUWHERE_BENCH_DAYS", days);
    }
    cmd.output().expect("spawn repro")
}

fn assert_usage_error(out: &Output, message: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr:\n{stderr}");
    assert!(
        stderr.contains(message),
        "missing {message:?} in:\n{stderr}"
    );
    assert!(
        stderr.contains("usage: repro"),
        "no usage line in:\n{stderr}"
    );
    assert!(!stderr.contains("panicked"), "repro panicked:\n{stderr}");
}

#[test]
fn scale_must_be_an_integer() {
    let out = repro(&["--scale", "abc"], None);
    assert_usage_error(&out, r#"--scale takes an integer >= 1, got "abc""#);
}

#[test]
fn scale_must_be_at_least_one() {
    for bad in ["0", "-5"] {
        let out = repro(&["--scale", bad], None);
        assert_usage_error(&out, &format!("--scale takes an integer >= 1, got {bad:?}"));
    }
}

#[test]
fn bench_days_must_be_a_positive_integer() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let metrics = dir.join("cli-metrics.json");
    let metrics = metrics.to_str().expect("utf-8 path");
    for bad in ["abc", "0", "-1", ""] {
        let out = repro(&["--metrics", metrics], Some(bad));
        assert_usage_error(
            &out,
            &format!("RUWHERE_BENCH_DAYS must be a positive integer, got {bad:?}"),
        );
    }
}

#[test]
fn peak_rss_is_reported_on_stderr_only() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let metrics = dir.join("cli-rss-metrics.json");
    let out = repro(
        &["--metrics", metrics.to_str().expect("utf-8 path")],
        Some("1"),
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr:\n{stderr}");
    assert!(!String::from_utf8_lossy(&out.stdout).contains("peak RSS"));
    if !std::path::Path::new("/proc/self/status").exists() {
        return;
    }
    let mb: f64 = stderr
        .lines()
        .find_map(|l| l.strip_prefix("repro: peak RSS "))
        .and_then(|v| v.strip_suffix(" MB"))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no peak RSS line in:\n{stderr}"));
    assert!(mb > 0.0, "peak RSS {mb} MB");
}

/// A path below a regular file, which no write can create.
fn unwritable(name: &str) -> std::path::PathBuf {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let file = dir.join("cli-regular-file");
    std::fs::write(&file, "not a directory").expect("write a regular file");
    file.join(name)
}

fn assert_io_error(out: &Output, path: &std::path::Path) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr:\n{stderr}");
    let want = format!("error: {}: ", path.display());
    assert!(stderr.contains(&want), "missing {want:?} in:\n{stderr}");
    assert!(!stderr.contains("panicked"), "repro panicked:\n{stderr}");
}

#[test]
fn unwritable_artifact_files_exit_2_without_a_panic() {
    for flag in ["--metrics", "--report"] {
        let path = unwritable("artifact.txt");
        let out = repro(&[flag, path.to_str().expect("utf-8 path")], Some("1"));
        assert_io_error(&out, &path);
    }
}

#[test]
fn an_unwritable_out_dir_fails_before_the_study_runs() {
    let path = unwritable("out");
    let out = repro(
        &[
            "--scale",
            "5000",
            "--out",
            path.to_str().expect("utf-8 path"),
        ],
        None,
    );
    assert_io_error(&out, &path);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !stderr.contains("study complete"),
        "the study ran:\n{stderr}"
    );
    assert!(out.stdout.is_empty(), "artifacts were printed");
}
