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
        // The file is created before any work: neither mode got as far as
        // announcing its sweep or study.
        let stderr = String::from_utf8_lossy(&out.stderr);
        for started in ["running the pinned fixture study", "sweeping the fixture"] {
            assert!(!stderr.contains(started), "{flag} ran first:\n{stderr}");
        }
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

/// Sections of a version-1 segment, each `len | body | crc`: a meta that
/// names format version 1, then interner and frame bodies this build
/// never reaches.
fn version_1_segment() -> Vec<u8> {
    use ruwhere_store::checkpoint::{crc32, SEGMENT_MAGIC};
    let mut meta = Vec::new();
    meta.extend_from_slice(&1u32.to_le_bytes());
    meta.extend_from_slice(&0u64.to_le_bytes());
    meta.extend_from_slice(&0u32.to_le_bytes());
    meta.extend_from_slice(&19_000i32.to_le_bytes());
    meta.extend_from_slice(&0u64.to_le_bytes());
    let mut out = SEGMENT_MAGIC.to_vec();
    for body in [meta, vec![0; 32], vec![0; 64]] {
        out.extend_from_slice(&(body.len() as u32).to_le_bytes());
        out.extend_from_slice(&body);
        out.extend_from_slice(&crc32(&body).to_le_bytes());
    }
    out
}

/// A chain in another segment format is not damage: `--resume` exits 2
/// naming the version, and renames nothing.
#[test]
fn resuming_a_chain_in_another_format_exits_2_and_renames_nothing() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli-version-1");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let segment = dir.join("day-000000.ckpt");
    std::fs::write(&segment, version_1_segment()).expect("write segment");
    let listing = || {
        let mut names: Vec<_> = std::fs::read_dir(&dir)
            .expect("list")
            .map(|e| e.expect("entry").file_name())
            .collect();
        names.sort();
        names
    };
    let before = listing();
    let out = repro(
        &[
            "--scale",
            "5000",
            "--checkpoint-dir",
            dir.to_str().expect("utf-8 path"),
            "--resume",
        ],
        None,
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr:\n{stderr}");
    assert!(
        stderr.contains("unsupported segment version 1"),
        "stderr:\n{stderr}"
    );
    assert!(!stderr.contains("panicked"), "repro panicked:\n{stderr}");
    assert_eq!(listing(), before, "nothing renamed or written");
    assert_eq!(
        std::fs::read(&segment).expect("segment"),
        version_1_segment()
    );
    let _ = std::fs::remove_dir_all(&dir);
}
