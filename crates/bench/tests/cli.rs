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
