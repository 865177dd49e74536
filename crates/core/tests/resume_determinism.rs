//! Resume byte-identity: an interrupted-then-resumed checkpointed study
//! must be indistinguishable — interner `dump()`, retained frames,
//! query totals, every rendered figure — from an uninterrupted run, for
//! any interruption point and any worker count on either side of the
//! interruption. The uninterrupted baseline runs at 1 worker; resumed
//! runs draw 1, 2 or 4 (the workers-1-vs-N half of the contract).
//!
//! An interruption is simulated the way a crash leaves one: a complete
//! checkpoint chain cut to its first k segments. Segments are written
//! atomically and day i's bytes depend only on days up to i, so the cut
//! chain is exactly what a run killed after day k would have left. The
//! SIGKILL version of the same assertion lives in the crash harness
//! (`crates/bench/tests/crash_recovery.rs`).

use proptest::prelude::*;
use ruwhere_core::experiments::{try_run_study, StudyConfig, StudyError, StudyResults};
use ruwhere_core::figures;
use ruwhere_core::AnalysisEngine;
use ruwhere_store::{decode_segment, CheckpointError, SweepFrame};
use ruwhere_types::Date;
use ruwhere_world::WorldConfig;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::OnceLock;

/// A five-day, all-daily shrink of the tiny-world study: long enough to
/// have interesting interruption points, short enough for debug-profile
/// proptest cases.
fn shrunk_config(workers: usize) -> StudyConfig {
    let mut world = WorldConfig::tiny();
    world.start = Date::from_ymd(2022, 3, 1);
    world.end = Date::from_ymd(2022, 3, 5);
    let mut cfg = StudyConfig::paper_schedule(world);
    cfg.daily_from = cfg.world.start;
    cfg.retain = vec![Date::from_ymd(2022, 3, 2)];
    cfg.ip_scans = vec![Date::from_ymd(2022, 3, 3)];
    cfg.extra_sweeps.clear();
    cfg.workers = workers;
    cfg
}

/// Everything the byte-identity oracle compares.
struct Snapshot {
    dump: String,
    retained: BTreeMap<Date, SweepFrame>,
    total_queries: u64,
    sweeps_run: usize,
    engine: AnalysisEngine,
    fig1: String,
    dataset: String,
}

fn snapshot(r: &StudyResults) -> Snapshot {
    Snapshot {
        dump: r.interner.dump(),
        retained: r.retained.clone(),
        total_queries: r.total_queries,
        sweeps_run: r.sweeps_run,
        engine: r.analysis.clone(),
        fig1: figures::fig1_series(r).render(),
        dataset: figures::dataset_table(r).render(),
    }
}

/// The uninterrupted, checkpoint-free baseline at 1 worker.
fn baseline() -> &'static Snapshot {
    static BASE: OnceLock<Snapshot> = OnceLock::new();
    BASE.get_or_init(|| {
        let r = try_run_study(&shrunk_config(1)).expect("baseline study");
        snapshot(&r)
    })
}

fn assert_matches_baseline(r: &StudyResults, context: &str) {
    let base = baseline();
    let got = snapshot(r);
    assert_eq!(got.dump, base.dump, "{context}: interner dump diverged");
    assert_eq!(
        got.retained, base.retained,
        "{context}: retained frames diverged"
    );
    assert_eq!(
        got.total_queries, base.total_queries,
        "{context}: query totals diverged"
    );
    assert_eq!(got.sweeps_run, base.sweeps_run, "{context}: sweep count");
    assert_eq!(got.engine, base.engine, "{context}: engine counters");
    assert_eq!(got.fig1, base.fig1, "{context}: Figure 1 render diverged");
    assert_eq!(got.dataset, base.dataset, "{context}: dataset table");
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ruwhere-resume-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A complete checkpoint chain: each segment's file name and bytes, in
/// day order.
type Chain = Vec<(String, Vec<u8>)>;

/// Complete chains of the shrunk study written at 1, 2 and 4 workers,
/// each by a run that matched the baseline.
fn chains() -> &'static [Chain; 3] {
    static CHAINS: OnceLock<[Chain; 3]> = OnceLock::new();
    CHAINS.get_or_init(|| {
        [1usize, 2, 4].map(|workers| {
            let dir = tmp_dir(&format!("chain-{workers}"));
            let mut cfg = shrunk_config(workers);
            cfg.checkpoint_dir = Some(dir.clone());
            let r = try_run_study(&cfg).expect("checkpointed study");
            assert_matches_baseline(&r, &format!("checkpointed at {workers} workers"));
            let mut chain: Chain = std::fs::read_dir(&dir)
                .expect("read chain")
                .map(|e| {
                    let e = e.expect("dir entry");
                    let bytes = std::fs::read(e.path()).expect("read segment");
                    (e.file_name().to_string_lossy().into_owned(), bytes)
                })
                .collect();
            chain.sort();
            let _ = std::fs::remove_dir_all(&dir);
            chain
        })
    })
}

/// A fresh directory holding the first `k` segments of the chain written
/// at `pool[w_idx]` workers: what a run killed after day `k` leaves.
fn truncated_copy(tag: &str, k: usize, w_idx: usize) -> PathBuf {
    let dir = tmp_dir(tag);
    std::fs::create_dir_all(&dir).expect("mkdir");
    for (name, bytes) in &chains()[w_idx][..k] {
        std::fs::write(dir.join(name), bytes).expect("write segment");
    }
    dir
}

/// The chain's bytes do not depend on the worker count, segment by
/// segment.
#[test]
fn complete_chains_are_byte_identical_across_worker_counts() {
    let [one, two, four] = chains();
    assert_eq!(one.len(), 5, "one segment per study day");
    for (i, seg) in one.iter().enumerate() {
        assert_eq!(&two[i], seg, "segment {} at 2 workers", seg.0);
        assert_eq!(&four[i], seg, "segment {} at 4 workers", seg.0);
    }
}

fn segment_count(dir: &PathBuf) -> usize {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok())
                .filter(|e| e.file_name().to_string_lossy().ends_with(".ckpt"))
                .count()
        })
        .unwrap_or(0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Interrupt after 0–4 of the 5 study days of a chain written at one
    /// worker count, resume at another: report-level output is
    /// byte-identical to the uninterrupted 1-worker baseline.
    #[test]
    fn interrupted_resumed_run_is_byte_identical(
        stop in 0usize..5,
        w_interrupt_idx in 0usize..3,
        w_resume_idx in 0usize..3,
    ) {
        let pool = [1usize, 2, 4];
        let (w_int, w_res) = (pool[w_interrupt_idx], pool[w_resume_idx]);
        let dir = truncated_copy(&format!("prop-{stop}-{w_int}-{w_res}"), stop, w_interrupt_idx);
        prop_assert_eq!(segment_count(&dir), stop);

        let mut resumed = shrunk_config(w_res);
        resumed.checkpoint_dir = Some(dir.clone());
        resumed.resume = true;
        let full = try_run_study(&resumed).expect("resumed run");
        assert_matches_baseline(
            &full,
            &format!("stop={stop} workers {w_int}->{w_res}"),
        );
        prop_assert_eq!(segment_count(&dir), 5, "resume must complete the chain");
        assert_chain_is_uninterrupted(&dir, &format!("stop={stop} workers {w_int}->{w_res}"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The segments in `dir`, by file name, in day order.
fn read_chain(dir: &PathBuf) -> Chain {
    let mut chain: Chain = std::fs::read_dir(dir)
        .expect("read chain")
        .filter_map(|e| {
            let e = e.expect("dir entry");
            let name = e.file_name().to_string_lossy().into_owned();
            name.ends_with(".ckpt")
                .then(|| (name, std::fs::read(e.path()).expect("read segment")))
        })
        .collect();
    chain.sort();
    chain
}

/// Assert the segments in `dir` are byte-for-byte the uninterrupted
/// chain, segment by segment.
fn assert_chain_is_uninterrupted(dir: &PathBuf, context: &str) {
    let got = read_chain(dir);
    let want = &chains()[0];
    assert_eq!(got.len(), want.len(), "{context}: segment count");
    for (g, w) in got.iter().zip(want) {
        assert!(
            g == w,
            "{context}: segment {} differs from the uninterrupted chain",
            w.0
        );
    }
}

/// A run resumed after any number of days writes the rest of the chain
/// exactly as the uninterrupted run wrote it: each day after the first
/// is scripted over the day before, whether that day was measured or
/// replayed.
#[test]
fn resumed_chains_are_byte_identical_at_every_stop() {
    for stop in 0..=5 {
        let dir = truncated_copy(&format!("chain-stop-{stop}"), stop, 0);
        let mut resumed = shrunk_config(1);
        resumed.checkpoint_dir = Some(dir.clone());
        resumed.resume = true;
        let full = try_run_study(&resumed).expect("resumed run");
        assert_matches_baseline(&full, &format!("stop={stop}"));
        assert_chain_is_uninterrupted(&dir, &format!("stop={stop}"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Every segment after day 0 is an edit script over the day before: it
/// cannot be decoded alone.
#[test]
fn segments_after_day_0_are_scripts_over_the_day_before() {
    let chain = &chains()[0];
    let mut base: Option<SweepFrame> = None;
    for (i, (name, bytes)) in chain.iter().enumerate() {
        let alone = decode_segment(bytes, None);
        if i == 0 {
            assert!(alone.is_ok(), "{name} is a keyframe");
        } else {
            assert!(
                matches!(alone, Err(CheckpointError::ChainBroken { .. })),
                "{name} needs its base"
            );
        }
        let (day, _) = decode_segment(bytes, base.as_ref()).expect("decodes over its base");
        base = Some(day.frame);
    }
}

/// A damaged delta mid-chain is quarantined with every segment after it,
/// and the resumed run re-measures from there: the report matches the
/// baseline and the rewritten chain is the uninterrupted one.
#[test]
fn a_damaged_mid_chain_delta_quarantines_itself_and_what_follows() {
    let dir = truncated_copy("corrupt-delta", 5, 0);
    let victim = dir.join("day-000002.ckpt");
    let mut bytes = std::fs::read(&victim).expect("read segment");
    assert!(
        decode_segment(&bytes, None).is_err(),
        "day 2 is a script over day 1"
    );
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&victim, &bytes).expect("rewrite segment");

    let mut resumed = shrunk_config(1);
    resumed.checkpoint_dir = Some(dir.clone());
    resumed.resume = true;
    let full = try_run_study(&resumed).expect("resume after corruption");
    assert_matches_baseline(&full, "corrupted delta on day 2");
    for day in 2..5 {
        let aside = dir.join(format!("day-{day:06}.ckpt.quarantined"));
        assert!(aside.exists(), "day {day} quarantined");
    }
    assert!(!dir.join("day-000001.ckpt.quarantined").exists());
    assert_eq!(segment_count(&dir), 5);
    assert_chain_is_uninterrupted(&dir, "after re-measuring days 2-4");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A corrupted mid-chain segment is quarantined (typed, reported), the
/// valid prefix is salvaged, and the resumed run — re-measuring from the
/// first quarantined day — still matches the baseline byte-for-byte.
#[test]
fn corrupted_segment_is_quarantined_and_resume_still_matches() {
    let dir = truncated_copy("corrupt", 3, 1);

    // Flip one bit in the middle segment of days 0..3.
    let victim = dir.join("day-000001.ckpt");
    let mut bytes = std::fs::read(&victim).expect("read segment");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x04;
    std::fs::write(&victim, &bytes).expect("rewrite segment");

    let mut resumed = shrunk_config(1);
    resumed.checkpoint_dir = Some(dir.clone());
    resumed.resume = true;
    let full = try_run_study(&resumed).expect("resume after corruption");
    assert_matches_baseline(&full, "corrupted day 1");

    // Day 1 (damaged) and day 2 (chained after it) were renamed aside.
    assert!(dir.join("day-000001.ckpt.quarantined").exists());
    assert!(dir.join("day-000002.ckpt.quarantined").exists());
    // The resume rewrote the re-measured days durably.
    assert_eq!(segment_count(&dir), 5);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A day damaged on two resumes is quarantined twice, and the second
/// quarantine keeps the first damaged copy instead of overwriting it.
#[test]
fn repeated_damage_keeps_every_quarantined_copy() {
    let dir = truncated_copy("requarantine", 3, 0);

    let victim = dir.join("day-000001.ckpt");
    let damage = |bit: u8| {
        let mut bytes = std::fs::read(&victim).expect("read segment");
        let mid = bytes.len() / 2;
        bytes[mid] ^= bit;
        std::fs::write(&victim, &bytes).expect("rewrite segment");
        bytes
    };
    let first = damage(0x04);
    let mut resumed = shrunk_config(1);
    resumed.checkpoint_dir = Some(dir.clone());
    resumed.resume = true;
    try_run_study(&resumed).expect("first resume");

    let second = damage(0x08);
    let full = try_run_study(&resumed).expect("second resume");
    assert_matches_baseline(&full, "day 1 damaged twice");

    let read = |name: &str| std::fs::read(dir.join(name)).expect("quarantined copy");
    assert_eq!(read("day-000001.ckpt.quarantined"), first);
    assert_eq!(read("day-000001.ckpt.1.quarantined"), second);
    assert_eq!(segment_count(&dir), 5);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Refusing to clobber: pointing a non-resume checkpointed run at a
/// directory that already holds segments is a typed validation error.
#[test]
fn non_resume_run_refuses_nonempty_directory() {
    let dir = truncated_copy("clobber", 1, 0);
    let mut second = shrunk_config(1);
    second.checkpoint_dir = Some(dir.clone());
    match try_run_study(&second) {
        Err(StudyError::InvalidConfig(msg)) => {
            assert!(
                msg.contains("--resume"),
                "message should mention --resume: {msg}"
            )
        }
        other => panic!(
            "expected InvalidConfig, got {:?}",
            other.map(|r| r.sweeps_run)
        ),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Resuming with a differently-configured study is a hard config
/// mismatch — the directory is not silently re-measured or clobbered.
#[test]
fn mismatched_config_is_a_hard_error() {
    let dir = truncated_copy("mismatch", 1, 0);
    let mut other = shrunk_config(1);
    other.world.seed ^= 1;
    other.checkpoint_dir = Some(dir.clone());
    other.resume = true;
    match try_run_study(&other) {
        Err(StudyError::Checkpoint(CheckpointError::ConfigMismatch { .. })) => {}
        other => panic!(
            "expected ConfigMismatch, got {:?}",
            other.map(|r| r.sweeps_run)
        ),
    }
    // The foreign run's segment is untouched.
    assert_eq!(segment_count(&dir), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// An unwritable checkpoint path is a typed validation error before any
/// sweeping starts.
#[test]
fn unwritable_checkpoint_dir_is_a_typed_error() {
    let dir = tmp_dir("unwritable");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let file = dir.join("occupied");
    std::fs::write(&file, b"x").expect("write");
    let mut cfg = shrunk_config(1);
    cfg.checkpoint_dir = Some(file.join("nested"));
    match try_run_study(&cfg) {
        Err(StudyError::Checkpoint(CheckpointError::Io { .. })) => {}
        other => panic!("expected Io error, got {:?}", other.map(|r| r.sweeps_run)),
    }
    let _ = std::fs::remove_dir_all(&dir);
}
