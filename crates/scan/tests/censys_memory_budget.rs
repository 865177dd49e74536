//! Memory budget of the certificate datasets a study keeps.
//!
//! A study keeps every IP-wide TLS scan and the CT-derived certificate
//! dataset until it ends, and the dataset is built after the last sweep,
//! when the world is at its largest: together they set the study's
//! live-heap peak. A counting global allocator tracks live heap bytes; the
//! bytes a structure frees when it is dropped are the bytes it held. This
//! file holds a single test, and the allocator counts only the test's own
//! thread while it measures.

use ruwhere_scan::{CertDataset, IpScanner, MatchRule};
use ruwhere_types::Date;
use ruwhere_world::{World, WorldConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, Ordering};

/// Live heap bytes: requested sizes allocated minus sizes freed, on the
/// test's own thread while it measures.
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

thread_local! {
    /// Set on the test's thread: other threads of the test binary
    /// allocate at times of their own, which would move the figure.
    static MEASURING: Cell<bool> = const { Cell::new(false) };
}

/// Add `bytes` to the live count if this thread is measuring.
fn count(bytes: i64) {
    if MEASURING.try_with(Cell::get).unwrap_or(false) {
        LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed);
    }
}

/// Tracks live bytes, then forwards every call unchanged to [`System`].
struct Counting;

// SAFETY: each method forwards its arguments to `System` untouched, so the
// `GlobalAlloc` contract holds exactly as it does for `System`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Upper bound on live heap bytes per responding endpoint of one IP-wide
/// scan of the tiny world on 2022-04-20. With a parsed chain summary per
/// endpoint (owned CN, issuer and chain-organization strings, a vector of
/// SAN names) and a failure entry per silent probe, it measured 421.6
/// bytes. Flat columns, with the issuer and chain as ids into per-scan
/// organization tables and the covered names in one text column, brought
/// it to 52.8; the bound is that count rounded up.
const MAX_LIVE_BYTES_PER_ENDPOINT: f64 = 60.0;

/// Upper bound on live heap bytes per record of the tiny world's
/// certificate dataset for 2022-01-01 to 2022-04-20. With a copy of each
/// certificate's covered names and issuer fields per record it measured
/// 171.9 bytes. A record that shares the logged certificate brought it to
/// 16.0, and a record that is the certificate's row id and its log date
/// to 8.0 (the dataset's store is the world's, so dropping the dataset
/// frees no certificate); the bound is that count rounded up.
const MAX_LIVE_BYTES_PER_RECORD: f64 = 10.0;

/// Live heap bytes released by dropping `value`.
fn held_bytes<T>(value: T) -> i64 {
    let before = LIVE_BYTES.load(Ordering::Relaxed);
    drop(value);
    before - LIVE_BYTES.load(Ordering::Relaxed)
}

#[test]
fn scan_snapshots_and_cert_records_stay_within_budget() {
    MEASURING.with(|m| m.set(true));
    let end = Date::from_ymd(2022, 4, 20);
    let mut world = World::new(WorldConfig::tiny());
    world.advance_to(end);

    let snap = IpScanner::new(&world).scan(&mut world);
    let endpoints = snap.len();
    assert!(endpoints > 100, "only {endpoints} endpoints responded");
    let per_endpoint = held_bytes(snap) as f64 / endpoints as f64;

    let ds = CertDataset::from_logs(
        world.ct_logs(),
        Date::from_ymd(2022, 1, 1),
        end,
        MatchRule::CnOrSan,
    );
    let records = ds.len();
    assert!(records > 1_000, "only {records} certificate records");
    let per_record = held_bytes(ds) as f64 / records as f64;

    println!(
        "{per_endpoint:.1} live bytes per endpoint ({endpoints} endpoints), \
         {per_record:.1} per certificate record ({records} records)"
    );
    assert!(
        per_endpoint < MAX_LIVE_BYTES_PER_ENDPOINT,
        "{per_endpoint:.1} live bytes per endpoint (budget {MAX_LIVE_BYTES_PER_ENDPOINT})"
    );
    assert!(
        per_record < MAX_LIVE_BYTES_PER_RECORD,
        "{per_record:.1} live bytes per record (budget {MAX_LIVE_BYTES_PER_RECORD})"
    );
}
