//! Memory budget of one certificate store row.
//!
//! A counting global allocator tracks live heap bytes while a fresh store,
//! with both CT logs over it, takes one issuance per domain the way the
//! world issues: the CN plus a SAN list of the CN and `www.` over it, from
//! a CA that logs to CT. The domain names exist before the count starts,
//! as the world's domain state holds them. Nothing here is hashed or
//! seeded per process, so the figure is the same on every run and the
//! bound sits a few bytes above it. This file holds a single test, and the allocator counts only the
//! test's own thread while it measures.

use ruwhere_ct::{CertificateAuthority, CtLog};
use ruwhere_types::sync::write;
use ruwhere_types::{Country, Date, DomainName};
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

/// Issuances: the CT-logged certificates of the `conflict-daily` world
/// (1:5000, seed 7) by the end of its window.
const ROWS: usize = 5293;

/// Upper bound on live heap bytes per issuance. A row is 24 bytes, its
/// CN 16 (a shared `DomainName`; the SANs cost two flag bits) and its CT
/// entry 8, one for both logs: 48 bytes. The three columns double as they
/// grow, so at 5293 rows each holds 8192 slots, and the figure reads
/// 74.4.
const MAX_LIVE_BYTES_PER_ROW: f64 = 76.0;

#[test]
fn store_rows_stay_within_budget() {
    MEASURING.with(|m| m.set(true));
    let names: Vec<DomainName> = (0..ROWS)
        .map(|i| format!("domain-{i}.ru").parse().unwrap())
        .collect();
    let mut ca = CertificateAuthority::new("Let's Encrypt", Country::US, &["R3", "E1"], true, 90)
        .with_chain(&["ISRG Root X1"]);
    let day = Date::from_ymd(2022, 1, 1);

    let before = LIVE_BYTES.load(Ordering::Relaxed);
    let argon = CtLog::new("argon");
    let xenon = CtLog::over("xenon", argon.store());
    for (i, name) in names.iter().enumerate() {
        let san = [name.clone(), name.prepend("www").unwrap()];
        ca.issue(&mut write(argon.store()), name, &san, i % 2, day)
            .unwrap();
    }
    let bytes = LIVE_BYTES.load(Ordering::Relaxed) - before;
    assert_eq!((argon.size(), xenon.size()), (ROWS as u64, ROWS as u64));

    let per_row = bytes as f64 / ROWS as f64;
    println!("{bytes} live bytes over {ROWS} store rows = {per_row:.1} per row");
    assert!(
        per_row < MAX_LIVE_BYTES_PER_ROW,
        "{per_row:.1} live bytes per store row (budget {MAX_LIVE_BYTES_PER_ROW})"
    );
}
