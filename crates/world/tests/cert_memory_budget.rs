//! Memory budget of the world's certificate state.
//!
//! Certificates are the world state that grows fastest with the study
//! window: every issuance adds a store row, its CT entry and possibly a
//! served row id. A counting global allocator tracks live heap bytes, and
//! the test compares two copies of one world advanced over the same days:
//! one that issues certificates and one whose certificate window starts
//! after the end. The difference, divided by the number of CT-logged
//! certificates, is the live heap each certificate costs. This file holds a single test, and the allocator counts only the
//! test's own thread while it measures.

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

/// Upper bound on live heap bytes per CT-logged certificate in the tiny
/// world advanced to 2022-04-01. With a deep copy of every certificate in
/// each log, and issuer strings, chain and served chain summaries copied
/// per certificate, it measured 1085 bytes. One certificate shared by both
/// logs and the serving map, with issuer strings and chain shared per CA
/// brand, brought it to 458. Deriving leaf hashes on read instead of
/// storing one 32-byte leaf per log entry brought it to 335–356.
/// Dropping the per-issuance index row, which revocation now reads from
/// the CT log instead, brought it to 274–299 over 100 runs. One store row
/// per certificate (24 bytes, the CN shared with the domain state, the
/// `www.` SAN a flag), one CT entry column for both logs and row ids in
/// the serving map brought it to 74–103 over 270 runs (86 in most),
/// counting every thread of the test binary. Counting only the test's
/// own thread, it read (703 804 − 600 770) / 1 142 = 90.2 bytes on 50 of
/// 50 runs, and the bound sits a few bytes above it. Advancing the world
/// binds and unbinds services in process-seeded tables (the network's
/// service table, the TLS serving index), so that one value is measured,
/// not guaranteed by construction.
/// `crates/ct/tests/cert_store_memory_budget.rs` bounds the store's own
/// share.
const MAX_LIVE_BYTES_PER_CERT: f64 = 93.0;

/// Live heap bytes a world holds after advancing to `end`, and its CT log
/// size.
fn advanced_world_bytes(cfg: WorldConfig, end: Date) -> (i64, u64) {
    let before = LIVE_BYTES.load(Ordering::Relaxed);
    let mut world = World::new(cfg);
    world.advance_to(end);
    let bytes = LIVE_BYTES.load(Ordering::Relaxed) - before;
    let logged = world.ct_log().size();
    drop(world);
    (bytes, logged)
}

#[test]
fn certificate_state_stays_within_budget() {
    MEASURING.with(|m| m.set(true));
    let end = Date::from_ymd(2022, 4, 1);
    let with_certs = WorldConfig::tiny();
    let mut without_certs = with_certs.clone();
    without_certs.cert_start = without_certs.end.succ();

    let (bytes, logged) = advanced_world_bytes(with_certs, end);
    let (baseline, none) = advanced_world_bytes(without_certs, end);
    assert_eq!(none, 0, "the control world issued certificates");
    assert!(logged > 1_000, "only {logged} certificates logged");

    let per_cert = (bytes - baseline) as f64 / logged as f64;
    println!(
        "{bytes} - {baseline} live bytes over {logged} logged certificates = {per_cert:.0} per certificate"
    );
    assert!(
        per_cert < MAX_LIVE_BYTES_PER_CERT,
        "{per_cert:.0} live bytes per certificate (budget {MAX_LIVE_BYTES_PER_CERT})"
    );
}
