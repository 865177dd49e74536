//! Memory budget of a freshly built world.
//!
//! DNS data is the largest per-domain cost of the world before any
//! certificate is issued: every managed domain is a row of its plan, and
//! the first TLD publish copies each delegation into the served zone. A
//! counting global allocator tracks live heap bytes across `World::new`
//! and the first `publish_tld_zones`; divided by the population, that is
//! the live heap each domain costs. This file holds a single test, and the allocator counts only the
//! test's own thread while it measures.

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

/// Upper bound on live heap bytes per domain of the tiny world (517
/// domains) after `World::new` and the first `publish_tld_zones`. With a
/// whole zone per managed domain in its plan's zone set, and the plan's
/// member list beside it, it measured 2 587–2 588 B over 20 runs. With
/// each managed domain one row under its plan's template, the row order
/// being the member list, it measured 1 727 B. With the hosting member
/// sets and the TLS pool kept as name lists (a `u32` slot per name
/// instead of a std hash-map entry), it measured 864 624 B, 1 672.4 B per
/// domain, on 50 of 50 runs, counting only the test's own thread. The
/// name lists size by their item count alone, but other tables the world
/// builds (the network's service table, the TLS serving index) are
/// process-seeded, so that one value is measured, not guaranteed by
/// construction. The bound sits a few bytes above the figure.
const MAX_LIVE_BYTES_PER_DOMAIN: f64 = 1_676.0;

#[test]
fn fresh_world_stays_within_budget() {
    MEASURING.with(|m| m.set(true));
    let before = LIVE_BYTES.load(Ordering::Relaxed);
    let mut world = World::new(WorldConfig::tiny());
    world.publish_tld_zones();
    let bytes = LIVE_BYTES.load(Ordering::Relaxed) - before;
    let domains = world.population();
    assert!(domains > 400, "only {domains} domains");
    assert_eq!(world.check_invariants(), Vec::<String>::new());

    let per_domain = bytes as f64 / domains as f64;
    println!("{bytes} live bytes over {domains} domains = {per_domain:.0} B per domain");
    assert!(
        per_domain < MAX_LIVE_BYTES_PER_DOMAIN,
        "{per_domain:.0} live bytes per domain (budget {MAX_LIVE_BYTES_PER_DOMAIN})"
    );
}
