//! Allocation budget of the sweep's DNS data path.
//!
//! Every query goes through name handling and the wire codec four times
//! (client encode, server decode, server encode, client decode), so heap
//! allocations per query are the cost model that wall-clock timing on a
//! shared host cannot pin down. A counting global allocator makes that
//! count exact and repeatable: this file holds a single test so nothing
//! else allocates in its binary while it measures.

use ruwhere_scan::{OpenIntelScanner, SweepOptions};
use ruwhere_world::{World, WorldConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Heap allocations (`alloc`, `alloc_zeroed` and `realloc` calls) since
/// process start.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Counts, then forwards every call unchanged to [`System`].
struct Counting;

// SAFETY: each method forwards its arguments to `System` untouched, so the
// `GlobalAlloc` contract holds exactly as it does for `System`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Upper bound on heap allocations per query over one whole sweep of the
/// tiny world (zone publication, interning and frame building included).
/// Flat names and the in-buffer compression table brought the count from
/// about 134 to about 44. Answers borrowed from the zone and encoded
/// straight to the wire, with zones published by editing them in place,
/// brought it from 44.2 to 33.8. Replies read in place, wire buffers the
/// client reuses, inline lookup results, borrowed cache probes and shared
/// cached answers brought it from 33.8 to 8.96. One reset overlay per
/// worker over a frozen primed resolver, instead of a copy of the primed
/// resolver per domain, plus seed symbols carried to the frame build and
/// one NS-cache accumulator per worker, brought it from 8.96 to 5.7.
/// Per-domain answers read in place from the reply into the worker's flat
/// output columns, with no owned records between, and query names built
/// on the stack, brought it from 5.7 (9 070 allocations for 1 579
/// queries) to 0.8 (1 252); the bound is that count rounded up. Worker
/// tables that live for one sweep (a route memo, and an NS-host table
/// holding each host's wire name once) add about one allocation per NS
/// host per sweep: 0.87 (1 373 for the same 1 579). Finding hosts in a
/// name list by their wire labels, with no owned wire name per host,
/// brought it to 0.80 (1 271); the bound is that count rounded up to a
/// tenth.
const MAX_ALLOCATIONS_PER_QUERY: f64 = 0.9;

#[test]
fn sweep_allocations_per_query_stay_within_budget() {
    let mut world = World::new(WorldConfig::tiny());
    let mut scanner = OpenIntelScanner::with_options(&world, SweepOptions::new().workers(1));
    // Warm-up sweep: interner, caches and buffers reach their steady size.
    scanner.sweep_frame(&mut world);

    let queries_before = scanner.queries_sent();
    let allocations_before = ALLOCATIONS.load(Ordering::Relaxed);
    let frame = scanner.sweep_frame(&mut world);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - allocations_before;
    let queries = scanner.queries_sent() - queries_before;

    assert!(frame.stats.seeded > 400 && queries > frame.stats.seeded);
    let per_query = allocations as f64 / queries as f64;
    println!("{allocations} allocations / {queries} queries = {per_query:.1} per query");
    assert!(
        per_query < MAX_ALLOCATIONS_PER_QUERY,
        "{per_query:.1} allocations per query (budget {MAX_ALLOCATIONS_PER_QUERY})"
    );
}
