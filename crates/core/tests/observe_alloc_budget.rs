//! Allocation budget of the analysis walk.
//!
//! Every study day classifies one frame and folds it into the eight
//! series of `try_run_study`, so an allocation per record is paid once
//! per domain-day. A counting global allocator makes the count exact:
//! once the series' scratch has grown to a frame's size, folding a frame
//! ten times larger must not allocate more, and no fold may allocate more
//! than [`CEILING`] times: the per-day entries the series keep. This file
//! holds a single test, and the allocator counts only the test's own
//! thread while it measures.

use ruwhere_core::{
    AnalysisEngine, AsnShareSeries, CompositionSeries, DatasetStats, FrameObserver, InfraKind,
    TldDependencySeries, TldUsageSeries, TransitionFlows,
};
use ruwhere_registry::{SanctionSource, SanctionsList};
use ruwhere_store::{FrameFixture, Interner, SweepFrame, SweepStats};
use ruwhere_types::{Asn, Date};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering};

/// Heap allocations (`alloc`, `alloc_zeroed` and `realloc` calls) on the
/// test's own thread while it measures.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set on the test's thread: other threads of the test binary
    /// allocate at times of their own, which would move the count.
    static MEASURING: Cell<bool> = const { Cell::new(false) };
}

/// Count one allocation if this thread is measuring.
fn count() {
    if MEASURING.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

/// Counts, then forwards every call unchanged to [`System`].
struct Counting;

// SAFETY: each method forwards its arguments to `System` untouched, so the
// `GlobalAlloc` contract holds exactly as it does for `System`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations one walk of the eight series may make, at most: the
/// measured figure (the per-day entries of the series' date-keyed maps).
const CEILING: u64 = 5;

const TLDS: [&str; 5] = ["ru", "com", "net", "org", "pro"];

/// A frame of `n` domains whose name servers spread over five TLDs and
/// five networks and whose apexes spread over seven networks: every frame
/// with `n >= 35` holds the same TLDs and networks, in different numbers.
fn frame(interner: &Interner, date: Date, n: usize) -> SweepFrame {
    let mut f = FrameFixture::new(date, interner);
    for i in 0..n {
        let (ns, apex) = ((i % 5) as u8, (i % 7) as u8);
        let country = Some(if i % 3 == 0 { "US" } else { "RU" }.parse().unwrap());
        f.domain(&format!("d{i}.ru"))
            .ns(&format!("ns1.p{ns}.{}", TLDS[i % 5]))
            .ns(&format!("ns2.p{ns}.{}", TLDS[(i + 1) % 5]))
            .ns_addr(
                Ipv4Addr::new(10, 0, ns, 1),
                country,
                Some(Asn(100 + u32::from(ns))),
            )
            .apex_addr(
                Ipv4Addr::new(10, 1, apex, 1),
                country,
                Some(Asn(200 + u32::from(apex))),
            )
            .apex_addr(
                Ipv4Addr::new(10, 1, apex, 2),
                country,
                Some(Asn(200 + u32::from(apex))),
            );
    }
    f.finish(SweepStats::default())
}

#[test]
fn walk_allocations_do_not_grow_with_records() {
    MEASURING.with(|m| m.set(true));
    let (small, large) = (100, 1_000);
    let interner = Interner::new();
    let day = |d: u32| Date::from_ymd(2022, 3, d);
    let frames = [
        frame(&interner, day(1), large),
        frame(&interner, day(2), small),
        frame(&interner, day(3), small),
        frame(&interner, day(4), large),
    ];
    let mut sanctions = SanctionsList::new();
    sanctions.add("d3.ru".parse().unwrap(), SanctionSource::UsOfacSdn, day(1));

    let mut observers: (
        CompositionSeries,
        CompositionSeries,
        CompositionSeries,
        TldDependencySeries,
        TldUsageSeries,
        AsnShareSeries,
        DatasetStats,
        TransitionFlows,
    ) = (
        CompositionSeries::new(InfraKind::NameServers),
        CompositionSeries::new(InfraKind::Hosting),
        CompositionSeries::sanctioned(InfraKind::NameServers, sanctions),
        TldDependencySeries::new(),
        TldUsageSeries::new(),
        AsnShareSeries::new(),
        DatasetStats::new(),
        TransitionFlows::new(InfraKind::NameServers),
    );
    let mut engine = AnalysisEngine::new();
    let mut walk = |frame: &SweepFrame| {
        let (a, b, c, d, e, f, g, h) = &mut observers;
        let all: &mut [&mut dyn FrameObserver] = &mut [a, b, c, d, e, f, g, h];
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        engine.observe_frame(frame, &interner, all);
        ALLOCATIONS.load(Ordering::Relaxed) - before
    };
    // Warm-up: every series' scratch reaches the large frame's size.
    walk(&frames[0]);
    walk(&frames[1]);

    let small_allocs = walk(&frames[2]);
    let large_allocs = walk(&frames[3]);
    println!(
        "{small_allocs} allocations walking {small} records, \
         {large_allocs} walking {large}"
    );
    assert!(
        large_allocs <= small_allocs,
        "walking {large} records made {large_allocs} allocations, {small} made {small_allocs}"
    );
    assert!(
        small_allocs.max(large_allocs) <= CEILING,
        "a walk made {} allocations, over the ceiling of {CEILING}",
        small_allocs.max(large_allocs)
    );
}
