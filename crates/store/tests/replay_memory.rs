//! Memory of a resume's checkpoint reader.
//!
//! A resume replays a study's day segments in order. Streamed through
//! [`CheckpointDir::replay`], a caller that drops each day before pulling
//! the next holds one decoded day at a time, however long the study ran;
//! [`CheckpointDir::load`] holds every day at once. A counting global
//! allocator tracks live and peak heap bytes while a 40-day synthetic
//! chain is walked both ways. This file holds a single test so nothing
//! else allocates in its binary while it measures.

use ruwhere_store::checkpoint::{decode_segment, DayCheckpoint, InternerDelta, TableSizes};
use ruwhere_store::{CheckpointDir, CountrySym, FrameBuilder, SweepMetrics, SweepStats, Sym};
use ruwhere_types::{Asn, Date, DomainName};
use std::alloc::{GlobalAlloc, Layout, System};
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicI64, Ordering};

/// Live heap bytes: requested sizes allocated minus sizes freed.
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);
/// The highest `LIVE_BYTES` reached since the last [`reset_peak`].
static PEAK_BYTES: AtomicI64 = AtomicI64::new(0);

/// Tracks live and peak bytes, then forwards every call unchanged to
/// [`System`].
struct Counting;

fn grow(by: i64) {
    let live = LIVE_BYTES.fetch_add(by, Ordering::Relaxed) + by;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: each method forwards its arguments to `System` untouched, so the
// `GlobalAlloc` contract holds exactly as it does for `System`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn live() -> i64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// Start a new peak window at the current live size.
fn reset_peak() {
    PEAK_BYTES.store(live(), Ordering::Relaxed);
}

const DAYS: u32 = 40;
/// Domains swept per day.
const RECORDS: u32 = 2_000;
/// New names each day appends to the interner.
const NEW_NAMES: u32 = 200;

/// Day `index` of the synthetic chain: `RECORDS` domains with two NS
/// names, two NS addresses and one apex address each, and `NEW_NAMES`
/// interner names.
fn day(index: u32) -> DayCheckpoint {
    let date = Date::from_ymd(2022, 1, 1).add_days(index as i32);
    let base = TableSizes {
        names: index * NEW_NAMES,
        ..TableSizes::default()
    };
    let mut b = FrameBuilder::new(date);
    for r in 0..RECORDS {
        b.begin_record(Sym(r));
        for k in 0..2 {
            b.push_ns_name(Sym(RECORDS + (r + k) % 97));
            b.push_ns_addr(
                Ipv4Addr::from(0x0A00_0000 + r * 2 + k),
                CountrySym(0),
                Some(Asn(64_500 + k)),
            );
        }
        b.push_apex_addr(Ipv4Addr::from(0x1400_0000 + r), CountrySym(0), None);
        b.end_record();
    }
    let stats = SweepStats {
        seeded: RECORDS as u64,
        queries: 3 * RECORDS as u64,
        ..SweepStats::default()
    };
    DayCheckpoint {
        day_index: index,
        date,
        net_clock_us: 1_000_000 * (index as u64 + 1),
        interner: InternerDelta {
            base,
            post: TableSizes {
                names: base.names + NEW_NAMES,
                ..base
            },
            names: (0..NEW_NAMES)
                .map(|n| {
                    format!("name-{n:04}-of-day-{index:03}.ru")
                        .parse::<DomainName>()
                        .expect("synthetic name")
                })
                .collect(),
            countries: Vec::new(),
        },
        frame: b.finish(stats, SweepMetrics::new()),
    }
}

#[test]
fn replay_holds_one_day_at_a_time() {
    let dir = std::env::temp_dir().join(format!("ruwhere-replay-memory-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = CheckpointDir::open(&dir).expect("open");
    for i in 0..DAYS {
        store.write_day(&day(i), 7).expect("write");
    }

    // The live heap of one decoded day, largest over the chain.
    let mut one_day = 0;
    for i in 0..DAYS {
        let bytes = std::fs::read(store.segment_path(i)).expect("read");
        let before = live();
        let decoded = decode_segment(&bytes).expect("decode");
        one_day = one_day.max(live() - before);
        drop(decoded);
    }

    // Streamed: each day is dropped before the next is pulled.
    let before = live();
    reset_peak();
    let mut replay = store.replay(7).expect("replay");
    let mut walked = 0;
    for ck in replay.by_ref() {
        let ck = ck.expect("valid day");
        assert_eq!(ck.day_index, walked);
        walked += 1;
    }
    assert!(replay.quarantined().is_empty());
    drop(replay);
    let replay_peak = PEAK_BYTES.load(Ordering::Relaxed) - before;

    // Collected: every day at once.
    let before = live();
    let outcome = store.load(7).expect("load");
    let load_held = live() - before;
    assert_eq!(outcome.days.len(), DAYS as usize);
    drop(outcome);

    println!(
        "one decoded day {one_day} B; replay peak {replay_peak} B ({:.2} days); \
         load holds {load_held} B ({:.1} days) for {DAYS} days",
        replay_peak as f64 / one_day as f64,
        load_held as f64 / one_day as f64,
    );
    assert_eq!(walked, DAYS);
    assert!(
        replay_peak < 2 * one_day,
        "replay peaked at {replay_peak} live bytes, over two decoded days ({one_day} each)"
    );
    assert!(
        load_held > i64::from(DAYS - 1) * one_day,
        "load held {load_held} live bytes, less than the {DAYS}-day chain"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
