//! Memory of a resume's checkpoint reader.
//!
//! A resume replays a study's day segments in order, rebuilding each
//! day's frame from the day before. Streamed through
//! [`CheckpointDir::replay`], a caller that drops each day before pulling
//! the next holds two decoded days at a time (its own and the walk's
//! base), however long the study ran; [`CheckpointDir::load`] holds every
//! day at once. A counting global allocator tracks live and peak heap
//! bytes while two 40-day synthetic chains are walked both ways: one
//! whose records never change, and one where each day changes, inserts
//! and removes a few percent of its rows. This file holds a single test
//! so nothing else allocates in its binary while it measures.

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

/// Append record `r` of the synthetic chain, its apex address moved by
/// `apex_shift`.
fn push_record(b: &mut FrameBuilder, r: u32, apex_shift: u32) {
    b.begin_record(Sym(r));
    for k in 0..2 {
        b.push_ns_name(Sym(RECORDS + (r + k) % 97));
        b.push_ns_addr(
            Ipv4Addr::from(0x0A00_0000 + r * 2 + k),
            CountrySym(0),
            Some(Asn(64_500 + k)),
        );
    }
    b.push_apex_addr(
        Ipv4Addr::from(0x1400_0000 + r + (apex_shift << 16)),
        CountrySym(0),
        None,
    );
    b.end_record();
}

/// Day `index` of the steady synthetic chain: `RECORDS` domains with two
/// NS names, two NS addresses and one apex address each, and `NEW_NAMES`
/// interner names.
fn day(index: u32) -> DayCheckpoint {
    let mut b = FrameBuilder::new(date_of(index));
    for r in 0..RECORDS {
        push_record(&mut b, r, 0);
    }
    with_frame(index, b)
}

/// Day `index` of the churning chain: the steady chain's records, except
/// that each day 2 % of them are missing (and return the next day), 2.5 %
/// move their apex address, and 10 brand-new domains appear for one day
/// only.
fn churn_day(index: u32) -> DayCheckpoint {
    let mut b = FrameBuilder::new(date_of(index));
    for r in 0..RECORDS {
        if !(r + index).is_multiple_of(50) {
            push_record(&mut b, r, (r * 7 + index) / 40);
        }
        if r % 200 == 100 {
            push_record(&mut b, 2 * RECORDS + index * 10 + r / 200, 0);
        }
    }
    with_frame(index, b)
}

fn date_of(index: u32) -> Date {
    Date::from_ymd(2022, 1, 1).add_days(index as i32)
}

/// Day `index`'s checkpoint around the frame `b` holds, with `NEW_NAMES`
/// interner names.
fn with_frame(index: u32, b: FrameBuilder) -> DayCheckpoint {
    let date = date_of(index);
    let base = TableSizes {
        names: index * NEW_NAMES,
        ..TableSizes::default()
    };
    let mut frame = b.finish(SweepStats::default(), SweepMetrics::new());
    let records = frame.len() as u64;
    frame.stats = SweepStats {
        seeded: records,
        queries: 3 * records,
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
        frame,
    }
}

/// Write the chain `make` draws, then walk it streamed and collected.
/// Returns the largest live heap of one decoded day, the streamed walk's
/// peak and what the collected walk holds.
fn measure(tag: &str, make: fn(u32) -> DayCheckpoint) -> (i64, i64, i64) {
    let dir = std::env::temp_dir().join(format!(
        "ruwhere-replay-memory-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let store = CheckpointDir::open(&dir).expect("open");
    for i in 0..DAYS {
        store.write_day(&make(i), 7).expect("write");
    }

    // The live heap of one decoded day, largest over the chain. Each day
    // is rebuilt over the day before.
    let mut one_day = 0;
    let mut prev: Option<DayCheckpoint> = None;
    for i in 0..DAYS {
        let bytes = std::fs::read(store.segment_path(i)).expect("read");
        let before = live();
        let (decoded, _) = decode_segment(&bytes, prev.as_ref().map(|d| &d.frame)).expect("decode");
        one_day = one_day.max(live() - before);
        assert_eq!(decoded, make(i), "{tag}: day {i} rebuilt");
        prev = Some(decoded);
    }
    drop(prev);

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
    assert_eq!(walked, DAYS);

    // Collected: every day at once.
    let before = live();
    let outcome = store.load(7).expect("load");
    let load_held = live() - before;
    assert_eq!(outcome.days.len(), DAYS as usize);
    drop(outcome);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    (one_day, replay_peak, load_held)
}

#[test]
fn replay_holds_two_days_at_a_time() {
    for (tag, make) in [
        ("steady", day as fn(u32) -> DayCheckpoint),
        ("churn", churn_day),
    ] {
        let (one_day, replay_peak, load_held) = measure(tag, make);
        println!(
            "{tag}: one decoded day {one_day} B; replay peak {replay_peak} B ({:.2} days); \
             load holds {load_held} B ({:.1} days) for {DAYS} days",
            replay_peak as f64 / one_day as f64,
            load_held as f64 / one_day as f64,
        );
        assert!(
            replay_peak < 2 * one_day,
            "{tag}: replay peaked at {replay_peak} live bytes, over two decoded days ({one_day} each)"
        );
        assert!(
            load_held > i64::from(DAYS - 1) * one_day,
            "{tag}: load held {load_held} live bytes, less than the {DAYS}-day chain"
        );
    }
}
