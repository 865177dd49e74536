//! The measurement data plane shared by the sweep engine and every
//! analysis.
//!
//! A five-year daily study is a fold over one record stream, but folding
//! is only cheap if the stream is normalized once. This crate owns that
//! normalization:
//!
//! - [`Interner`] assigns stable `u32` symbols ([`Sym`], [`TldSym`],
//!   [`CountrySym`]) to domain names, name-server host names, TLDs and
//!   countries. Assignment order is deterministic (zone-snapshot order for
//!   seeds, merged-record order for everything discovered during a sweep),
//!   so symbol tables are **byte-identical for any worker count** — the
//!   same contract the sweep engine's counters obey.
//! - [`SweepFrame`] is the columnar (struct-of-arrays) form of one daily
//!   sweep: symbol columns plus offset-delimited address ranges, built
//!   natively by the sweep engine and walked once per sweep by the
//!   analysis engine. [`FrameFixture`] spells a frame out by hand for
//!   tests and examples.
//! - [`SweepStats`] and [`SweepMetrics`] are the sweep's counters and
//!   observability section, carried by every frame.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod frame;
pub mod metrics;
pub mod stats;
pub mod sym;

pub use checkpoint::{
    decode_segment, encode_segment, CheckpointDir, CheckpointError, DayCheckpoint, InternerDelta,
    LoadOutcome, QuarantinedSegment, Replay, TableSizes,
};
pub use frame::{AddrColumns, AddrsView, FrameBuilder, FrameFixture, RecordView, SweepFrame};
pub use metrics::{fail_key, keys, SweepMetrics};
pub use stats::{Completeness, SweepStats};
pub use sym::{CountrySym, Interner, InternerSnap, InternerWriter, Sym, SymSet, TldSym};
