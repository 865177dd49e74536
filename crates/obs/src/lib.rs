//! # ruwhere-obs
//!
//! Deterministic observability primitives for the ruwhere pipeline.
//!
//! Everything in this crate is keyed to the *simulator's* virtual clock —
//! there is deliberately no `std::time` anywhere. Metrics record virtual
//! microseconds (`netsim`'s `SimTime` domain), never wall time, so a
//! metric value is a property of the simulated world and the seed, not of
//! the machine the sweep ran on.
//!
//! The second invariant is *associativity*: every aggregate in this crate
//! ([`Counter`], [`Histogram`], [`Recorder`]) merges by element-wise `u64`
//! addition, which is commutative and associative. A sweep sharded across
//! N workers therefore produces byte-identical merged metrics for any N —
//! the same contract the sweep engine already holds for its measurement
//! output (`SweepFrame`), extended to its telemetry.
//!
//! Layers:
//!
//! * [`Counter`] — a lock-free monotone counter for genuinely shared
//!   state (e.g. the cross-worker NS cache); plain `u64` fields are
//!   preferred wherever a `&mut` path exists.
//! * [`Histogram`] — a log-linear (HDR-style) histogram of `u64` values
//!   with deterministic bucket boundaries and ≤ 1/16 relative error.
//! * [`Recorder`] — a string-keyed bag of counters and histograms with a
//!   span helper, used by subsystems that want ad-hoc named metrics.
//! * [`json`] — deterministic JSON rendering helpers (stable key order,
//!   no floats in values), so exported metric files are byte-comparable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod counter;
mod histogram;
pub mod json;
mod recorder;

pub use counter::Counter;
pub use histogram::Histogram;
pub use recorder::{Recorder, Span};
