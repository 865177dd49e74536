//! # ruwhere
//!
//! A full reproduction of *"Where .ru? Assessing the Impact of Conflict on
//! Russian Domain Infrastructure"* (Jonker et al., IMC 2022) as a Rust
//! workspace: the paper's analysis pipeline plus every acquisition system
//! it depends on, rebuilt over a deterministic simulated Internet.
//!
//! This umbrella crate re-exports the workspace so downstream users can
//! depend on one crate:
//!
//! ```
//! use ruwhere::prelude::*;
//!
//! // Build a tiny world, sweep it once, classify NS composition.
//! let mut world = World::new(WorldConfig::tiny());
//! let mut scanner = OpenIntelScanner::new(&world);
//! let sweep = scanner.sweep_frame(&mut world);
//! let mut fig1 = CompositionSeries::new(InfraKind::NameServers);
//! fig1.observe(&sweep, scanner.interner());
//! let counts = fig1.at(world.today()).unwrap();
//! assert!(counts.total() > 0);
//! ```
//!
//! See `DESIGN.md` for the system inventory, `EXPERIMENTS.md` for the
//! paper-vs-measured record, and `examples/` for runnable entry points.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ruwhere_authdns as authdns;
pub use ruwhere_core as analysis;
pub use ruwhere_ct as ct;
pub use ruwhere_dns as dns;
pub use ruwhere_geo as geo;
pub use ruwhere_netsim as netsim;
pub use ruwhere_obs as obs;
pub use ruwhere_registry as registry;
pub use ruwhere_scan as scan;
pub use ruwhere_store as store;
pub use ruwhere_types as types;
pub use ruwhere_world as world;

/// The most commonly used items, in one import.
pub mod prelude {
    pub use ruwhere_core::{
        figures, run_study, AnalysisEngine, AsnShareSeries, CaIssuanceAnalysis, Composition,
        CompositionSeries, FrameObserver, InfraKind, MovementReport, RevocationAnalysis,
        RussianCaAnalysis, Series, StudyConfig, StudyResults, Table, TldDependencySeries,
        TldUsageSeries,
    };
    pub use ruwhere_scan::{
        CertDataset, IpScanner, MatchRule, OpenIntelScanner, ScanError, SweepMetrics, SweepOptions,
    };
    pub use ruwhere_store::{Interner, SweepFrame};
    pub use ruwhere_types::{
        Asn, Country, Date, DomainName, Period, SeedTree, CONFLICT_START, SANCTIONS_EFFECT,
        STUDY_END, STUDY_START,
    };
    pub use ruwhere_world::{ConflictEvent, FaultTarget, InfraFault, World, WorldConfig};
}
