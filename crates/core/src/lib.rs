//! The paper's analysis pipeline — the primary contribution of
//! *"Where .ru? Assessing the Impact of Conflict on Russian Domain
//! Infrastructure"* (IMC 2022), reimplemented as a library.
//!
//! Input is measurement data only (daily sweeps from `ruwhere-scan`, CT
//! datasets, IP-scan snapshots, sanctions lists); no analysis reads
//! simulation ground truth. Each module reproduces one family of results:
//!
//! | module | paper artifact |
//! |---|---|
//! | [`composition`] | Figures 1 and 5, §3.1 hosting-composition text |
//! | [`tld_dependency`] | Figures 2 and 3 |
//! | [`asn_share`] | Figure 4 |
//! | [`movement`] | Figures 6 and 7, §3.4 Cloudflare/Google text |
//! | [`ca_issuance`] | Figure 8, Table 1, §4 issuance-volume text |
//! | [`revocation`] | Table 2 |
//! | [`russian_ca`] | §4.3 |
//! | [`report`] | ASCII tables and TSV series for all of the above |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asn_share;
pub mod ca_issuance;
pub mod composition;
pub mod dataset_stats;
pub mod engine;
pub mod experiments;
pub mod figures;
pub mod movement;
pub mod plots;
pub mod report;
pub mod revocation;
pub mod russian_ca;
pub mod tld_dependency;
pub mod transitions;

pub use asn_share::AsnShareSeries;
pub use ca_issuance::{CaIssuanceAnalysis, IssuanceTimeline, PeriodTable};
pub use composition::{Composition, CompositionCounts, CompositionSeries, InfraKind};
pub use dataset_stats::DatasetStats;
pub use engine::{AnalysisEngine, FrameCodes, FrameObserver};
pub use experiments::{run_study, try_run_study, StudyConfig, StudyError, StudyResults};
pub use movement::{Movement, MovementReport};
pub use plots::{gnuplot_script, PlotSpec};
pub use report::{format_count, format_pct, Series, Table};
pub use revocation::{RevocationAnalysis, RevocationRow};
pub use russian_ca::RussianCaAnalysis;
pub use tld_dependency::{TldDependencySeries, TldUsageSeries};
pub use transitions::TransitionFlows;
