//! Measurement systems: the data-acquisition half of the paper.
//!
//! * [`openintel`] — the OpenINTEL-style pipeline (paper §2): seed a daily
//!   sweep from the `.ru`/`.рф` zone snapshots, actively resolve each
//!   domain's NS set, apex A records and name-server addresses through the
//!   simulated Internet, and annotate every address with contemporaneous
//!   geolocation (IP2Location stand-in) and origin AS.
//! * [`censys`] — the Censys-style pipeline (§4): index CT logs for
//!   certificates matching `.ru`/`.рф` names (CN or SAN, footnote 6), and
//!   run IP-wide TLS banner scans that capture the chains servers actually
//!   present — the only way to see the unlogged Russian Trusted Root CA.
//!
//! Both scanners observe the world exclusively through the network and
//! public datasets; neither reads simulation ground truth.
//!
//! Both pipelines share one run shape: `&mut self` plus the world in, a
//! dated columnar snapshot out ([`OpenIntelScanner::sweep_frame`],
//! [`IpScanner::scan`]). The DNS sweep and the WHOIS client share one
//! failure vocabulary ([`ScanError`], variants aligned with the per-cause
//! counters of [`SweepStats`]). The daily sweep additionally embeds a
//! deterministic observability section ([`SweepMetrics`]) that is
//! byte-identical for any worker count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod censys;
pub mod error;
pub mod nscache;
pub mod openintel;
pub mod shard;
pub mod whois;

pub use censys::{CertDataset, CertRecord, IpScanSnapshot, IpScanner, MatchRule, ScanEndpoint};
pub use error::ScanError;
pub use nscache::NsCache;
pub use openintel::{
    available_workers, default_checkpoint_dir, Completeness, OpenIntelScanner, SweepOptions,
    SweepStats, CHECKPOINT_DIR_ENV, WORKERS_ENV,
};
pub use ruwhere_store::{Interner, RecordView, SweepFrame, SweepMetrics};
pub use shard::ShardPlan;
pub use whois::{ArrivalClassification, WhoisClient};
