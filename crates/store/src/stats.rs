//! Per-sweep counters: how much one day's measurement cost and how
//! complete it came out. Carried by every
//! [`SweepFrame`](crate::SweepFrame), and byte-identical for any worker
//! count.

use serde::{Deserialize, Serialize};

/// Whether a sweep's dataset is complete or was salvaged from a day of
/// heavy measurement failure (an infrastructure outage, Figure-1 style).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum Completeness {
    /// The sweep resolved normally; failures are kept as unknown-bucket
    /// records.
    #[default]
    Full,
    /// The day's failure rate exceeded the salvage threshold: unresolved
    /// records were dropped, leaving only what actually measured. The raw
    /// daily total visibly dips — exactly how the real dataset records an
    /// outage day.
    Partial,
}

/// Aggregate counters for one sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SweepStats {
    /// Domains seeded from the zone snapshots.
    pub seeded: u64,
    /// Domains with a fully failed NS resolution.
    pub ns_failures: u64,
    /// Domains with a failed apex resolution.
    pub apex_failures: u64,
    /// Total DNS queries emitted.
    pub queries: u64,
    /// Virtual (simulated) time the sweep took, in microseconds, summed
    /// over every measurement lane — the latency cost of active
    /// measurement at this scale (cf. the OpenINTEL infrastructure
    /// paper's throughput engineering).
    pub virtual_elapsed_us: u64,
    /// Queries that timed out (per-cause failure accounting).
    pub timeouts: u64,
    /// Queries answered SERVFAIL.
    pub servfails: u64,
    /// Queries answered lamely.
    pub lame: u64,
    /// Failed exchanges charged to resolver retry budgets — the wasted
    /// query cost of server misbehaviour during this sweep.
    pub retries_spent: u64,
    /// NS-target address lookups served from the shared sweep cache.
    pub ns_cache_hits: u64,
    /// NS-target address lookups that had to resolve (one per distinct
    /// name-server host per sweep).
    pub ns_cache_misses: u64,
    /// Shard workers that panicked and were successfully re-run by the
    /// supervisor (the sweep recovered; output may differ from a clean
    /// run only in cache-cost accounting).
    pub shards_retried: u64,
    /// Shard workers lost for good — panicked twice. Their domains
    /// degrade into per-cause failure records (`worker_lost`) and flow
    /// into the partial-sweep salvage path.
    pub shards_lost: u64,
    /// Whether the sweep is full or a salvaged partial.
    pub completeness: Completeness,
}
