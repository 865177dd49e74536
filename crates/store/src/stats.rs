//! Per-sweep counters: how much one day's measurement cost and how
//! complete it came out. Carried by every
//! [`SweepFrame`](crate::SweepFrame), and byte-identical for any worker
//! count.

/// Whether a sweep's dataset is complete or was salvaged from a day of
/// heavy measurement failure (an infrastructure outage, Figure-1 style).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
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
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
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

impl SweepStats {
    /// Add every counter of `other` into `self` (commutative and
    /// associative, so per-worker and per-day totals fold in any order).
    /// `completeness` is left alone: it is a verdict on one sweep, set by
    /// its salvage pass, not a count.
    pub fn merge(&mut self, other: &SweepStats) {
        self.seeded += other.seeded;
        self.ns_failures += other.ns_failures;
        self.apex_failures += other.apex_failures;
        self.queries += other.queries;
        self.virtual_elapsed_us += other.virtual_elapsed_us;
        self.timeouts += other.timeouts;
        self.servfails += other.servfails;
        self.lame += other.lame;
        self.retries_spent += other.retries_spent;
        self.ns_cache_hits += other.ns_cache_hits;
        self.ns_cache_misses += other.ns_cache_misses;
        self.shards_retried += other.shards_retried;
        self.shards_lost += other.shards_lost;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Stats whose counters are all distinct multiples of `k`.
    fn sample(k: u64, completeness: Completeness) -> SweepStats {
        SweepStats {
            seeded: k,
            ns_failures: 2 * k,
            apex_failures: 3 * k,
            queries: 4 * k,
            virtual_elapsed_us: 5 * k,
            timeouts: 6 * k,
            servfails: 7 * k,
            lame: 8 * k,
            retries_spent: 9 * k,
            ns_cache_hits: 10 * k,
            ns_cache_misses: 11 * k,
            shards_retried: 12 * k,
            shards_lost: 13 * k,
            completeness,
        }
    }

    #[test]
    fn merge_adds_every_counter_in_any_order_and_keeps_completeness() {
        let (a, b, c) = (
            sample(1, Completeness::Partial),
            sample(10, Completeness::Full),
            sample(100, Completeness::Partial),
        );
        let mut abc = a;
        abc.merge(&b);
        abc.merge(&c);
        // Every counter is the sum: sample(111) differs from it only in
        // the completeness verdict, which stays `a`'s.
        assert_eq!(abc, sample(111, Completeness::Partial));

        let mut cba = sample(100, Completeness::Full);
        cba.merge(&b);
        cba.merge(&a);
        assert_eq!(cba, sample(111, Completeness::Full));
        assert_eq!(
            SweepStats {
                completeness: Completeness::Partial,
                ..cba
            },
            abc,
            "merge order must not matter"
        );
    }
}
