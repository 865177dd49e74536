//! The shared, sharded, date-scoped read-through cache for NS-target A
//! lookups.
//!
//! Thousands of domains park on the same hoster name servers; without a
//! shared cache every worker re-resolves `ns1.reg.ru` for every customer
//! domain in its shard. This cache computes each NS-target address set
//! **exactly once per sweep date** — the first worker to miss holds the
//! entry lock while it resolves, later workers block on that entry (not on
//! the whole cache: the map is sharded by name hash) and then read the
//! finished value.
//!
//! Two properties keep the parallel sweep byte-identical to the serial
//! one:
//!
//! 1. *Values are sharding-independent.* An entry is computed on its own
//!    measurement lane keyed by `(date, ns-name)`, from a warmup-primed
//!    resolver fork — a pure function of the sweep-start snapshot, no
//!    matter which worker computes it or when.
//! 2. *Costs are charged exactly once.* The computing worker (and only
//!    it) accounts the entry's query/latency cost, so summed sweep
//!    counters do not depend on the worker count.
//!
//! The cache is keyed by sweep date and cleared on date change: a daily
//! measurement pipeline must re-observe everything each day (OpenINTEL
//! semantics), so yesterday's addresses must never satisfy today's sweep.

use ruwhere_netsim::{NetObs, NetStats};
use ruwhere_obs::Counter;
use ruwhere_types::sync::lock;
use ruwhere_types::{Date, DomainName};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::net::Ipv4Addr;
use std::sync::{Arc, Mutex};

/// Number of independently locked map shards.
const SHARDS: usize = 16;

/// The measurement cost of computing one cache entry, charged to the
/// worker that computed it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LookupCost {
    /// Queries the entry's resolution spent.
    pub queries: u64,
    /// Virtual time the entry's lane consumed, in microseconds.
    pub virtual_us: u64,
    /// Per-cause failure counters (timeouts).
    pub timeouts: u64,
    /// SERVFAIL answers.
    pub servfails: u64,
    /// Lame answers.
    pub lame: u64,
    /// Failed exchanges charged to retry budgets.
    pub retries_spent: u64,
    /// Transport-level counters of the entry's lane.
    pub net: NetStats,
    /// The lane's end instant in microseconds (for sweep wall-clock).
    pub lane_end_us: u64,
    /// Transport observability of the entry's lane (empty when metric
    /// collection is off). Charged into the sweep's
    /// [`SweepMetrics`](crate::SweepMetrics) exactly once, alongside the
    /// scalar cost.
    pub net_obs: NetObs,
    /// Resolver observability of the entry's fork (empty when metric
    /// collection is off).
    pub resolver_obs: ruwhere_authdns::ResolverObs,
}

/// One computed entry: the resolved addresses (sorted, deduplicated).
#[derive(Debug, Clone)]
struct CacheValue {
    ips: Vec<Ipv4Addr>,
}

/// An entry cell: the per-name lock that serialises compute-once.
#[derive(Default)]
struct Entry {
    slot: Mutex<Option<CacheValue>>,
}

/// Outcome of a cache lookup.
pub struct CacheHit {
    /// The resolved NS-target addresses.
    pub ips: Vec<Ipv4Addr>,
    /// `Some(cost)` iff this call computed the entry (a miss); the caller
    /// must account the cost into its sweep counters exactly then.
    pub computed: Option<LookupCost>,
}

/// The shared NS-target A cache. One per scanner; lives across sweeps but
/// never serves across a date boundary.
pub struct NsCache {
    date: Option<Date>,
    shards: Vec<Mutex<HashMap<DomainName, Arc<Entry>>>>,
    /// Lock-free sweep-scoped hit counter, bumped by whichever worker
    /// thread hits — a live progress diagnostic that needs no lane or
    /// tally plumbing. The authoritative (worker-count-independent)
    /// counts remain the per-worker tallies merged into
    /// [`SweepStats`](crate::SweepStats).
    hits: Counter,
    /// Lock-free sweep-scoped miss (= compute) counter.
    misses: Counter,
}

impl NsCache {
    /// Empty cache, bound to no date yet.
    pub fn new() -> Self {
        NsCache {
            date: None,
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            hits: Counter::new(),
            misses: Counter::new(),
        }
    }

    /// Bind the cache to a sweep date, clearing every entry if the date
    /// differs from the previous sweep's, and zeroing the hit/miss
    /// counters (they are per-sweep diagnostics). Must be called before
    /// workers start; the borrow rules enforce it (`&mut self` here,
    /// `&self` from workers).
    pub fn begin_sweep(&mut self, date: Date) {
        if self.date != Some(date) {
            for shard in &self.shards {
                lock(shard).clear();
            }
            self.date = Some(date);
        }
        self.hits.reset();
        self.misses.reset();
    }

    /// Lookups served from cache since [`begin_sweep`](Self::begin_sweep).
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Lookups that computed an entry since
    /// [`begin_sweep`](Self::begin_sweep).
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// The date the cache currently serves, if any.
    pub fn date(&self) -> Option<Date> {
        self.date
    }

    /// Number of cached entries (computed or in flight).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock(s).len()).sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Peek at a finished entry without computing (tests / diagnostics).
    pub fn peek(&self, name: &DomainName) -> Option<Vec<Ipv4Addr>> {
        let entry = lock(&self.shards[Self::shard_of(name)])
            .get(name)
            .cloned()?;
        let slot = lock(&entry.slot);
        slot.as_ref().map(|v| v.ips.clone())
    }

    /// Read-through lookup: return the cached addresses for `name`, or
    /// compute them with `compute` (exactly once across all workers; other
    /// callers for the same name block until the value is ready).
    pub fn get_or_compute<F>(&self, name: &DomainName, compute: F) -> CacheHit
    where
        F: FnOnce() -> (Vec<Ipv4Addr>, LookupCost),
    {
        let entry = {
            let mut shard = lock(&self.shards[Self::shard_of(name)]);
            Arc::clone(shard.entry(name.clone()).or_default())
        };
        // Shard lock released: only this name's entry is held during the
        // (potentially long) resolution below.
        let mut slot = lock(&entry.slot);
        if let Some(v) = slot.as_ref() {
            self.hits.incr();
            return CacheHit {
                ips: v.ips.clone(),
                computed: None,
            };
        }
        let (ips, cost) = compute();
        *slot = Some(CacheValue { ips: ips.clone() });
        self.misses.incr();
        CacheHit {
            ips,
            computed: Some(cost),
        }
    }

    fn shard_of(name: &DomainName) -> usize {
        let mut h = DefaultHasher::new();
        name.hash(&mut h);
        (h.finish() as usize) % SHARDS
    }
}

impl Default for NsCache {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    fn ip(last: u8) -> Ipv4Addr {
        Ipv4Addr::new(192, 0, 2, last)
    }

    #[test]
    fn computes_exactly_once() {
        let mut cache = NsCache::new();
        cache.begin_sweep(Date::from_ymd(2022, 3, 1));
        let first = cache.get_or_compute(&name("ns1.hoster.ru"), || {
            (
                vec![ip(1)],
                LookupCost {
                    queries: 3,
                    ..LookupCost::default()
                },
            )
        });
        assert_eq!(first.ips, vec![ip(1)]);
        assert!(first.computed.is_some(), "first lookup must compute");
        let second =
            cache.get_or_compute(&name("ns1.hoster.ru"), || panic!("cached entry recomputed"));
        assert_eq!(second.ips, vec![ip(1)]);
        assert!(second.computed.is_none(), "second lookup must hit");
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn counters_reset_per_sweep() {
        let mut cache = NsCache::new();
        cache.begin_sweep(Date::from_ymd(2022, 3, 1));
        cache.get_or_compute(&name("ns1.hoster.ru"), || {
            (vec![ip(1)], LookupCost::default())
        });
        cache.get_or_compute(&name("ns1.hoster.ru"), || panic!("cached"));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        cache.begin_sweep(Date::from_ymd(2022, 3, 2));
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
    }

    #[test]
    fn never_serves_across_a_day_boundary() {
        let mut cache = NsCache::new();
        cache.begin_sweep(Date::from_ymd(2022, 3, 1));
        cache.get_or_compute(&name("ns1.hoster.ru"), || {
            (vec![ip(1)], LookupCost::default())
        });
        assert_eq!(cache.peek(&name("ns1.hoster.ru")), Some(vec![ip(1)]));
        assert_eq!(cache.len(), 1);

        // The next measurement day starts: everything is re-observed.
        cache.begin_sweep(Date::from_ymd(2022, 3, 2));
        assert!(cache.is_empty(), "day boundary must clear the cache");
        assert_eq!(cache.peek(&name("ns1.hoster.ru")), None);
        let relookup = cache.get_or_compute(&name("ns1.hoster.ru"), || {
            (vec![ip(2)], LookupCost::default())
        });
        assert!(relookup.computed.is_some(), "new day must recompute");
        assert_eq!(relookup.ips, vec![ip(2)]);
    }

    #[test]
    fn same_day_begin_is_idempotent() {
        let mut cache = NsCache::new();
        let d = Date::from_ymd(2022, 3, 1);
        cache.begin_sweep(d);
        cache.get_or_compute(&name("ns1.hoster.ru"), || {
            (vec![ip(1)], LookupCost::default())
        });
        cache.begin_sweep(d);
        assert_eq!(cache.len(), 1, "same-date rebind keeps entries");
        assert_eq!(cache.date(), Some(d));
    }

    #[test]
    fn concurrent_lookups_converge() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let mut cache = NsCache::new();
        cache.begin_sweep(Date::from_ymd(2022, 3, 1));
        let cache = &cache;
        let computes = AtomicU64::new(0);
        let names: Vec<DomainName> = (0..40)
            .map(|i| name(&format!("ns{}.hoster.ru", i % 5)))
            .collect();
        std::thread::scope(|s| {
            for chunk in names.chunks(10) {
                let computes = &computes;
                s.spawn(move || {
                    for n in chunk {
                        let hit = cache.get_or_compute(n, || {
                            computes.fetch_add(1, Ordering::SeqCst);
                            (vec![ip(9)], LookupCost::default())
                        });
                        assert_eq!(hit.ips, vec![ip(9)]);
                    }
                });
            }
        });
        assert_eq!(
            computes.load(Ordering::SeqCst),
            5,
            "one compute per unique name"
        );
        assert_eq!(cache.len(), 5);
    }
}
