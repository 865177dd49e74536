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
//!    measurement lane keyed by `(date, ns-name)`, from a freshly reset
//!    overlay over the warmup-primed resolver base — a pure function of
//!    the sweep-start snapshot, no matter which worker computes it or
//!    when.
//! 2. *Costs are charged exactly once.* The computing worker (and only
//!    it) accounts the entry's query/latency cost, so summed sweep
//!    counters do not depend on the worker count.
//!
//! The cache is keyed by sweep date and cleared on date change: a daily
//! measurement pipeline must re-observe everything each day (OpenINTEL
//! semantics), so yesterday's addresses must never satisfy today's sweep.

use ruwhere_dns::{Name, NameSlice};
use ruwhere_netsim::{NetObs, NetStats};
use ruwhere_types::hash::FastState;
use ruwhere_types::sync::lock;
use ruwhere_types::{Date, DomainName, FastMap};
use std::hash::BuildHasher;
use std::net::Ipv4Addr;
use std::sync::{Arc, Mutex};

/// Number of independently locked map shards.
const SHARDS: usize = 16;

/// Where a name's shard index sits in its hash: above the low bits a
/// shard's table takes its bucket from, below the top seven it keeps as
/// tags, so names that share a shard still spread over its buckets.
const SHARD_SHIFT: u32 = 52;

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
    /// Transport observability of the entry's lane. Charged into the
    /// sweep's [`SweepMetrics`](crate::SweepMetrics) exactly once,
    /// alongside the scalar cost.
    pub net_obs: NetObs,
    /// Resolver observability of the entry's resolution.
    pub resolver_obs: ruwhere_authdns::ResolverObs,
}

/// One computed entry: the host's spelling and its resolved addresses.
#[derive(Debug, Clone)]
struct CacheValue {
    host: DomainName,
    ips: Arc<[Ipv4Addr]>,
}

/// An entry cell: the per-name lock that serialises compute-once.
#[derive(Default)]
struct Entry {
    slot: Mutex<Option<CacheValue>>,
}

/// Outcome of a cache lookup.
pub struct CacheHit {
    /// The NS host's name as a [`DomainName`], converted once per sweep.
    pub host: DomainName,
    /// The resolved NS-target addresses, shared with the cache: a hit
    /// copies nothing.
    pub ips: Arc<[Ipv4Addr]>,
    /// `Some(cost)` iff this call computed the entry (a miss); the caller
    /// must account the cost into its sweep counters exactly then.
    pub computed: Option<LookupCost>,
}

/// The shared NS-target A cache. One per scanner; lives across sweeps but
/// never serves across a date boundary.
pub struct NsCache {
    date: Option<Date>,
    /// Keyed by the NS host's wire name, so a lookup probes with the name
    /// a referral or an answer record carries, borrowed.
    shards: Vec<Mutex<FastMap<Name, Arc<Entry>>>>,
}

impl NsCache {
    /// Empty cache, bound to no date yet.
    pub fn new() -> Self {
        NsCache {
            date: None,
            shards: (0..SHARDS).map(|_| Mutex::default()).collect(),
        }
    }

    /// Bind the cache to a sweep date, clearing every entry if the date
    /// differs from the previous sweep's. Must be called before workers
    /// start; the borrow rules enforce it (`&mut self` here,
    /// `&self` from workers).
    pub fn begin_sweep(&mut self, date: Date) {
        if self.date != Some(date) {
            for shard in &self.shards {
                lock(shard).clear();
            }
            self.date = Some(date);
        }
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
    pub fn peek(&self, name: &NameSlice) -> Option<Arc<[Ipv4Addr]>> {
        let entry = lock(&self.shards[Self::shard_of(name)])
            .get(name)
            .cloned()?;
        let slot = lock(&entry.slot);
        slot.as_ref().map(|v| Arc::clone(&v.ips))
    }

    /// Read-through lookup: return the cached addresses for `name`, or
    /// compute them with `compute`, which is handed the name as a
    /// [`DomainName`] (exactly once across all workers; other callers for
    /// the same name block until the value is ready).
    ///
    /// A name with no hostname spelling ([`NameSlice::to_domain_name`]
    /// fails) is not cached: the lookup returns `None`, which is neither
    /// a hit nor a miss.
    pub fn get_or_compute<F>(&self, name: &NameSlice, compute: F) -> Option<CacheHit>
    where
        F: FnOnce(&DomainName) -> (Vec<Ipv4Addr>, LookupCost),
    {
        let mut host = None;
        let entry = {
            let mut shard = lock(&self.shards[Self::shard_of(name)]);
            match shard.get(name) {
                Some(entry) => Arc::clone(entry),
                None => {
                    host = Some(name.to_domain_name()?);
                    Arc::clone(shard.entry(name.to_owned()).or_default())
                }
            }
        };
        // Shard lock released: only this name's entry is held during the
        // (potentially long) resolution below.
        let mut slot = lock(&entry.slot);
        if let Some(v) = slot.as_ref() {
            return Some(CacheHit {
                host: v.host.clone(),
                ips: Arc::clone(&v.ips),
                computed: None,
            });
        }
        // Only names with a spelling get an entry; an empty one left by a
        // panicked computation is spelled again here.
        let host = match host {
            Some(host) => host,
            None => name.to_domain_name()?,
        };
        let (ips, cost) = compute(&host);
        let value = CacheValue {
            host,
            ips: ips.into(),
        };
        *slot = Some(value.clone());
        Some(CacheHit {
            host: value.host,
            ips: value.ips,
            computed: Some(cost),
        })
    }

    /// The shard for `name`, from the same hash its shard's table
    /// probes with (every [`FastState`] in a process hashes alike).
    fn shard_of(name: &NameSlice) -> usize {
        (FastState::default().hash_one(name) >> SHARD_SHIFT) as usize % SHARDS
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

    fn name(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn ip(last: u8) -> Ipv4Addr {
        Ipv4Addr::new(192, 0, 2, last)
    }

    #[test]
    fn computes_exactly_once() {
        let mut cache = NsCache::new();
        cache.begin_sweep(Date::from_ymd(2022, 3, 1));
        let first = cache
            .get_or_compute(&name("ns1.hoster.ru"), |_| {
                (
                    vec![ip(1)],
                    LookupCost {
                        queries: 3,
                        ..LookupCost::default()
                    },
                )
            })
            .unwrap();
        assert_eq!(*first.ips, [ip(1)]);
        assert!(first.computed.is_some(), "first lookup must compute");
        let second = cache
            .get_or_compute(&name("ns1.hoster.ru"), |_| {
                panic!("cached entry recomputed")
            })
            .unwrap();
        assert_eq!(*second.ips, [ip(1)]);
        assert!(
            Arc::ptr_eq(&first.ips, &second.ips),
            "a hit shares the entry"
        );
        assert!(second.computed.is_none(), "second lookup must hit");
    }

    #[test]
    fn never_serves_across_a_day_boundary() {
        let mut cache = NsCache::new();
        cache.begin_sweep(Date::from_ymd(2022, 3, 1));
        cache.get_or_compute(&name("ns1.hoster.ru"), |_| {
            (vec![ip(1)], LookupCost::default())
        });
        assert_eq!(
            cache.peek(&name("ns1.hoster.ru")).as_deref(),
            Some(&[ip(1)][..])
        );
        assert_eq!(cache.len(), 1);

        // The next measurement day starts: everything is re-observed.
        cache.begin_sweep(Date::from_ymd(2022, 3, 2));
        assert!(cache.is_empty(), "day boundary must clear the cache");
        assert_eq!(cache.peek(&name("ns1.hoster.ru")), None);
        let relookup = cache
            .get_or_compute(&name("ns1.hoster.ru"), |_| {
                (vec![ip(2)], LookupCost::default())
            })
            .unwrap();
        assert!(relookup.computed.is_some(), "new day must recompute");
        assert_eq!(*relookup.ips, [ip(2)]);
    }

    #[test]
    fn same_day_begin_is_idempotent() {
        let mut cache = NsCache::new();
        let d = Date::from_ymd(2022, 3, 1);
        cache.begin_sweep(d);
        cache.get_or_compute(&name("ns1.hoster.ru"), |_| {
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
        let names: Vec<Name> = (0..40)
            .map(|i| name(&format!("ns{}.hoster.ru", i % 5)))
            .collect();
        std::thread::scope(|s| {
            for chunk in names.chunks(10) {
                let computes = &computes;
                s.spawn(move || {
                    for n in chunk {
                        let hit = cache
                            .get_or_compute(n, |_| {
                                computes.fetch_add(1, Ordering::SeqCst);
                                (vec![ip(9)], LookupCost::default())
                            })
                            .unwrap();
                        assert_eq!(*hit.ips, [ip(9)]);
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

    #[test]
    fn hosts_differing_in_one_label_use_every_shard() {
        let mut used = [0usize; SHARDS];
        for i in 0..256 {
            used[NsCache::shard_of(&name(&format!("ns{i}.hoster.ru")))] += 1;
        }
        assert!(used.iter().all(|&n| n > 0), "shard use {used:?}");
    }

    #[test]
    fn hosts_without_a_hostname_spelling_are_not_cached() {
        let mut cache = NsCache::new();
        cache.begin_sweep(Date::from_ymd(2022, 3, 1));
        let odd = Name::from_labels([&b"bad host"[..], b"ru"]).unwrap();
        assert!(cache
            .get_or_compute(&odd, |_| panic!("no lane key"))
            .is_none());
        assert!(cache.is_empty());
        let hit = cache
            .get_or_compute(&name("ns1.hoster.ru"), |host| {
                assert_eq!(host.as_str(), "ns1.hoster.ru");
                (vec![ip(3)], LookupCost::default())
            })
            .unwrap();
        assert_eq!(hit.host.as_str(), "ns1.hoster.ru");
        assert!(hit.computed.is_some(), "a spelled name computes");
    }
}
