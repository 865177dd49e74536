//! The shared, date-scoped read-through cache for NS-target A lookups.
//!
//! Thousands of domains park on the same hoster name servers; without a
//! shared cache every worker re-resolves `ns1.reg.ru` for every customer
//! domain in its shard. This cache computes each NS-target address set
//! **exactly once per sweep date** — the first worker to miss holds the
//! entry's cell while it resolves, later workers block on that cell (not
//! on the whole cache: the list of entries is locked only to find or add
//! one) and then read the finished value. Each worker asks here once per
//! host and sweep and keeps the answer in a host table of its own, so the
//! one list lock sees a small share of the sweep's host lookups.
//!
//! Two properties keep the parallel sweep byte-identical to the serial
//! one:
//!
//! 1. *Values are sharding-independent.* An entry is computed on its own
//!    measurement lane keyed by `(date, ns-name)`, from a freshly reset
//!    overlay over the warmup-primed resolver base — a pure function of
//!    the sweep-start snapshot, no matter which worker computes it or
//!    when.
//! 2. *Costs are charged exactly once.* The cache knows nothing of
//!    costs: the compute closure runs only on the worker that fills the
//!    entry, and it charges the entry's query/latency cost into that
//!    worker's own ledger, so summed sweep counters do not depend on the
//!    worker count.
//!
//! The cache is keyed by sweep date and cleared on date change: a daily
//! measurement pipeline must re-observe everything each day (OpenINTEL
//! semantics), so yesterday's addresses must never satisfy today's sweep.

use ruwhere_dns::NameSlice;
use ruwhere_types::sync::lock;
use ruwhere_types::{Date, DomainName, NameList, Named};
use std::net::Ipv4Addr;
use std::sync::{Arc, Mutex, OnceLock};

/// One NS host's entry: its spelling, and its addresses once computed.
/// The cell is shared, so a lookup waits on it with the list unlocked.
struct Entry {
    host: DomainName,
    ips: Arc<OnceLock<Arc<[Ipv4Addr]>>>,
}

impl Named for Entry {
    fn name(&self) -> &DomainName {
        &self.host
    }
}

/// Outcome of a cache lookup.
pub struct CacheHit {
    /// The NS host's name as a [`DomainName`], converted once per sweep.
    pub host: DomainName,
    /// The resolved NS-target addresses, shared with the cache: a hit
    /// copies nothing.
    pub ips: Arc<[Ipv4Addr]>,
    /// Whether this call computed the entry (a miss) rather than read it.
    pub computed: bool,
}

/// The shared NS-target A cache. One per scanner; lives across sweeps but
/// never serves across a date boundary.
#[derive(Default)]
pub struct NsCache {
    date: Option<Date>,
    /// Found by the NS host's wire labels, so a lookup probes with the
    /// name a referral or an answer record carries, borrowed.
    entries: Mutex<NameList<Entry>>,
}

impl NsCache {
    /// Empty cache, bound to no date yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bind the cache to a sweep date, clearing every entry if the date
    /// differs from the previous sweep's. Must be called before workers
    /// start; the borrow rules enforce it (`&mut self` here,
    /// `&self` from workers).
    pub fn begin_sweep(&mut self, date: Date) {
        if self.date != Some(date) {
            lock(&self.entries).clear();
            self.date = Some(date);
        }
    }

    /// The date the cache currently serves, if any.
    pub fn date(&self) -> Option<Date> {
        self.date
    }

    /// Number of cached entries (computed or in flight).
    pub fn len(&self) -> usize {
        lock(&self.entries).len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Peek at a finished entry without computing (tests / diagnostics).
    pub fn peek(&self, name: &NameSlice) -> Option<Arc<[Ipv4Addr]>> {
        let entries = lock(&self.entries);
        let pos = entries.position(name.labels())?;
        entries.items()[pos].ips.get().cloned()
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
        F: FnOnce(&DomainName) -> Vec<Ipv4Addr>,
    {
        let (host, cell) = {
            let mut entries = lock(&self.entries);
            let pos = match entries.position(name.labels()) {
                Some(pos) => pos,
                None => entries.insert(Entry {
                    host: name.to_domain_name()?,
                    ips: Arc::default(),
                }),
            };
            let entry = &entries.items()[pos];
            (entry.host.clone(), Arc::clone(&entry.ips))
        };
        // List lock released: only this host's cell is held during the
        // (potentially long) resolution below. A computation that panics
        // leaves the cell empty for the next caller to fill.
        let mut computed = false;
        let ips = Arc::clone(cell.get_or_init(|| {
            computed = true;
            compute(&host).into()
        }));
        Some(CacheHit {
            host,
            ips,
            computed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruwhere_dns::Name;

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
            .get_or_compute(&name("ns1.hoster.ru"), |_| vec![ip(1)])
            .unwrap();
        assert_eq!(*first.ips, [ip(1)]);
        assert!(first.computed, "first lookup must compute");
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
        assert!(!second.computed, "second lookup must hit");
    }

    #[test]
    fn never_serves_across_a_day_boundary() {
        let mut cache = NsCache::new();
        cache.begin_sweep(Date::from_ymd(2022, 3, 1));
        cache.get_or_compute(&name("ns1.hoster.ru"), |_| vec![ip(1)]);
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
            .get_or_compute(&name("ns1.hoster.ru"), |_| vec![ip(2)])
            .unwrap();
        assert!(relookup.computed, "new day must recompute");
        assert_eq!(*relookup.ips, [ip(2)]);
    }

    #[test]
    fn same_day_begin_is_idempotent() {
        let mut cache = NsCache::new();
        let d = Date::from_ymd(2022, 3, 1);
        cache.begin_sweep(d);
        cache.get_or_compute(&name("ns1.hoster.ru"), |_| vec![ip(1)]);
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
                                vec![ip(9)]
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
                vec![ip(3)]
            })
            .unwrap();
        assert_eq!(hit.host.as_str(), "ns1.hoster.ru");
        assert!(hit.computed, "a spelled name computes");
    }
}
