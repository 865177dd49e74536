//! Transport-level observability: where virtual time and packets go.
//!
//! [`NetObs`] is the instrumented counterpart of [`NetStats`]: instead of
//! five scalar counters it keeps latency distributions, drop counters
//! split by cause, fault-window occupancy, and a per-AS-pair link table.
//! Like `NetStats` it merges by field-wise addition, so per-lane
//! observations fold into a sweep total that is independent of worker
//! count and merge order.
//!
//! [`NetStats`]: crate::sim::NetStats

use ruwhere_obs::Histogram;
use ruwhere_types::Asn;

/// Per-directed-AS-pair link counters.
///
/// Keys are `(source AS, destination AS)`; a request and its reply count
/// on opposite directions. `delay_sum_us / delivered` is the mean one-way
/// latency actually experienced on the link (topology base + jitter +
/// fault degradation), which is how a link-fault window shows up here.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkObs {
    /// One-way packet deliveries over this link.
    pub delivered: u64,
    /// Packets dropped on this link (uniform loss or link fault).
    pub dropped: u64,
    /// Sum of one-way delays of the delivered packets, in virtual µs.
    pub delay_sum_us: u64,
}

impl LinkObs {
    fn merge(&mut self, other: &LinkObs) {
        self.delivered += other.delivered;
        self.dropped += other.dropped;
        self.delay_sum_us += other.delay_sum_us;
    }
}

/// Per-directed-AS-pair link counters, keyed by `(source AS, dest AS)`.
///
/// A sorted vector rather than a tree map: this table is touched on every
/// delivered packet, and a lane's traffic ping-pongs between the two
/// directions of one path, so a hot-index memo plus binary search beats
/// pointer-chasing through tree nodes. Entries stay sorted by key, so
/// iteration order is deterministic and equality of contents implies
/// equality of the backing vector.
#[derive(Debug, Clone, Default)]
pub struct LinkTable {
    entries: Vec<((Asn, Asn), LinkObs)>,
    /// Indices of the two most recently touched entries. A request and
    /// its reply alternate between the two directions of one path, so a
    /// pair of slots covers a whole exchange without searching. Pure
    /// lookup accelerators: never compared, never exported.
    hot: [usize; 2],
}

impl PartialEq for LinkTable {
    fn eq(&self, other: &Self) -> bool {
        self.entries == other.entries
    }
}

impl Eq for LinkTable {}

impl LinkTable {
    /// The counters for `key`, inserting a zero entry if absent.
    #[inline]
    pub fn get_mut(&mut self, key: (Asn, Asn)) -> &mut LinkObs {
        for slot in self.hot {
            if let Some(e) = self.entries.get(slot) {
                if e.0 == key {
                    return &mut self.entries[slot].1;
                }
            }
        }
        match self.entries.binary_search_by_key(&key, |e| e.0) {
            Ok(i) => {
                self.hot = [i, self.hot[0]];
                &mut self.entries[i].1
            }
            Err(i) => {
                self.entries.insert(i, (key, LinkObs::default()));
                // Shifted positions invalidate both memo slots.
                self.hot = [i, i];
                &mut self.entries[i].1
            }
        }
    }

    /// The counters for `key`, if the link has seen traffic.
    pub fn get(&self, key: &(Asn, Asn)) -> Option<&LinkObs> {
        self.entries
            .binary_search_by_key(key, |e| e.0)
            .ok()
            .map(|i| &self.entries[i].1)
    }

    /// Links in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&(Asn, Asn), &LinkObs)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    /// Number of links that have seen traffic.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no link has seen traffic.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn merge(&mut self, other: &LinkTable) {
        for (k, l) in &other.entries {
            self.get_mut(*k).merge(l);
        }
    }
}

/// Transport observability aggregates, all in virtual time.
///
/// Every field merges by addition (histograms bucket-wise), so any merge
/// tree over per-lane instances yields identical totals — the same
/// associativity contract the sweep engine's measurement output holds.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetObs {
    /// One-way delay of each delivered packet (virtual µs).
    pub delay_us: Histogram,
    /// Virtual duration of each *successful* request, including the
    /// timeouts of its failed attempts (µs).
    pub request_us: Histogram,
    /// Packets eaten by the uniform loss process.
    pub loss_drops: u64,
    /// Packets eaten by an active link fault's extra-loss process.
    pub fault_drops: u64,
    /// Packets black-holed at the box by an active server fault.
    pub fault_blackholes: u64,
    /// Virtual µs burned on request attempts issued while the destination
    /// sat inside an active server-fault window — the cost of probing a
    /// faulted box.
    pub fault_occupied_us: u64,
    /// Per-directed-AS-pair link counters.
    pub links: LinkTable,
    /// Delay samples not yet folded into [`delay_us`](NetObs::delay_us).
    ///
    /// Recording a sample into a log-linear histogram touches several
    /// cache lines that have gone cold by the time the next packet is
    /// delivered, which made the per-hop record the single largest
    /// instrumentation cost. Deliveries therefore append to this flat
    /// buffer (one warm cache line) and [`flush`](NetObs::flush) folds
    /// the samples in bulk at drain points, where the histogram's lines
    /// stay warm across consecutive records. Always empty outside the
    /// recording hot path: `flush` runs before every merge, take or
    /// export.
    delay_staging: Vec<u64>,
}

impl NetObs {
    /// A fresh empty aggregate.
    pub fn new() -> NetObs {
        NetObs::default()
    }

    /// Record a delivered one-way hop.
    #[inline]
    pub fn hop_delivered(&mut self, from: Asn, to: Asn, delay_us: u64) {
        self.delay_staging.push(delay_us);
        let link = self.links.get_mut((from, to));
        link.delivered += 1;
        link.delay_sum_us += delay_us;
    }

    /// Fold staged delay samples into [`delay_us`](NetObs::delay_us).
    /// Called by every drain point ([`merge`](NetObs::merge) and the
    /// lane's `take_obs`), so readers never observe staged samples.
    pub fn flush(&mut self) {
        for v in self.delay_staging.drain(..) {
            self.delay_us.record(v);
        }
    }

    /// Record a dropped one-way hop; `fault` distinguishes a link-fault
    /// drop from the uniform loss process.
    #[inline]
    pub fn hop_dropped(&mut self, from: Asn, to: Asn, fault: bool) {
        if fault {
            self.fault_drops += 1;
        } else {
            self.loss_drops += 1;
        }
        self.links.get_mut((from, to)).dropped += 1;
    }

    /// Fold another aggregate in (commutative, associative). Flushes this
    /// side's staged samples and folds the other side's, so merging is
    /// safe mid-recording on either side.
    pub fn merge(&mut self, other: &NetObs) {
        self.flush();
        self.delay_us.merge(&other.delay_us);
        for &v in &other.delay_staging {
            self.delay_us.record(v);
        }
        self.request_us.merge(&other.request_us);
        self.loss_drops += other.loss_drops;
        self.fault_drops += other.fault_drops;
        self.fault_blackholes += other.fault_blackholes;
        self.fault_occupied_us += other.fault_occupied_us;
        self.links.merge(&other.links);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_all_fields() {
        let mut a = NetObs::new();
        a.hop_delivered(Asn(1), Asn(2), 30_000);
        a.hop_dropped(Asn(1), Asn(2), false);
        a.fault_occupied_us = 500;
        let mut b = NetObs::new();
        b.hop_delivered(Asn(1), Asn(2), 40_000);
        b.hop_dropped(Asn(2), Asn(1), true);
        b.fault_blackholes = 2;

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "merge must commute");

        assert_eq!(ab.delay_us.count(), 2);
        assert_eq!(ab.loss_drops, 1);
        assert_eq!(ab.fault_drops, 1);
        assert_eq!(ab.fault_blackholes, 2);
        assert_eq!(ab.fault_occupied_us, 500);
        let fwd = ab.links.get(&(Asn(1), Asn(2))).unwrap();
        assert_eq!(
            (fwd.delivered, fwd.dropped, fwd.delay_sum_us),
            (2, 1, 70_000)
        );
        let rev = ab.links.get(&(Asn(2), Asn(1))).unwrap();
        assert_eq!((rev.delivered, rev.dropped), (0, 1));
    }
}
