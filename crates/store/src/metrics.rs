//! Sweep-level observability: the deterministic metric section a daily
//! sweep carries next to its counters.
//!
//! [`SweepMetrics`] folds together the three instrumented layers of one
//! sweep — transport ([`NetObs`]: per-link delay/drop tables, fault-window
//! occupancy), resolution ([`ResolverObs`]: SRTT distribution, penalty-box
//! churn, cache hits) and the measurement pipeline itself (a
//! [`Recorder`] of per-cause failure latencies and salvage decisions).
//!
//! Everything here obeys the same contract as the sweep's counters: all
//! values are integers in virtual time, every field merges associatively
//! and commutatively, and JSON export is hand-rolled in sorted key order —
//! so the metrics of a merged sweep are **byte-identical for any worker
//! count**, and `repro --metrics` output can be compared with `cmp`.

use ruwhere_authdns::ResolverObs;
use ruwhere_netsim::NetObs;
use ruwhere_obs::{json, Recorder};
use std::fmt::Write;

/// Pipeline-level metric keys (the fixed vocabulary of the `causes`
/// recorder). Cause histograms are keyed `"fail.<category>_us"` with the
/// categories of `ScanError::category` (in `ruwhere-scan`).
pub mod keys {
    /// Virtual µs of each successful per-domain measurement.
    pub const OK_US: &str = "ok_us";
    /// 1 iff the sweep was salvaged as partial.
    pub const SALVAGE_PARTIAL: &str = "salvage.partial";
    /// Records dropped by the salvage pass.
    pub const SALVAGE_DROPPED: &str = "salvage.records_dropped";
    /// NS-failure rate of the sweep, in parts-per-million (integer — the
    /// exported file carries no floats).
    pub const SALVAGE_NS_FAILURE_PPM: &str = "salvage.ns_failure_ppm";
    /// Shard workers that panicked and were re-run successfully.
    pub const SHARDS_RETRIED: &str = "salvage.shards_retried";
    /// Shard workers lost for good (panicked twice); their domains become
    /// `worker_lost` failure records.
    pub const SHARDS_LOST: &str = "salvage.shards_lost";
    /// Domains whose measurements were lost with a dead shard.
    pub const DOMAINS_LOST: &str = "salvage.domains_lost";
}

/// Map a failure category (from `ScanError::category` /
/// [`ResolveError`](ruwhere_authdns::ResolveError)) to its static
/// latency-histogram key. `Recorder` keys are `&'static str`, so the
/// vocabulary is enumerated here rather than formatted at runtime.
pub fn fail_key(category: &str) -> &'static str {
    match category {
        "timeouts" => "fail.timeouts_us",
        "servfails" => "fail.servfails_us",
        "lame" => "fail.lame_us",
        "refused" => "fail.refused_us",
        "budget_exhausted" => "fail.budget_exhausted_us",
        "no_nameservers" => "fail.no_nameservers_us",
        "unreachable" => "fail.unreachable_us",
        "bad_payload" => "fail.bad_payload_us",
        "not_found" => "fail.not_found_us",
        "worker_lost" => "fail.worker_lost_us",
        _ => "fail.other_us",
    }
}

/// One sweep's merged observability section.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SweepMetrics {
    /// Transport-level aggregates (per-link delays, drop causes,
    /// fault-window occupancy) folded over every measurement lane.
    pub net: NetObs,
    /// Resolver-level aggregates (SRTT, penalty-box churn, cache hits)
    /// folded over every domain's resolution.
    pub resolver: ResolverObs,
    /// Pipeline-level counters and per-cause latency histograms (see
    /// [`keys`] and [`fail_key`]).
    pub causes: Recorder,
}

impl SweepMetrics {
    /// A fresh empty section.
    pub fn new() -> SweepMetrics {
        SweepMetrics::default()
    }

    /// Whether nothing was recorded (e.g. a frame after
    /// [`strip_metrics`](crate::SweepFrame::strip_metrics)).
    pub fn is_empty(&self) -> bool {
        self.net == NetObs::default()
            && self.resolver == ResolverObs::default()
            && self.causes.is_empty()
    }

    /// Fold another section in (commutative, associative — the worker
    /// fan-in merge).
    pub fn merge(&mut self, other: &SweepMetrics) {
        self.net.merge(&other.net);
        self.resolver.merge(&other.resolver);
        self.causes.merge(&other.causes);
    }

    /// Render the section as deterministic JSON (sorted keys, integers
    /// only) and append to `out`.
    pub fn push_json(&self, out: &mut String) {
        out.push_str("{\"net\":{");
        let _ = write!(
            out,
            "\"loss_drops\":{},\"fault_drops\":{},\"fault_blackholes\":{},\"fault_occupied_us\":{}",
            self.net.loss_drops,
            self.net.fault_drops,
            self.net.fault_blackholes,
            self.net.fault_occupied_us,
        );
        out.push_str(",\"delay_us\":");
        json::push_histogram(out, &self.net.delay_us);
        out.push_str(",\"request_us\":");
        json::push_histogram(out, &self.net.request_us);
        out.push_str(",\"links\":[");
        for (i, ((from, to), l)) in self.net.links.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"from\":{},\"to\":{},\"delivered\":{},\"dropped\":{},\"delay_sum_us\":{}}}",
                from.0, to.0, l.delivered, l.dropped, l.delay_sum_us
            );
        }
        out.push_str("]},\"resolver\":{");
        let _ = write!(
            out,
            "\"penalty_entries\":{},\"penalty_exits\":{},\"answer_cache_hits\":{},\"deps_cache_hits\":{}",
            self.resolver.penalty_entries,
            self.resolver.penalty_exits,
            self.resolver.answer_cache_hits,
            self.resolver.deps_cache_hits,
        );
        out.push_str(",\"srtt_us\":");
        json::push_histogram(out, &self.resolver.srtt_us);
        out.push_str("},\"causes\":");
        json::push_recorder(out, &self.causes);
        out.push('}');
    }

    /// The section as a standalone JSON string.
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        self.push_json(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruwhere_types::Asn;

    fn sample(seed: u64) -> SweepMetrics {
        let mut m = SweepMetrics::new();
        m.net.hop_delivered(Asn(1), Asn(2), 30_000 + seed);
        m.net.hop_dropped(Asn(2), Asn(1), seed.is_multiple_of(2));
        m.resolver.srtt_us.record(40_000 + seed);
        m.resolver.penalty_entries += seed;
        m.causes.record(fail_key("timeouts"), 250_000 + seed);
        m.causes.incr(keys::SALVAGE_DROPPED);
        m
    }

    #[test]
    fn merge_commutes_and_associates() {
        let (a, b, c) = (sample(1), sample(2), sample(5));
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut right = c.clone();
        right.merge(&b);
        right.merge(&a);
        assert_eq!(left, right);
        assert_eq!(left.render_json(), right.render_json());
    }

    #[test]
    fn json_is_deterministic_and_integer_only() {
        let m = sample(3);
        let j = m.render_json();
        assert_eq!(j, sample(3).render_json());
        assert!(j.starts_with("{\"net\":{\"loss_drops\":"));
        assert!(j.contains("\"causes\":{\"counters\":{"));
        assert!(!j.contains('.') || !j.contains("e-"), "no float formatting");
        // Spot-check link table renders both AS numbers.
        assert!(j.contains("\"from\":2,\"to\":1"));
    }

    #[test]
    fn empty_section_reports_empty() {
        assert!(SweepMetrics::new().is_empty());
        assert!(!sample(0).is_empty());
    }
}
