//! The one failure vocabulary of the measurement layer.
//!
//! The DNS sweep and the WHOIS client fail in one cause-specific enum,
//! [`ScanError`], whose variants line up with the per-cause counters of
//! [`SweepStats`](crate::SweepStats), so a failure observed by either
//! aggregates into the same vocabulary the sweep engine already reports.
//! The IP-wide TLS scan keeps only the endpoints that answered with a
//! chain; its probe total is [`IpScanner::probes_sent`](crate::IpScanner::probes_sent).

use ruwhere_authdns::ResolveError;
use ruwhere_netsim::NetError;
use std::fmt;

/// A measurement-layer failure, by cause.
///
/// The first six variants mirror [`ResolveError`] one-to-one so DNS
/// failures keep their cause through the scanner layer; the remainder
/// cover transport and payload failures the non-DNS scanners see.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScanError {
    /// The query (or every retry of it) timed out.
    Timeout,
    /// Servers answered SERVFAIL.
    ServFail,
    /// Servers answered but were lame for the zone.
    Lame,
    /// Servers answered but refused.
    Refused,
    /// Query/retry budget exhausted.
    BudgetExhausted,
    /// A referral pointed at unresolvable name servers.
    NoNameservers,
    /// The measurement vantage has no route to the target.
    Unreachable,
    /// The peer answered, but the payload was malformed (bad frame,
    /// non-UTF-8 WHOIS reply).
    BadPayload(String),
    /// The service answered authoritatively that the object does not
    /// exist (WHOIS: unregistered domain). Not an infrastructure failure.
    NotFound,
    /// The shard worker measuring this domain panicked (twice — the
    /// supervisor retries a lost shard once before recording the gap).
    /// The domain's measurements for the day are lost, not failed: the
    /// record degrades into the gap-aware partial-sweep salvage path.
    WorkerLost,
}

impl ScanError {
    /// Stable category label, aligned with the per-cause counter names of
    /// [`SweepStats`](crate::SweepStats) (`timeouts`, `servfails`,
    /// `lame`, …). Used as the metric-key suffix in
    /// [`SweepMetrics`](crate::SweepMetrics) cause histograms.
    pub fn category(&self) -> &'static str {
        match self {
            ScanError::Timeout => "timeouts",
            ScanError::ServFail => "servfails",
            ScanError::Lame => "lame",
            ScanError::Refused => "refused",
            ScanError::BudgetExhausted => "budget_exhausted",
            ScanError::NoNameservers => "no_nameservers",
            ScanError::Unreachable => "unreachable",
            ScanError::BadPayload(_) => "bad_payload",
            ScanError::NotFound => "not_found",
            ScanError::WorkerLost => "worker_lost",
        }
    }
}

impl fmt::Display for ScanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScanError::Timeout => write!(f, "request timed out"),
            ScanError::ServFail => write!(f, "servers answered SERVFAIL"),
            ScanError::Lame => write!(f, "servers were lame for the zone"),
            ScanError::Refused => write!(f, "servers refused"),
            ScanError::BudgetExhausted => write!(f, "query budget exhausted"),
            ScanError::NoNameservers => write!(f, "no resolvable name servers"),
            ScanError::Unreachable => write!(f, "no route to target"),
            ScanError::BadPayload(e) => write!(f, "malformed payload: {e}"),
            ScanError::NotFound => write!(f, "object does not exist"),
            ScanError::WorkerLost => write!(f, "shard worker lost (panicked)"),
        }
    }
}

impl std::error::Error for ScanError {}

impl From<ResolveError> for ScanError {
    fn from(e: ResolveError) -> ScanError {
        match e {
            ResolveError::Timeout => ScanError::Timeout,
            ResolveError::ServFail => ScanError::ServFail,
            ResolveError::Lame => ScanError::Lame,
            ResolveError::Refused => ScanError::Refused,
            ResolveError::BudgetExhausted => ScanError::BudgetExhausted,
            ResolveError::NoNameservers => ScanError::NoNameservers,
            ResolveError::BadResponse => ScanError::BadPayload("malformed response".to_owned()),
        }
    }
}

impl From<NetError> for ScanError {
    fn from(e: NetError) -> ScanError {
        match e {
            NetError::Timeout => ScanError::Timeout,
            NetError::NoRoute => ScanError::Unreachable,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn categories_are_stable_and_distinct() {
        let all = [
            ScanError::Timeout,
            ScanError::ServFail,
            ScanError::Lame,
            ScanError::Refused,
            ScanError::BudgetExhausted,
            ScanError::NoNameservers,
            ScanError::Unreachable,
            ScanError::BadPayload("x".into()),
            ScanError::NotFound,
            ScanError::WorkerLost,
        ];
        let cats: std::collections::HashSet<_> = all.iter().map(|e| e.category()).collect();
        assert_eq!(cats.len(), all.len(), "categories must be distinct");
        assert_eq!(ScanError::Timeout.category(), "timeouts");
    }

    #[test]
    fn resolver_and_net_errors_map_by_cause() {
        assert_eq!(ScanError::from(ResolveError::Lame), ScanError::Lame);
        assert_eq!(ScanError::from(NetError::Timeout), ScanError::Timeout);
        assert_eq!(ScanError::from(NetError::NoRoute), ScanError::Unreachable);
        assert!(matches!(
            ScanError::from(ResolveError::BadResponse),
            ScanError::BadPayload(_)
        ));
    }
}
