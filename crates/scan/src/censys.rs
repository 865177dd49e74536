//! Censys-style certificate datasets: CT-log indexing and IP-wide scans.

use crate::error::ScanError;
use ruwhere_ct::CtLog;
use ruwhere_types::{Date, DomainName};
use ruwhere_world::{ChainSummary, World, TLS_PORT};
use std::net::Ipv4Addr;
use std::sync::Arc;

/// How a certificate is matched to the study TLDs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatchRule {
    /// Paper footnote 6: "either its Common Name (CN) or Subject
    /// Alternative Name (SAN) fields include a domain name under a .ru or
    /// .рф TLD".
    CnOrSan,
    /// Stricter CN-only rule (ablation).
    CnOnly,
}

/// One indexed certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertRecord {
    /// CT log timestamp (issuance date in our pipeline).
    pub date: Date,
    /// Issuer Organization from the Issuer DN — the paper's aggregation
    /// key (§4.1). Shared with the certificate's issuer.
    pub issuer_org: Arc<str>,
    /// Issuer Common Name (the brand). Shared with the certificate's
    /// issuer.
    pub issuer_cn: Arc<str>,
    /// Issuer-scoped serial.
    pub serial: u64,
    /// Covered domains (CN + SANs, deduplicated).
    pub domains: Vec<DomainName>,
    /// Validity end.
    pub not_after: Date,
}

/// The indexed certificate dataset for an analysis window.
#[derive(Debug, Clone, Default)]
pub struct CertDataset {
    /// Matched certificates, log order.
    pub records: Vec<CertRecord>,
}

impl CertDataset {
    /// Index `log` for certificates in `[from, to]` matching the study
    /// TLDs under `rule`.
    pub fn from_log(log: &CtLog, from: Date, to: Date, rule: MatchRule) -> Self {
        Self::from_logs(std::slice::from_ref(log), from, to, rule)
    }

    /// Index several logs, deduplicating certificates that were submitted
    /// to more than one (by issuer organization + serial) — what Censys
    /// does when merging the public log ecosystem.
    pub fn from_logs(logs: &[CtLog], from: Date, to: Date, rule: MatchRule) -> Self {
        let mut seen = std::collections::HashSet::new();
        let mut records = Vec::new();
        for log in logs {
            for e in log.entries_between(from, to) {
                let matched = match rule {
                    MatchRule::CnOrSan => e.cert.matches_russian_tld(),
                    MatchRule::CnOnly => e.cert.matches_russian_tld_cn_only(),
                };
                if !matched {
                    continue;
                }
                if !seen.insert((&*e.cert.issuer.organization, e.cert.serial)) {
                    continue;
                }
                records.push(CertRecord {
                    date: e.timestamp,
                    issuer_org: Arc::clone(&e.cert.issuer.organization),
                    issuer_cn: Arc::clone(&e.cert.issuer.common_name),
                    serial: e.cert.serial,
                    domains: e.cert.covered_domains(),
                    not_after: e.cert.not_after,
                });
            }
        }
        records.sort_by_key(|r| r.date);
        CertDataset { records }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

/// One IP-wide TLS scan result.
#[derive(Debug, Clone)]
pub struct IpScanSnapshot {
    /// Scan date.
    pub date: Date,
    /// Responding endpoints with the chains they presented.
    pub endpoints: Vec<(Ipv4Addr, ChainSummary)>,
    /// Probes that yielded no usable chain, each with its failure cause.
    /// The old scanner folded everything into one `silent` counter; a
    /// timeout (the box is gone) and an unparsable banner (the box
    /// answered garbage) are different findings — see
    /// [`IpScanSnapshot::silent`] for the legacy aggregate.
    pub failures: Vec<(Ipv4Addr, ScanError)>,
}

impl IpScanSnapshot {
    /// Probes that got no usable TLS response (all causes) — the legacy
    /// `silent` aggregate.
    pub fn silent(&self) -> u64 {
        self.failures.len() as u64
    }
}

/// The Censys Universal Internet Data Set stand-in: probe every responding
/// TLS endpoint and record the presented chain.
pub struct IpScanner {
    src: Ipv4Addr,
    probes_sent: u64,
}

impl IpScanner {
    /// Scanner homed at the world's measurement vantage.
    pub fn new(world: &World) -> Self {
        IpScanner {
            src: world.scanner_ip(),
            probes_sent: 0,
        }
    }

    /// Probes sent since construction, summed over all scans.
    pub fn probes_sent(&self) -> u64 {
        self.probes_sent
    }

    /// Probe all TLS endpoints at the world's current date.
    ///
    /// Takes `&mut self`: the scanner accumulates run-to-run state (the
    /// probe total).
    pub fn scan(&mut self, world: &mut World) -> IpScanSnapshot {
        let date = world.today();
        let targets = world.network().bound_endpoints(TLS_PORT);
        let mut endpoints = Vec::new();
        let mut failures = Vec::new();
        let mut banner = Vec::new();
        for addr in targets {
            self.probes_sent += 1;
            match world.network_mut().request(
                self.src,
                (addr, TLS_PORT),
                b"CLIENT-HELLO",
                1_500_000,
                2,
                &mut banner,
            ) {
                Ok(()) => match ChainSummary::from_banner(&banner) {
                    Some(chain) => endpoints.push((addr, chain)),
                    None => failures.push((
                        addr,
                        ScanError::BadPayload("unparsable TLS banner".to_owned()),
                    )),
                },
                Err(e) => failures.push((addr, ScanError::from(e))),
            }
        }
        IpScanSnapshot {
            date,
            endpoints,
            failures,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruwhere_types::Period;
    use ruwhere_world::WorldConfig;

    #[test]
    fn ct_index_filters_and_windows() {
        let mut world = World::new(WorldConfig::tiny());
        world.advance_to(Date::from_ymd(2022, 2, 10));
        let from = Date::from_ymd(2022, 1, 1);
        let to = Date::from_ymd(2022, 2, 10);
        let ds = CertDataset::from_log(world.ct_log(), from, to, MatchRule::CnOrSan);
        assert!(!ds.is_empty());
        assert!(ds.records.iter().all(|r| r.date >= from && r.date <= to));
        assert!(ds
            .records
            .iter()
            .all(|r| r.domains.iter().any(|d| d.is_russian_cctld())));
        // In our generator CN == a Russian name, so CnOnly equals CnOrSan.
        let cn_only = CertDataset::from_log(world.ct_log(), from, to, MatchRule::CnOnly);
        assert_eq!(cn_only.len(), ds.len());
    }

    #[test]
    fn multi_log_dedup() {
        let mut world = World::new(WorldConfig::tiny());
        world.advance_to(Date::from_ymd(2022, 2, 1));
        let logs = world.ct_logs();
        assert_eq!(logs.len(), 2, "CAs submit to two logs");
        assert_eq!(
            logs[0].size(),
            logs[1].size(),
            "same submissions everywhere"
        );
        assert_ne!(logs[0].sth().signature, logs[1].sth().signature);
        let from = Date::from_ymd(2022, 1, 1);
        let to = Date::from_ymd(2022, 2, 1);
        let single = CertDataset::from_log(&logs[0], from, to, MatchRule::CnOrSan);
        let merged = CertDataset::from_logs(logs, from, to, MatchRule::CnOrSan);
        assert_eq!(
            merged.len(),
            single.len(),
            "dedup must collapse duplicate submissions"
        );
    }

    #[test]
    fn ip_scan_sees_served_chains_including_russian_ca() {
        let mut world = World::new(WorldConfig::tiny());
        world.advance_to(Date::from_ymd(2022, 4, 20));
        let mut scanner = IpScanner::new(&world);
        let snap = scanner.scan(&mut world);
        assert!(!snap.endpoints.is_empty(), "no TLS endpoints responded");
        assert_eq!(
            scanner.probes_sent(),
            snap.endpoints.len() as u64 + snap.silent()
        );

        // The scan must see Russian Trusted Root CA chains that CT lacks.
        let russian_served = snap
            .endpoints
            .iter()
            .filter(|(_, c)| c.chain_contains_org("Russian Trusted Root CA"))
            .count();
        assert!(russian_served > 0, "IP scan missed the Russian CA");
        let in_ct = CertDataset::from_log(
            world.ct_log(),
            Date::from_ymd(2022, 1, 1),
            Date::from_ymd(2022, 5, 25),
            MatchRule::CnOrSan,
        )
        .records
        .iter()
        .filter(|r| &*r.issuer_org == "Russian Trusted Root CA")
        .count();
        assert_eq!(in_ct, 0, "Russian CA must be absent from CT");
    }

    #[test]
    fn issuance_volume_tracks_period() {
        let mut world = World::new(WorldConfig::tiny());
        world.advance_to(Date::from_ymd(2022, 4, 30));
        let ds = CertDataset::from_log(
            world.ct_log(),
            Date::from_ymd(2022, 1, 1),
            Date::from_ymd(2022, 4, 30),
            MatchRule::CnOrSan,
        );
        let mut pre = 0u64;
        let mut after = 0u64;
        let mut pre_days = std::collections::HashSet::new();
        let mut after_days = std::collections::HashSet::new();
        for r in &ds.records {
            if Period::of(r.date) == Period::PreConflict {
                pre += 1;
                pre_days.insert(r.date);
            } else {
                after += 1;
                after_days.insert(r.date);
            }
        }
        let pre_rate = pre as f64 / pre_days.len().max(1) as f64;
        let post_rate = after as f64 / after_days.len().max(1) as f64;
        // §4: 130k/day pre-conflict vs 115k/day after — a mild decline.
        assert!(
            post_rate < pre_rate * 1.05,
            "issuance should not grow: pre {pre_rate:.1}/day post {post_rate:.1}/day"
        );
        assert!(post_rate > pre_rate * 0.5, "decline too sharp");
    }
}
