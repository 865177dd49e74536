//! Censys-style certificate datasets: CT-log indexing and IP-wide scans.

use ruwhere_ct::{CertId, CertStore, CtLog, SharedCertStore};
use ruwhere_types::sync::read;
use ruwhere_types::{Date, DomainName};
use ruwhere_world::{Banner, World, TLS_PORT};
use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;
use std::sync::{Arc, RwLockReadGuard};

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

/// One indexed certificate: its row in the dataset's store and its log
/// date. Issuer, serial, validity and covered names are read through the
/// store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CertRecord {
    /// CT log timestamp (issuance date in our pipeline).
    pub date: Date,
    /// The logged certificate.
    pub cert: CertId,
}

/// The indexed certificate dataset for an analysis window: records over
/// the certificate store the indexed logs share.
#[derive(Debug, Clone, Default)]
pub struct CertDataset {
    certs: SharedCertStore,
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
    ///
    /// # Panics
    /// If the logs are not all over one certificate store, as the logs of
    /// one world are.
    pub fn from_logs(logs: &[CtLog], from: Date, to: Date, rule: MatchRule) -> Self {
        let Some(first) = logs.first() else {
            return Self::default();
        };
        assert!(
            logs.iter().all(|l| Arc::ptr_eq(l.store(), first.store())),
            "the indexed logs must share one certificate store"
        );
        let certs = first.certs();
        // Logs over one store share one entry column, so every log after
        // the first repeats its entries and the dedup below would drop
        // them all: one pass over the column marks the same records.
        let window = || {
            certs
                .entries()
                .iter()
                .filter(move |e| e.timestamp >= from && e.timestamp <= to)
        };
        // First pass: mark the entries to keep. Serials seen, per
        // organization: a set of 8-byte keys per issuer holds a third of
        // what one set of (organization, serial) keys does.
        let mut seen: HashMap<&str, HashSet<u64>> = HashMap::new();
        let keep: Vec<bool> = window()
            .map(|e| {
                let cert = certs.get(e.cert);
                let matched = match rule {
                    MatchRule::CnOrSan => cert.matches_russian_tld(),
                    MatchRule::CnOnly => cert.matches_russian_tld_cn_only(),
                };
                matched
                    && seen
                        .entry(cert.issuer_org())
                        .or_default()
                        .insert(cert.serial())
            })
            .collect();
        drop(seen);
        // Second pass: fill a vector sized to the count, so no regrowth
        // holds two buffers at once, after the serial sets are freed. The
        // column is in submission order, which is date order for the
        // world's CAs; sort (stably) only when it is not.
        let mut records = Vec::with_capacity(keep.iter().filter(|&&k| k).count());
        for (e, _) in window().zip(&keep).filter(|(_, &k)| k) {
            records.push(CertRecord {
                date: e.timestamp,
                cert: e.cert,
            });
        }
        if !records.is_sorted_by_key(|r| r.date) {
            records.sort_by_key(|r| r.date);
        }
        drop(certs);
        CertDataset {
            certs: Arc::clone(first.store()),
            records,
        }
    }

    /// The store the records are rows of, read-locked.
    pub fn certs(&self) -> RwLockReadGuard<'_, CertStore> {
        read(&self.certs)
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

/// One IP-wide TLS scan, stored as columns: per responding endpoint only
/// what §4.3 reads — the address, the serial, the issuer and chain as ids
/// into per-scan organization tables, and the covered names.
#[derive(Debug, Clone)]
pub struct IpScanSnapshot {
    /// Scan date.
    pub date: Date,
    addrs: Vec<Ipv4Addr>,
    serials: Vec<u64>,
    /// Per endpoint, the issuer organization's index in `orgs`.
    issuer_ids: Vec<u32>,
    /// Per endpoint, its chain's index in `chains`.
    chain_ids: Vec<u32>,
    /// Per endpoint, the end of its names in `names`.
    name_ends: Vec<u32>,
    /// Every endpoint's covered names (CN when it is a domain name, then
    /// the SANs; each once), each followed by a newline.
    names: String,
    /// The scan's distinct organizations.
    orgs: Vec<Box<str>>,
    /// The scan's distinct chains above the issuer, as indices into
    /// `orgs`.
    chains: Vec<Box<[u32]>>,
}

impl IpScanSnapshot {
    /// An empty scan dated `date`.
    pub fn new(date: Date) -> Self {
        IpScanSnapshot {
            date,
            addrs: Vec::new(),
            serials: Vec::new(),
            issuer_ids: Vec::new(),
            chain_ids: Vec::new(),
            name_ends: Vec::new(),
            names: String::new(),
            orgs: Vec::new(),
            chains: Vec::new(),
        }
    }

    /// Record the endpoint at `addr` from the banner it presented. Returns
    /// `false`, recording nothing, when the banner does not parse.
    pub fn push_banner(&mut self, addr: Ipv4Addr, banner: &[u8]) -> bool {
        let Some(b) = Banner::parse(banner) else {
            return false;
        };
        let start = self.names.len();
        let cn = DomainName::parse(&b.subject_cn()).ok();
        for name in cn.into_iter().chain(b.san()) {
            let name = name.as_str();
            if !self.names[start..]
                .split_terminator('\n')
                .any(|n| n == name)
            {
                self.names.push_str(name);
                self.names.push('\n');
            }
        }
        let issuer = self.org_id(&b.issuer_org());
        let chain = self.chain_id(&b);
        self.addrs.push(addr);
        self.serials.push(b.serial());
        self.issuer_ids.push(issuer);
        self.chain_ids.push(chain);
        self.name_ends.push(offset(self.names.len()));
        true
    }

    /// The index of `org` in the organization table, added if new.
    fn org_id(&mut self, org: &str) -> u32 {
        match self.orgs.iter().position(|o| **o == *org) {
            Some(i) => offset(i),
            None => {
                self.orgs.push(org.into());
                offset(self.orgs.len() - 1)
            }
        }
    }

    /// The index of `b`'s chain in the chain table, added if new.
    fn chain_id(&mut self, b: &Banner<'_>) -> u32 {
        let ids: Vec<u32> = b.chain_orgs().map(|o| self.org_id(&o)).collect();
        match self.chains.iter().position(|c| **c == *ids) {
            Some(i) => offset(i),
            None => {
                self.chains.push(ids.into());
                offset(self.chains.len() - 1)
            }
        }
    }

    /// Release the columns' spare capacity once the scan is complete.
    fn shrink_to_fit(&mut self) {
        self.addrs.shrink_to_fit();
        self.serials.shrink_to_fit();
        self.issuer_ids.shrink_to_fit();
        self.chain_ids.shrink_to_fit();
        self.name_ends.shrink_to_fit();
        self.names.shrink_to_fit();
    }

    /// Responding endpoints.
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// Whether no endpoint responded.
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }

    /// The responding endpoints, in probe order.
    pub fn endpoints(&self) -> impl ExactSizeIterator<Item = ScanEndpoint<'_>> {
        (0..self.len()).map(move |i| ScanEndpoint { scan: self, i })
    }
}

/// A column offset or table index as stored; the columns of one scan stay
/// far below 4 GiB.
fn offset(n: usize) -> u32 {
    u32::try_from(n).expect("scan column exceeds u32 offsets")
}

/// One responding endpoint of an [`IpScanSnapshot`], read from its
/// columns.
#[derive(Debug, Clone, Copy)]
pub struct ScanEndpoint<'a> {
    scan: &'a IpScanSnapshot,
    i: usize,
}

impl<'a> ScanEndpoint<'a> {
    /// The endpoint's address.
    pub fn addr(&self) -> Ipv4Addr {
        self.scan.addrs[self.i]
    }

    /// The served certificate's issuer-scoped serial.
    pub fn serial(&self) -> u64 {
        self.scan.serials[self.i]
    }

    /// The served certificate's issuer organization.
    pub fn issuer_org(&self) -> &'a str {
        &self.scan.orgs[self.scan.issuer_ids[self.i] as usize]
    }

    /// Whether `org` is the issuer or any organization up the presented
    /// chain.
    pub fn chain_contains_org(&self, org: &str) -> bool {
        let chain = &self.scan.chains[self.scan.chain_ids[self.i] as usize];
        self.issuer_org() == org || chain.iter().any(|&o| &*self.scan.orgs[o as usize] == org)
    }

    /// The covered names: the CN when it is a domain name, then the SANs,
    /// each once, in the normalized form of [`DomainName::as_str`].
    pub fn names(&self) -> impl Iterator<Item = &'a str> {
        let start = match self.i {
            0 => 0,
            i => self.scan.name_ends[i - 1] as usize,
        };
        let end = self.scan.name_ends[self.i] as usize;
        self.scan.names[start..end].split_terminator('\n')
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

    /// Probe all TLS endpoints at the world's current date. An endpoint
    /// that does not answer, or answers with an unparsable banner, is left
    /// out of the snapshot.
    ///
    /// Takes `&mut self`: the scanner accumulates run-to-run state (the
    /// probe total).
    pub fn scan(&mut self, world: &mut World) -> IpScanSnapshot {
        let mut snap = IpScanSnapshot::new(world.today());
        let targets = world.network().bound_endpoints(TLS_PORT);
        let mut banner = Vec::new();
        for addr in targets {
            self.probes_sent += 1;
            let answered = world.network_mut().request(
                self.src,
                (addr, TLS_PORT),
                b"CLIENT-HELLO",
                1_500_000,
                2,
                &mut banner,
            );
            if answered.is_ok() {
                snap.push_banner(addr, &banner);
            }
        }
        snap.shrink_to_fit();
        snap
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
        let certs = ds.certs();
        assert!(ds
            .records
            .iter()
            .all(|r| certs.get(r.cert).names().any(|n| n.is_russian_cctld())));
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
        assert!(!snap.is_empty(), "no TLS endpoints responded");
        assert_eq!(
            scanner.probes_sent(),
            world.network().bound_endpoints(TLS_PORT).len() as u64
        );
        assert!(snap.len() as u64 <= scanner.probes_sent());

        // The scan must see Russian Trusted Root CA chains that CT lacks.
        let russian_served = snap
            .endpoints()
            .filter(|e| e.chain_contains_org("Russian Trusted Root CA"))
            .count();
        assert!(russian_served > 0, "IP scan missed the Russian CA");
        let ds = CertDataset::from_log(
            world.ct_log(),
            Date::from_ymd(2022, 1, 1),
            Date::from_ymd(2022, 5, 25),
            MatchRule::CnOrSan,
        );
        let certs = ds.certs();
        let in_ct = ds
            .records
            .iter()
            .filter(|r| certs.get(r.cert).issuer_org() == "Russian Trusted Root CA")
            .count();
        assert_eq!(in_ct, 0, "Russian CA must be absent from CT");
    }

    #[test]
    fn snapshot_columns_read_back_each_endpoint() {
        use ruwhere_ct::CertificateAuthority;
        use ruwhere_types::Country;
        let date = Date::from_ymd(2022, 4, 20);
        let mut le = CertificateAuthority::new("Let's Encrypt", Country::US, &["R3"], true, 90)
            .with_chain(&["ISRG"]);
        let mut ru = CertificateAuthority::new(
            "Russian Trusted Root CA",
            Country::RU,
            &["Russian Trusted Sub CA"],
            false,
            365,
        )
        .with_chain(&["Russian Trusted Root CA"]);
        let mut certs = ruwhere_ct::CertStore::new();
        let mut issue = |ca: &mut CertificateAuthority, name: &str| {
            let name: DomainName = name.parse().unwrap();
            let san = [name.clone(), name.prepend("www").unwrap()];
            let id = ca.issue(&mut certs, &name, &san, 0, date).unwrap();
            let mut out = Vec::new();
            ruwhere_world::write_banner(certs.get(id), &mut out);
            out
        };
        let mut snap = IpScanSnapshot::new(date);
        let a: Ipv4Addr = "10.0.0.1".parse().unwrap();
        let b: Ipv4Addr = "10.0.0.2".parse().unwrap();
        assert!(snap.push_banner(a, &issue(&mut le, "shop.ru")));
        assert!(!snap.push_banner(b, b"HTTP/1.1 400 Bad Request\n"));
        assert!(snap.push_banner(b, &issue(&mut ru, "bank.ru")));
        assert!(snap.push_banner(a, &issue(&mut le, "blog.ru")));

        let eps: Vec<_> = snap.endpoints().collect();
        assert_eq!(eps.len(), 3);
        assert_eq!((eps[0].addr(), eps[1].addr()), (a, b));
        assert_eq!(eps[0].issuer_org(), "Let's Encrypt");
        assert!(eps[0].chain_contains_org("ISRG"));
        assert!(
            eps[0].chain_contains_org("Let's Encrypt"),
            "issuer itself counts"
        );
        assert!(!eps[0].chain_contains_org("Russian Trusted Root CA"));
        assert!(eps[1].chain_contains_org("Russian Trusted Root CA"));
        assert_eq!(eps[2].serial(), eps[0].serial() + 1);
        // The CN repeats the first SAN; each name is stored once.
        let names: Vec<_> = eps[1].names().collect();
        assert_eq!(names, ["bank.ru", "www.bank.ru"]);
        assert_eq!(eps[2].names().count(), 2);
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
