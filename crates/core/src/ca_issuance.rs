//! CA issuance analysis (Figure 8, Table 1, §4 volume text).

use ruwhere_scan::CertDataset;
use ruwhere_types::{Date, Period};
use std::collections::{BTreeMap, BTreeSet};

/// Per-CA issuance-day sets (Figure 8: "a green dot indicates the CA
/// issued at least one certificate on the day").
#[derive(Debug, Clone, Default)]
pub struct IssuanceTimeline {
    /// Issuer organization → set of dates with ≥1 issuance.
    pub days: BTreeMap<String, BTreeSet<Date>>,
}

impl IssuanceTimeline {
    /// Whether `org` issued on `date`.
    pub fn issued_on(&self, org: &str, date: Date) -> bool {
        self.days.get(org).is_some_and(|s| s.contains(&date))
    }

    /// The last date `org` issued.
    pub fn last_issuance(&self, org: &str) -> Option<Date> {
        self.days
            .get(org)
            .and_then(|s| s.iter().next_back().copied())
    }

    /// Whether `org` stopped issuing before `horizon` minus `slack` days —
    /// used to count the "six of the ten top CAs stopped" finding.
    pub fn stopped_by(&self, org: &str, horizon: Date, slack: i32) -> bool {
        match self.last_issuance(org) {
            None => true,
            Some(d) => d < horizon.add_days(-slack),
        }
    }
}

/// One issuer row in the per-period table.
#[derive(Debug, Clone, PartialEq)]
pub struct PeriodRow {
    /// Issuer organization.
    pub org: String,
    /// Certificates issued in the period.
    pub count: u64,
    /// Share of the period's issuance (%).
    pub pct: f64,
}

/// Table 1: per-period top issuers plus the "Other CAs" remainder.
#[derive(Debug, Clone, Default)]
pub struct PeriodTable {
    /// Period → (top rows, other-count, other-pct, total).
    pub periods: BTreeMap<Period, (Vec<PeriodRow>, u64, f64, u64)>,
}

/// The complete issuance analysis over one certificate dataset.
#[derive(Debug, Clone)]
pub struct CaIssuanceAnalysis {
    /// Per-day, per-org issuance counts.
    per_day: BTreeMap<Date, BTreeMap<String, u64>>,
}

impl CaIssuanceAnalysis {
    /// Build from an indexed dataset.
    pub fn new(ds: &CertDataset) -> Self {
        let mut per_day: BTreeMap<Date, BTreeMap<String, u64>> = BTreeMap::new();
        let certs = ds.certs();
        for r in &ds.records {
            let orgs = per_day.entry(r.date).or_default();
            let org = certs.get(r.cert).issuer_org();
            // Probe by `&str` first: the key is allocated once per
            // organization and day, not once per certificate.
            match orgs.get_mut(org) {
                Some(n) => *n += 1,
                None => {
                    orgs.insert(org.to_owned(), 1);
                }
            }
        }
        CaIssuanceAnalysis { per_day }
    }

    /// Total issuance per organization across the window.
    pub fn totals(&self) -> BTreeMap<String, u64> {
        let mut out: BTreeMap<String, u64> = BTreeMap::new();
        for m in self.per_day.values() {
            for (org, n) in m {
                *out.entry(org.clone()).or_default() += n;
            }
        }
        out
    }

    /// The top `n` organizations by total issuance.
    pub fn top_orgs(&self, n: usize) -> Vec<String> {
        let totals = self.totals();
        let mut v: Vec<(String, u64)> = totals.into_iter().collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v.into_iter().take(n).map(|(o, _)| o).collect()
    }

    /// Figure 8's timeline structure for the top `n` CAs.
    pub fn timeline(&self, n: usize) -> IssuanceTimeline {
        let top: BTreeSet<String> = self.top_orgs(n).into_iter().collect();
        let mut days: BTreeMap<String, BTreeSet<Date>> = BTreeMap::new();
        for (date, m) in &self.per_day {
            for org in m.keys() {
                if top.contains(org) {
                    days.entry(org.clone()).or_default().insert(*date);
                }
            }
        }
        IssuanceTimeline { days }
    }

    /// Mean certificates per day within `[from, to]` (§4's 130 k / 115 k
    /// per-day numbers).
    pub fn daily_volume(&self, from: Date, to: Date) -> f64 {
        let days = (to - from + 1).max(1) as f64;
        let total: u64 = self
            .per_day
            .range(from..=to)
            .map(|(_, m)| m.values().sum::<u64>())
            .sum();
        total as f64 / days
    }

    /// Mean certificates per day for one organization within `[from, to]`.
    pub fn daily_volume_for(&self, org: &str, from: Date, to: Date) -> f64 {
        let days = (to - from + 1).max(1) as f64;
        let total: u64 = self
            .per_day
            .range(from..=to)
            .map(|(_, m)| m.get(org).copied().unwrap_or(0))
            .sum();
        total as f64 / days
    }

    /// Whether `org` has *effectively* stopped issuing by `horizon`: its
    /// rate over the final 30 days is under 10 % of its pre-conflict rate.
    ///
    /// A plain "no issuance in the last week" test misclassifies two
    /// cases the paper discusses: stopped CAs whose lesser-known brands
    /// leak isolated certificates (DigiCert's RapidSSL/GeoTrust dots in
    /// Figure 8), and small continuing CAs that issue sparsely.
    pub fn effectively_stopped(&self, org: &str, horizon: Date) -> bool {
        let pre = self.daily_volume_for(
            org,
            ruwhere_types::CERT_WINDOW_START,
            ruwhere_types::CONFLICT_START.pred(),
        );
        let recent = self.daily_volume_for(org, horizon.add_days(-29), horizon);
        if pre <= 0.0 {
            // Never issued pre-conflict: judge on recent activity alone.
            return recent <= 0.0;
        }
        recent < 0.10 * pre
    }

    /// Table 1: top `top_n` issuers per period.
    pub fn period_table(&self, top_n: usize) -> PeriodTable {
        let mut by_period: BTreeMap<Period, BTreeMap<String, u64>> = BTreeMap::new();
        for (date, m) in &self.per_day {
            let p = Period::of(*date);
            let entry = by_period.entry(p).or_default();
            for (org, n) in m {
                *entry.entry(org.clone()).or_default() += n;
            }
        }
        let mut table = PeriodTable::default();
        for (period, orgs) in by_period {
            let total: u64 = orgs.values().sum();
            let mut rows: Vec<(String, u64)> = orgs.into_iter().collect();
            rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            let top: Vec<PeriodRow> = rows
                .iter()
                .take(top_n)
                .map(|(org, n)| PeriodRow {
                    org: org.clone(),
                    count: *n,
                    pct: 100.0 * *n as f64 / total.max(1) as f64,
                })
                .collect();
            let other: u64 = rows.iter().skip(top_n).map(|(_, n)| n).sum();
            let other_pct = 100.0 * other as f64 / total.max(1) as f64;
            table.periods.insert(period, (top, other, other_pct, total));
        }
        table
    }
}

// Period needs Ord for BTreeMap keys; derive ordering chronologically.
// (ruwhere_types::Period already derives Ord.)

#[cfg(test)]
mod tests {
    use super::*;
    use ruwhere_ct::{CertificateAuthority, CtLog};
    use ruwhere_scan::MatchRule;
    use ruwhere_types::sync::write;
    use ruwhere_types::{Country, DomainName};

    fn dataset() -> CertDataset {
        let log = CtLog::new("t");
        let mut certs = write(log.store());
        let mut le = CertificateAuthority::new("Let's Encrypt", Country::US, &[], true, 90);
        let mut digicert = CertificateAuthority::new("DigiCert", Country::US, &[], true, 90);
        let name: DomainName = "x.ru".parse().unwrap();
        let mut issue = |ca: &mut CertificateAuthority, day, n| {
            for _ in 0..n {
                ca.issue(&mut certs, &name, &[], 0, day).unwrap();
            }
        };
        // Pre-conflict: LE dominates, DigiCert issues until Feb 20.
        for day in Date::from_ymd(2022, 1, 1).to(Date::from_ymd(2022, 2, 23)) {
            issue(&mut le, day, 9);
            if day <= Date::from_ymd(2022, 2, 20) {
                issue(&mut digicert, day, 1);
            }
        }
        // After: LE only, slightly lower volume.
        for day in Date::from_ymd(2022, 2, 24).to(Date::from_ymd(2022, 5, 15)) {
            issue(&mut le, day, 8);
        }
        drop(certs);
        let ds = CertDataset::from_log(
            &log,
            Date::from_ymd(2022, 1, 1),
            Date::from_ymd(2022, 5, 15),
            MatchRule::CnOrSan,
        );
        assert_eq!(ds.len(), 9 * 54 + 51 + 8 * 81);
        ds
    }

    #[test]
    fn totals_and_top() {
        let a = CaIssuanceAnalysis::new(&dataset());
        let totals = a.totals();
        assert!(totals["Let's Encrypt"] > totals["DigiCert"]);
        assert_eq!(a.top_orgs(1), vec!["Let's Encrypt".to_owned()]);
        assert_eq!(a.top_orgs(5).len(), 2);
    }

    #[test]
    fn timeline_stops() {
        let a = CaIssuanceAnalysis::new(&dataset());
        let t = a.timeline(10);
        assert!(t.issued_on("DigiCert", Date::from_ymd(2022, 2, 20)));
        assert!(!t.issued_on("DigiCert", Date::from_ymd(2022, 3, 1)));
        assert_eq!(
            t.last_issuance("DigiCert"),
            Some(Date::from_ymd(2022, 2, 20))
        );
        let horizon = Date::from_ymd(2022, 5, 15);
        assert!(t.stopped_by("DigiCert", horizon, 7));
        assert!(!t.stopped_by("Let's Encrypt", horizon, 7));
        assert!(t.stopped_by("NoSuchCA", horizon, 7));
    }

    #[test]
    fn period_table_shares() {
        let a = CaIssuanceAnalysis::new(&dataset());
        let table = a.period_table(3);
        let (rows, other, other_pct, total) = &table.periods[&Period::PreConflict];
        assert_eq!(rows[0].org, "Let's Encrypt");
        assert!(rows[0].pct > 85.0);
        assert_eq!(rows[1].org, "DigiCert");
        assert_eq!(*other, 0);
        assert_eq!(*other_pct, 0.0);
        assert_eq!(*total, 9 * 54 + 51);

        let (rows, _, _, _) = &table.periods[&Period::PostSanctions];
        assert_eq!(rows.len(), 1);
        assert!((rows[0].pct - 100.0).abs() < 1e-9);
    }

    #[test]
    fn daily_volume() {
        let a = CaIssuanceAnalysis::new(&dataset());
        let pre = a.daily_volume(Date::from_ymd(2022, 1, 1), Date::from_ymd(2022, 2, 23));
        let post = a.daily_volume(Date::from_ymd(2022, 2, 24), Date::from_ymd(2022, 5, 15));
        assert!(pre > 9.0 && pre < 10.5, "pre {pre}");
        assert!((post - 8.0).abs() < 0.01, "post {post}");
    }
}
