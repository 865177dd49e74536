//! Domain movement between two measurement dates for one hosting network
//! (Figures 6 and 7; §3.4 Cloudflare/Google text).
//!
//! Given two sweeps and a subject ASN, classify:
//!
//! * domains in the ASN on date A: **remained** / **relocated** (with
//!   destination ASNs) / **gone** (no longer resolving or registered);
//! * domains in the ASN on date B but not on date A: **relocated in**
//!   (existed on date A elsewhere) vs **newly registered** (absent from
//!   the date-A seed set — the paper confirmed registration dates with
//!   Cisco's Whois API; our registry data plays that role).

use ruwhere_store::{Interner, SweepFrame, Sym};
use ruwhere_types::{Asn, DomainName};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};

/// Where a domain that left went.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Movement {
    /// Still in the subject ASN on date B.
    Remained,
    /// Resolving into different ASN(s) on date B.
    RelocatedTo(Vec<Asn>),
    /// Present on date B but without usable A records.
    Unresolved,
    /// No longer in the date-B dataset at all (lapsed/suspended).
    Gone,
}

/// The full movement report between two sweeps for one ASN.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct MovementReport {
    /// The subject network.
    pub asn: Asn,
    /// Domains in the ASN on date A, with their outcomes.
    pub outcomes: BTreeMap<DomainName, Movement>,
    /// Arrivals on date B that existed (elsewhere) on date A.
    pub relocated_in: Vec<DomainName>,
    /// Arrivals on date B that were not in the date-A dataset.
    pub newly_registered: Vec<DomainName>,
}

impl MovementReport {
    /// Analyze movement for `asn` between frames `a` (earlier) and `b`
    /// (later), both built by `interner`.
    ///
    /// The whole comparison runs on `u32` symbols; domain names are only
    /// materialised (an `Arc` bump each) for the entries that make it into
    /// the report.
    pub fn analyze_frames(a: &SweepFrame, b: &SweepFrame, asn: Asn, interner: &Interner) -> Self {
        let snap = interner.snapshot();
        let asns_of = |frame: &SweepFrame| -> HashMap<Sym, Vec<Asn>> {
            frame
                .records()
                .map(|rec| {
                    let mut asns: Vec<Asn> =
                        rec.apex_addrs().asns().iter().filter_map(|x| *x).collect();
                    asns.sort_unstable();
                    asns.dedup();
                    (rec.domain_sym(), asns)
                })
                .collect()
        };
        let map_a = asns_of(a);
        let map_b = asns_of(b);

        let mut outcomes = BTreeMap::new();
        for (&sym, asns) in &map_a {
            if !asns.contains(&asn) {
                continue;
            }
            let outcome = match map_b.get(&sym) {
                None => Movement::Gone,
                Some(asns_b) if asns_b.contains(&asn) => Movement::Remained,
                Some(asns_b) if asns_b.is_empty() => Movement::Unresolved,
                Some(asns_b) => Movement::RelocatedTo(asns_b.clone()),
            };
            outcomes.insert(snap.name(sym).clone(), outcome);
        }

        let mut relocated_in = Vec::new();
        let mut newly_registered = Vec::new();
        for (&sym, asns_b) in &map_b {
            if !asns_b.contains(&asn) {
                continue;
            }
            match map_a.get(&sym) {
                // In the ASN on date A too: already classified above.
                Some(asns_a) if asns_a.contains(&asn) => {}
                Some(_) => relocated_in.push(snap.name(sym).clone()),
                None => newly_registered.push(snap.name(sym).clone()),
            }
        }
        relocated_in.sort();
        newly_registered.sort();

        MovementReport {
            asn,
            outcomes,
            relocated_in,
            newly_registered,
        }
    }

    /// Count of domains in the ASN on date A.
    pub fn original(&self) -> usize {
        self.outcomes.len()
    }

    /// Count that remained.
    pub fn remained(&self) -> usize {
        self.outcomes
            .values()
            .filter(|m| matches!(m, Movement::Remained))
            .count()
    }

    /// Count that relocated to a different ASN.
    pub fn relocated(&self) -> usize {
        self.outcomes
            .values()
            .filter(|m| matches!(m, Movement::RelocatedTo(_)))
            .count()
    }

    /// Count gone or unresolved.
    pub fn lost(&self) -> usize {
        self.outcomes
            .values()
            .filter(|m| matches!(m, Movement::Gone | Movement::Unresolved))
            .count()
    }

    /// Destination ASN histogram for relocated domains.
    pub fn destinations(&self) -> BTreeMap<Asn, usize> {
        let mut hist = BTreeMap::new();
        for m in self.outcomes.values() {
            if let Movement::RelocatedTo(asns) = m {
                for a in asns {
                    *hist.entry(*a).or_default() += 1;
                }
            }
        }
        hist
    }

    /// Fraction (0-1) of relocated domains whose destinations include
    /// `asn` — e.g. the intra-Google share of footnote 11.
    pub fn relocated_share_to(&self, asn: Asn) -> f64 {
        let relocated = self.relocated();
        if relocated == 0 {
            return 0.0;
        }
        let to = self
            .outcomes
            .values()
            .filter(|m| matches!(m, Movement::RelocatedTo(v) if v.contains(&asn)))
            .count();
        to as f64 / relocated as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruwhere_store::{FrameFixture, SweepStats};
    use ruwhere_types::Date;
    use std::net::Ipv4Addr;

    /// One frame of `(domain, apex ASNs)` records.
    fn sweep(interner: &Interner, recs: &[(&str, &[u32])]) -> SweepFrame {
        let mut f = FrameFixture::new(Date::from_ymd(2022, 3, 8), interner);
        for (domain, asns) in recs {
            f.domain(domain);
            for (i, a) in asns.iter().enumerate() {
                f.apex_addr(Ipv4Addr::new(10, 9, 0, i as u8 + 1), None, Some(Asn(*a)));
            }
        }
        f.finish(SweepStats::default())
    }

    #[test]
    fn full_classification() {
        let i = Interner::new();
        let a = sweep(
            &i,
            &[
                ("stay.ru", &[16509]),
                ("move.ru", &[16509]),
                ("die.ru", &[16509]),
                ("dark.ru", &[16509]),
                ("other.ru", &[13335]),
            ],
        );
        let b = sweep(
            &i,
            &[
                ("stay.ru", &[16509]),
                ("move.ru", &[29802]),
                ("dark.ru", &[]),
                ("other.ru", &[16509]),   // relocated in
                ("freshie.ru", &[16509]), // newly registered
            ],
        );
        let report = MovementReport::analyze_frames(&a, &b, Asn(16509), &i);
        assert_eq!(report.original(), 4);
        assert_eq!(report.remained(), 1);
        assert_eq!(report.relocated(), 1);
        assert_eq!(report.lost(), 2);
        assert_eq!(report.relocated_in, vec!["other.ru".parse().unwrap()]);
        assert_eq!(report.newly_registered, vec!["freshie.ru".parse().unwrap()]);
        assert_eq!(report.destinations().get(&Asn(29802)), Some(&1));
        assert_eq!(
            report.outcomes.get(&"die.ru".parse().unwrap()),
            Some(&Movement::Gone)
        );
        assert_eq!(
            report.outcomes.get(&"dark.ru".parse().unwrap()),
            Some(&Movement::Unresolved)
        );
    }

    #[test]
    fn split_hosted_remainer() {
        let i = Interner::new();
        // A domain adding a second provider but keeping the subject ASN
        // counts as remained.
        let a = sweep(&i, &[("x.ru", &[16509])]);
        let b = sweep(&i, &[("x.ru", &[16509, 29802])]);
        let report = MovementReport::analyze_frames(&a, &b, Asn(16509), &i);
        assert_eq!(report.remained(), 1);
        assert_eq!(report.relocated(), 0);
    }

    #[test]
    fn intra_provider_share() {
        let i = Interner::new();
        let a = sweep(
            &i,
            &[
                ("g1.ru", &[15169]),
                ("g2.ru", &[15169]),
                ("g3.ru", &[15169]),
                ("g4.ru", &[15169]),
            ],
        );
        let b = sweep(
            &i,
            &[
                ("g1.ru", &[396982]),
                ("g2.ru", &[396982]),
                ("g3.ru", &[396982]),
                ("g4.ru", &[24940]),
            ],
        );
        let report = MovementReport::analyze_frames(&a, &b, Asn(15169), &i);
        assert_eq!(report.relocated(), 4);
        assert!((report.relocated_share_to(Asn(396982)) - 0.75).abs() < 1e-9);
    }

    #[test]
    fn empty_subject() {
        let i = Interner::new();
        let a = sweep(&i, &[("a.ru", &[1])]);
        let b = sweep(&i, &[("a.ru", &[1])]);
        let report = MovementReport::analyze_frames(&a, &b, Asn(999), &i);
        assert_eq!(report.original(), 0);
        assert_eq!(report.relocated_share_to(Asn(1)), 0.0);
    }
}
