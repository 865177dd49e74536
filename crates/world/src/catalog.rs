//! The cast of the simulation: providers, DNS plans, and CAs, with their
//! market-share schedules.
//!
//! Every named actor from the paper appears here with its real ASN and
//! country. Market shares are piecewise-linear schedules over three anchor
//! points — study start, conflict start (2022-02-24), study end — chosen so
//! the *measured* composition trajectories land on the figures' reported
//! values. Unnamed tail providers ("RU hosting #7") fill the remaining
//! share so that totals are consistent.

use ruwhere_types::{Asn, Country, Date, Period, CONFLICT_START, STUDY_END, STUDY_START};

/// Index into the provider table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProviderId(pub u16);

/// Index into the DNS-plan table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PlanId(pub u16);

/// Index into the CA table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CaId(pub u16);

/// A network operator: hosts web servers and/or DNS servers in its ASN.
#[derive(Debug, Clone)]
pub struct ProviderSpec {
    /// Display name.
    pub name: &'static str,
    /// Autonomous system number (real ones for the named actors).
    pub asn: Asn,
    /// Country of operation — what IP2Location reports for its prefixes.
    pub country: Country,
}

/// A piecewise-linear market-share schedule over three anchors, with an
/// optional post-conflict hold: when `hold` is set, the share stays at its
/// conflict value until that date and only then moves toward `at_end` —
/// provider exoduses start on announcement dates (Sedo: 2022-03-09), not on
/// the invasion date.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShareSchedule {
    /// Share at study start (2017-06-18).
    pub at_start: f64,
    /// Share at conflict start (2022-02-24).
    pub at_conflict: f64,
    /// Share at study end (2022-05-25).
    pub at_end: f64,
    /// Optional date until which the conflict-time share holds.
    pub hold: Option<Date>,
    /// With `hold` set: jump straight to `at_end` after the hold date
    /// (a step event like the intra-Google relocation) instead of ramping.
    pub step: bool,
}

impl ShareSchedule {
    /// Constant share.
    pub const fn flat(v: f64) -> Self {
        ShareSchedule {
            at_start: v,
            at_conflict: v,
            at_end: v,
            hold: None,
            step: false,
        }
    }

    /// Three-anchor schedule without a hold.
    pub const fn new(at_start: f64, at_conflict: f64, at_end: f64) -> Self {
        ShareSchedule {
            at_start,
            at_conflict,
            at_end,
            hold: None,
            step: false,
        }
    }

    /// Attach a post-conflict hold date.
    #[must_use]
    pub const fn hold_until(mut self, date: Date) -> Self {
        self.hold = Some(date);
        self
    }

    /// Make the post-hold transition a step instead of a ramp.
    #[must_use]
    pub const fn as_step(mut self) -> Self {
        self.step = true;
        self
    }

    /// Interpolated share on `date` (clamped outside the window).
    pub fn at(&self, date: Date) -> f64 {
        let lerp = |a: f64, b: f64, lo: Date, hi: Date| {
            let span = (hi - lo).max(1) as f64;
            let t = ((date - lo) as f64 / span).clamp(0.0, 1.0);
            a + (b - a) * t
        };
        if date <= CONFLICT_START {
            return lerp(self.at_start, self.at_conflict, STUDY_START, CONFLICT_START);
        }
        match self.hold {
            // Exclusive: on the event day itself the new regime applies
            // (the intra-Google step must be in force when the 2022-03-16
            // rebalance runs).
            Some(h) if date < h => self.at_conflict,
            Some(_) if self.step => self.at_end,
            Some(h) => lerp(self.at_conflict, self.at_end, h, STUDY_END),
            None => lerp(self.at_conflict, self.at_end, CONFLICT_START, STUDY_END),
        }
    }
}

/// One name-server host in a DNS plan.
#[derive(Debug, Clone)]
pub struct NsHostSpec {
    /// Host name (its TLD drives the Figure 2/3 dependency analysis).
    pub host: &'static str,
    /// Operator at study start. The Netnod event re-homes specific hosts.
    pub operator: &'static str,
}

/// A managed DNS offering: a fixed NS set operated by one or two providers.
#[derive(Debug, Clone)]
pub struct DnsPlanSpec {
    /// Display name.
    pub name: &'static str,
    /// The NS hosts. Their operators' countries determine the Figure 1
    /// composition; their names' TLDs determine Figures 2 and 3.
    pub ns: Vec<NsHostSpec>,
    /// Share of the population on this plan over time.
    pub share: ShareSchedule,
}

/// A certificate authority with its market-share schedule and (optional)
/// issuance-stop date.
#[derive(Debug, Clone)]
pub struct CaSpec {
    /// Issuer Organization string.
    pub org: &'static str,
    /// Country.
    pub country: Country,
    /// Issuing brands (Common Names).
    pub brands: &'static [&'static str],
    /// Share of daily Russian-TLD issuance before the conflict.
    pub share_pre_conflict: f64,
    /// Share during pre-sanctions (2022-02-24 … 2022-03-26).
    pub share_pre_sanctions: f64,
    /// Share post-sanctions.
    pub share_post_sanctions: f64,
    /// Date the CA stopped issuing for Russian TLDs (None = continues).
    pub stop_date: Option<Date>,
    /// Background revocation rate over the analysis window (Table 2 column
    /// "Revoked" as a fraction of issued).
    pub background_revocation_rate: f64,
    /// Whether the CA revoked ALL of its sanctioned-domain certificates
    /// (DigiCert and Sectigo in Table 2).
    pub revokes_all_sanctioned: bool,
    /// Whether issuance is logged to CT.
    pub logs_to_ct: bool,
    /// Validity period in days.
    pub validity_days: u32,
}

impl CaSpec {
    /// Share of daily Russian-TLD issuance in `period`.
    pub fn share(&self, period: Period) -> f64 {
        match period {
            Period::PreConflict => self.share_pre_conflict,
            Period::PreSanctions => self.share_pre_sanctions,
            Period::PostSanctions => self.share_post_sanctions,
        }
    }
}

/// Number of exotic long-tail TLDs used by vanity NS names (the paper
/// observes 270 distinct NS TLDs; the named plans cover the top 5 plus
/// a handful, the tail comes from these).
pub const EXOTIC_TLD_COUNT: usize = 260;

/// Synthesized exotic TLD for index `i` (two/three-letter codes).
pub fn exotic_tld(i: usize) -> String {
    const ALPHA: &[u8] = b"abcdefghijklmnopqrstuvwxyz";
    let i = i % EXOTIC_TLD_COUNT;
    if i < 130 {
        // Two-letter pseudo-ccTLDs (base-26 encoding), skipping ru.
        let code = format!("{}{}", ALPHA[i / 26] as char, ALPHA[i % 26] as char);
        if code == "ru" {
            "zz".to_owned()
        } else {
            code
        }
    } else {
        // Three-letter gTLD-ish strings.
        let j = i - 130;
        format!("{}{}x", ALPHA[j % 26] as char, ALPHA[(j / 26) % 26] as char)
    }
}

/// Build the provider table. Indices are stable across runs (the world
/// refers to providers by [`ProviderId`] = table position).
pub fn providers() -> Vec<ProviderSpec> {
    let mut v = vec![
        // --- infrastructure (roots, TLD, scanner) ---
        ProviderSpec {
            name: "Root-Servers",
            asn: Asn(397196),
            country: Country::US,
        },
        ProviderSpec {
            name: "RIPN-TLD",
            asn: Asn(3267),
            country: Country::RU,
        },
        ProviderSpec {
            name: "OpenINTEL-Scanner",
            asn: Asn(1133),
            country: Country::NL,
        },
        // --- named Russian hosters (Figure 4's stable curves) ---
        ProviderSpec {
            name: "REG.RU",
            asn: Asn::REG_RU,
            country: Country::RU,
        },
        ProviderSpec {
            name: "RU-CENTER",
            asn: Asn::RU_CENTER,
            country: Country::RU,
        },
        ProviderSpec {
            name: "Timeweb",
            asn: Asn::TIMEWEB,
            country: Country::RU,
        },
        ProviderSpec {
            name: "Beget",
            asn: Asn::BEGET,
            country: Country::RU,
        },
        // --- named Western actors ---
        ProviderSpec {
            name: "Amazon",
            asn: Asn::AMAZON,
            country: Country::US,
        },
        ProviderSpec {
            name: "Sedo",
            asn: Asn::SEDO,
            country: Country::DE,
        },
        ProviderSpec {
            name: "Cloudflare",
            asn: Asn::CLOUDFLARE,
            country: Country::US,
        },
        ProviderSpec {
            name: "Google",
            asn: Asn::GOOGLE,
            country: Country::US,
        },
        ProviderSpec {
            name: "Google-Cloud",
            asn: Asn::GOOGLE_CLOUD,
            country: Country::US,
        },
        ProviderSpec {
            name: "Serverel",
            asn: Asn::SERVEREL,
            country: Country::NL,
        },
        ProviderSpec {
            name: "Hetzner",
            asn: Asn::HETZNER,
            country: Country::DE,
        },
        ProviderSpec {
            name: "Linode",
            asn: Asn::LINODE,
            country: Country::US,
        },
        ProviderSpec {
            name: "Netnod",
            asn: Asn::NETNOD,
            country: Country::SE,
        },
        ProviderSpec {
            name: "Yandex",
            asn: Asn(13238),
            country: Country::RU,
        },
        ProviderSpec {
            name: "GoDaddy",
            asn: Asn(26496),
            country: Country::US,
        },
        // Hosts of the three never-relocating sanctioned domains.
        ProviderSpec {
            name: "DE-Haven",
            asn: Asn(64610),
            country: Country::DE,
        },
        ProviderSpec {
            name: "CZ-Haven",
            asn: Asn(64611),
            country: Country::CZ,
        },
        ProviderSpec {
            name: "EE-Haven",
            asn: Asn(64612),
            country: Country::EE,
        },
        ProviderSpec {
            name: "PL-Host",
            asn: Asn(64613),
            country: Country::PL,
        },
    ];
    // Generic Russian hosting tail.
    for i in 0..12u16 {
        v.push(ProviderSpec {
            name: Box::leak(format!("RU hosting #{}", i + 1).into_boxed_str()),
            asn: Asn(65_000 + u32::from(i)),
            country: Country::RU,
        });
    }
    // Generic Western hosting tail.
    let western = [
        Country::DE,
        Country::US,
        Country::NL,
        Country::FR,
        Country::GB,
        Country::FI,
        Country::US,
        Country::CA,
    ];
    for (i, cc) in western.iter().enumerate() {
        v.push(ProviderSpec {
            name: Box::leak(format!("Western hosting #{}", i + 1).into_boxed_str()),
            asn: Asn(65_100 + i as u32),
            country: *cc,
        });
    }
    v
}

/// Well-known provider ids (positions in [`providers`]).
pub mod pid {
    use super::ProviderId;
    /// Root name-server operator.
    pub const ROOT: ProviderId = ProviderId(0);
    /// RIPN — operator of the `.ru`/`.рф` TLD servers.
    pub const RIPN: ProviderId = ProviderId(1);
    /// The measurement vantage (OpenINTEL-style scanner, NL).
    pub const SCANNER: ProviderId = ProviderId(2);
    /// REG.RU.
    pub const REG_RU: ProviderId = ProviderId(3);
    /// RU-CENTER.
    pub const RU_CENTER: ProviderId = ProviderId(4);
    /// Timeweb.
    pub const TIMEWEB: ProviderId = ProviderId(5);
    /// Beget.
    pub const BEGET: ProviderId = ProviderId(6);
    /// Amazon (AS16509).
    pub const AMAZON: ProviderId = ProviderId(7);
    /// Sedo (AS47846).
    pub const SEDO: ProviderId = ProviderId(8);
    /// Cloudflare (AS13335).
    pub const CLOUDFLARE: ProviderId = ProviderId(9);
    /// Google (AS15169).
    pub const GOOGLE: ProviderId = ProviderId(10);
    /// Google Cloud (AS396982).
    pub const GOOGLE_CLOUD: ProviderId = ProviderId(11);
    /// Serverel (NL).
    pub const SERVEREL: ProviderId = ProviderId(12);
    /// Hetzner (DE).
    pub const HETZNER: ProviderId = ProviderId(13);
    /// Linode (US).
    pub const LINODE: ProviderId = ProviderId(14);
    /// Netnod (SE).
    pub const NETNOD: ProviderId = ProviderId(15);
    /// Yandex.
    pub const YANDEX: ProviderId = ProviderId(16);
    /// GoDaddy.
    pub const GODADDY: ProviderId = ProviderId(17);
    /// German haven hosting one never-relocating sanctioned domain.
    pub const DE_HAVEN: ProviderId = ProviderId(18);
    /// Czech haven.
    pub const CZ_HAVEN: ProviderId = ProviderId(19);
    /// Estonian haven.
    pub const EE_HAVEN: ProviderId = ProviderId(20);
    /// Polish host (two sanctioned domains start here, repatriate later).
    pub const PL_HOST: ProviderId = ProviderId(21);
    /// First generic Russian hoster.
    pub const RU_GENERIC_BASE: u16 = 22;
    /// Number of generic Russian hosters.
    pub const RU_GENERIC_COUNT: u16 = 12;
    /// First generic Western hoster.
    pub const WESTERN_GENERIC_BASE: u16 = 34;
    /// Number of generic Western hosters.
    pub const WESTERN_GENERIC_COUNT: u16 = 8;
}

fn ns(host: &'static str, operator: &'static str) -> NsHostSpec {
    NsHostSpec { host, operator }
}

/// Build the managed DNS-plan table.
///
/// Group totals (start → conflict): fully-Russian NS 67.0 % stable; partial
/// 16.5 %; non-Russian 16.5 % — then the conflict-era shifts that Figure 1
/// reports. TLD usage trends (Figure 3) are encoded in the NS host names.
pub fn dns_plans() -> Vec<DnsPlanSpec> {
    vec![
        // ---- fully-Russian NS locations (62.0 % managed at start; vanity
        // ---- .ru NS adds 5 % for the paper's 67.0 %) ----
        DnsPlanSpec {
            name: "REG.RU DNS",
            ns: vec![ns("ns1.reg.ru", "REG.RU"), ns("ns2.reg.ru", "REG.RU")],
            share: ShareSchedule::new(0.150, 0.148, 0.170),
        },
        DnsPlanSpec {
            name: "RU-CENTER standard",
            ns: vec![ns("ns1.nic.ru", "RU-CENTER"), ns("ns2.nic.ru", "RU-CENTER")],
            share: ShareSchedule::new(0.080, 0.078, 0.089),
        },
        DnsPlanSpec {
            name: "Timeweb DNS",
            ns: vec![
                ns("ns1.timeweb.ru", "Timeweb"),
                ns("ns2.timeweb.ru", "Timeweb"),
            ],
            share: ShareSchedule::new(0.075, 0.078, 0.080),
        },
        DnsPlanSpec {
            // Beget's mixed-TLD NS set: Russian IPs, but a .pro name —
            // fully-Russian in Figure 1, *partial* in Figure 2. Its growth
            // drives the .pro trend (8.8 % → 12.4 %).
            name: "Beget DNS",
            ns: vec![ns("ns1.beget.ru", "Beget"), ns("ns2.beget.pro", "Beget")],
            share: ShareSchedule::new(0.065, 0.095, 0.102),
        },
        DnsPlanSpec {
            // Yandex: Russian IPs, .net names. Decline drives .net 9.1→7.3 %.
            name: "Yandex DNS",
            ns: vec![
                ns("dns1.yandex.net", "Yandex"),
                ns("dns2.yandex.net", "Yandex"),
            ],
            share: ShareSchedule::new(0.055, 0.046, 0.042),
        },
        DnsPlanSpec {
            name: "RU tail DNS (.ru)",
            ns: vec![
                ns("ns1.ruhost.ru", "RU hosting #1"),
                ns("ns2.ruhost.ru", "RU hosting #2"),
            ],
            share: ShareSchedule::new(0.145, 0.085, 0.040),
        },
        DnsPlanSpec {
            // Russian operator under .org names: the .org share's slight
            // growth (8.2 % → 9.2 %).
            name: "RU tail DNS (.org)",
            ns: vec![
                ns("ns1.rudns.org", "RU hosting #3"),
                ns("ns2.rudns.org", "RU hosting #4"),
            ],
            share: ShareSchedule::new(0.030, 0.035, 0.040),
        },
        DnsPlanSpec {
            // Russian operators adopting .com names over the years: part of
            // the .com rise (17.2 % → 24.7 %) — Russian *location*,
            // non-Russian *TLD dependency* (Figure 2's drift).
            name: "RU tail DNS (.com)",
            ns: vec![
                ns("ns1.rudns.com", "RU hosting #5"),
                ns("ns2.rudns2.com", "RU hosting #6"),
            ],
            share: ShareSchedule::new(0.020, 0.025, 0.046),
        },
        // ---- partially-Russian NS locations (16.5 % at start) ----
        DnsPlanSpec {
            // The Netnod story (§3.2): RU-CENTER's cloud NS hosts were
            // operated by Netnod (Sweden) until the 2022-03-03 IP
            // reconfiguration re-homed them to RU-CENTER. 76 k domains
            // (1.5 % of the population) flip partial→full that day.
            name: "RU-CENTER cloud (Netnod secondary)",
            ns: vec![
                ns("ns3-l2.nic.ru", "RU-CENTER"),
                ns("ns4-cloud.nic.ru", "Netnod"),
                ns("ns8-cloud.nic.ru", "Netnod"),
            ],
            share: ShareSchedule::flat(0.0152),
        },
        DnsPlanSpec {
            name: "RU primary + Hetzner secondary",
            ns: vec![
                ns("ns1.mixdns.ru", "RU hosting #7"),
                ns("helium.ns.hetzner.de", "Hetzner"),
            ],
            share: ShareSchedule::new(0.055, 0.050, 0.048).hold_until(Date::from_ymd(2022, 3, 25)),
        },
        DnsPlanSpec {
            name: "RU primary + Linode secondary",
            ns: vec![
                ns("ns2.mixdns.ru", "RU hosting #8"),
                ns("ns1.linode.com", "Linode"),
            ],
            share: ShareSchedule::new(0.030, 0.030, 0.027).hold_until(Date::from_ymd(2022, 3, 25)),
        },
        DnsPlanSpec {
            name: "RU primary + Western .net secondary",
            ns: vec![
                ns("ns1.mixdns2.ru", "RU hosting #9"),
                ns("backup1.westdns.net", "Western hosting #1"),
            ],
            share: ShareSchedule::new(0.035, 0.030, 0.022),
        },
        DnsPlanSpec {
            name: "RU primary + Western .org secondary",
            ns: vec![
                ns("ns3.mixdns2.ru", "RU hosting #10"),
                ns("backup2.westdns.org", "Western hosting #2"),
            ],
            share: ShareSchedule::new(0.030, 0.040, 0.038),
        },
        // ---- non-Russian NS locations (14.5 % managed at start; vanity
        // ---- exotic-TLD NS on non-RU hosting adds 2 % for 16.5 %) ----
        DnsPlanSpec {
            // Cloudflare: growth pre-conflict, stable after — "this network
            // sees little change since the conflict started" (§3.2).
            name: "Cloudflare DNS",
            ns: vec![
                ns("alla.ns.cloudflare.com", "Cloudflare"),
                ns("rudy.ns.cloudflare.com", "Cloudflare"),
            ],
            share: ShareSchedule::new(0.030, 0.048, 0.050),
        },
        DnsPlanSpec {
            name: "Amazon Route 53",
            ns: vec![
                ns("ns-1.awsdns-01.com", "Amazon"),
                ns("ns-2.awsdns-02.net", "Amazon"),
                ns("ns-3.awsdns-03.org", "Amazon"),
            ],
            share: ShareSchedule::new(0.020, 0.022, 0.018),
        },
        DnsPlanSpec {
            name: "GoDaddy DNS",
            ns: vec![
                ns("ns1.domaincontrol.com", "GoDaddy"),
                ns("ns2.domaincontrol.com", "GoDaddy"),
            ],
            share: ShareSchedule::new(0.022, 0.024, 0.020),
        },
        DnsPlanSpec {
            name: "Sedo parking NS",
            ns: vec![
                ns("ns1.sedoparking.com", "Sedo"),
                ns("ns2.sedoparking.com", "Sedo"),
            ],
            share: ShareSchedule::new(0.033, 0.033, 0.002).hold_until(Date::from_ymd(2022, 3, 9)),
        },
        DnsPlanSpec {
            name: "Google Cloud DNS",
            ns: vec![
                ns("ns-cloud-a1.googledomains.com", "Google"),
                ns("ns-cloud-a2.googledomains.com", "Google"),
            ],
            share: ShareSchedule::new(0.005, 0.006, 0.006),
        },
        DnsPlanSpec {
            name: "Western tail DNS",
            ns: vec![
                ns("ns1.eurodns-host.net", "Western hosting #3"),
                ns("ns2.eurodns-host.net", "Western hosting #4"),
            ],
            share: ShareSchedule::new(0.035, 0.012, 0.002),
        },
        DnsPlanSpec {
            // Where the Sedo parking portfolios land (§3.2): Serverel (NL).
            name: "Serverel parking NS",
            ns: vec![
                ns("ns1.serverelparking.com", "Serverel"),
                ns("ns2.serverelparking.com", "Serverel"),
            ],
            share: ShareSchedule::new(0.0, 0.0, 0.008).hold_until(Date::from_ymd(2022, 3, 9)),
        },
        DnsPlanSpec {
            // The strongest Figure 2 driver: Russian-located operators that
            // pair a .ru primary with a .com secondary — full-Russian in
            // location, *partial* in TLD dependency. Its growth supplies
            // the paper's +7.9-point partial-TLD rise.
            name: "RU tail DNS (.ru + .com mix)",
            ns: vec![
                ns("ns1.rumix.ru", "RU hosting #11"),
                ns("ns2.rumix-dns.com", "RU hosting #12"),
            ],
            share: ShareSchedule::new(0.0, 0.030, 0.065),
        },
    ]
}

/// Plan indices with special roles.
pub mod plan {
    /// Index of the RU-CENTER cloud plan (the Netnod event target).
    pub const NETNOD_CLOUD: usize = 8;
    /// Index of the Sedo parking plan.
    pub const SEDO_PARKING: usize = 16;
    /// Index of the Serverel parking plan (the Sedo exodus destination).
    pub const SERVEREL_PARKING: usize = 19;
    /// First fully-Russian-location plan (inclusive).
    pub const FULL_RU_RANGE: std::ops::Range<usize> = 0..8;
    /// Partially-Russian-location plans.
    pub const PARTIAL_RU_RANGE: std::ops::Range<usize> = 8..13;
    /// Non-Russian-location plans.
    pub const NON_RU_RANGE: std::ops::Range<usize> = 13..20;
    /// The appended fully-Russian-located, mixed-TLD plan (Figure 2 driver).
    pub const RU_COM_MIX: usize = 20;
}

/// Fraction of the population using vanity NS under the domain itself
/// (`ns1.<domain>.ru`) — fully-Russian in both location and TLD terms.
pub const VANITY_OWN_SHARE: f64 = 0.05;

/// Fraction using vanity NS under an exotic TLD (assigned to non-Russian
/// hosted domains; supplies the long tail of the paper's 270 NS TLDs).
pub const VANITY_EXOTIC_SHARE: f64 = 0.02;

/// Hosting-provider market shares (fraction of the population whose apex A
/// record resolves into each provider's ASN) — the Figure 4 calibration.
///
/// Named Russian hosters sum to ≈38.5 % ("together accounting for 38 % of
/// Russian domains at the start and 39 % at the end", §3.2); Cloudflare
/// holds ≈6.5 % throughout; Amazon and Sedo shed customers after their
/// March announcements, with Serverel (NL) absorbing the Sedo exodus.
pub fn hosting_shares() -> Vec<(ProviderId, ShareSchedule)> {
    let mar8 = Date::from_ymd(2022, 3, 8);
    let mar9 = Date::from_ymd(2022, 3, 9);
    let mar10 = Date::from_ymd(2022, 3, 10);
    let mar16 = Date::from_ymd(2022, 3, 16);
    let mut v = vec![
        (pid::REG_RU, ShareSchedule::new(0.140, 0.140, 0.142)),
        (pid::RU_CENTER, ShareSchedule::new(0.090, 0.090, 0.091)),
        (pid::TIMEWEB, ShareSchedule::new(0.080, 0.080, 0.081)),
        (pid::BEGET, ShareSchedule::new(0.075, 0.075, 0.076)),
        (pid::YANDEX, ShareSchedule::flat(0.020)),
        (pid::CLOUDFLARE, ShareSchedule::new(0.063, 0.063, 0.066)),
        // Amazon: 57 % of its 2022-03-08 set relocates by 2022-05-25.
        (
            pid::AMAZON,
            ShareSchedule::new(0.040, 0.040, 0.0175).hold_until(mar8),
        ),
        // Sedo: 98 % relocates after the 2022-03-09 plug pull.
        (
            pid::SEDO,
            ShareSchedule::new(0.033, 0.033, 0.0008).hold_until(mar9),
        ),
        (
            pid::GOOGLE,
            ShareSchedule::new(0.0035, 0.0035, 0.0014).hold_until(mar10),
        ),
        // Google-Cloud absorbs the intra-Google relocation of 2022-03-16
        // in a single step (footnote 11's "around March 16").
        (
            pid::GOOGLE_CLOUD,
            ShareSchedule::new(0.0, 0.0, 0.0016)
                .hold_until(mar16)
                .as_step(),
        ),
        // Serverel absorbs the bulk of the Sedo exodus.
        (
            pid::SERVEREL,
            ShareSchedule::new(0.0005, 0.0005, 0.0450).hold_until(mar9),
        ),
        (pid::HETZNER, ShareSchedule::new(0.020, 0.020, 0.018)),
        (pid::LINODE, ShareSchedule::new(0.010, 0.010, 0.009)),
        (pid::GODADDY, ShareSchedule::flat(0.010)),
    ];
    // Generic Russian tail: total Russian hosting 71.0 % at start; the
    // named Russian hosters above hold 40.5 %, the tail splits the rest.
    let ru_named: f64 = 0.140 + 0.090 + 0.080 + 0.075 + 0.020;
    let ru_tail_each = (0.710 - ru_named) / f64::from(pid::RU_GENERIC_COUNT);
    for i in 0..pid::RU_GENERIC_COUNT {
        v.push((
            ProviderId(pid::RU_GENERIC_BASE + i),
            ShareSchedule::new(ru_tail_each, ru_tail_each, ru_tail_each * 1.02),
        ));
    }
    // Generic Western tail: the remaining non-Russian share.
    let west_named: f64 = 0.063 + 0.040 + 0.033 + 0.0035 + 0.0 + 0.0005 + 0.020 + 0.010 + 0.010;
    let west_tail_each = (0.290 - west_named) / f64::from(pid::WESTERN_GENERIC_COUNT);
    for i in 0..pid::WESTERN_GENERIC_COUNT {
        v.push((
            ProviderId(pid::WESTERN_GENERIC_BASE + i),
            ShareSchedule::new(west_tail_each, west_tail_each, west_tail_each * 0.98),
        ));
    }
    v
}

/// Build the CA table, Figure 8's top ten plus the Russian Trusted Root CA.
///
/// Six of the ten stop issuing (paper §4.1): DigiCert, GoGetSSL, ZeroSSL,
/// Amazon, cPanel, Sectigo. Let's Encrypt, GlobalSign, Cloudflare and
/// Google continue.
pub fn cas() -> Vec<CaSpec> {
    vec![
        CaSpec {
            org: "Let's Encrypt",
            country: Country::US,
            brands: &["R3", "E1"],
            share_pre_conflict: 0.9158,
            share_pre_sanctions: 0.9806,
            share_post_sanctions: 0.9923,
            stop_date: None,
            background_revocation_rate: 0.0006,
            revokes_all_sanctioned: false,
            logs_to_ct: true,
            validity_days: 90,
        },
        CaSpec {
            org: "DigiCert",
            country: Country::US,
            brands: &["DigiCert TLS RSA", "RapidSSL", "GeoTrust"],
            share_pre_conflict: 0.0340,
            share_pre_sanctions: 0.0,
            share_post_sanctions: 0.0,
            // DigiCert's revocation of VTB's certificate and general halt.
            stop_date: Some(Date::from_ymd(2022, 2, 26)),
            background_revocation_rate: 0.0080,
            revokes_all_sanctioned: true,
            logs_to_ct: true,
            validity_days: 365,
        },
        CaSpec {
            org: "cPanel",
            country: Country::US,
            brands: &["cPanel, Inc. Certification Authority"],
            share_pre_conflict: 0.0213,
            share_pre_sanctions: 0.0034,
            share_post_sanctions: 0.0,
            stop_date: Some(Date::from_ymd(2022, 3, 24)),
            background_revocation_rate: 0.0015,
            revokes_all_sanctioned: false,
            logs_to_ct: true,
            validity_days: 90,
        },
        CaSpec {
            org: "Sectigo",
            country: Country::GB,
            brands: &["Sectigo RSA DV", "Sectigo ECC DV"],
            share_pre_conflict: 0.0090,
            share_pre_sanctions: 0.0,
            share_post_sanctions: 0.0,
            stop_date: Some(Date::from_ymd(2022, 3, 15)),
            background_revocation_rate: 0.0515,
            revokes_all_sanctioned: true,
            logs_to_ct: true,
            validity_days: 365,
        },
        CaSpec {
            org: "GlobalSign",
            country: Country::JP,
            brands: &["GlobalSign GCC R3 DV"],
            // RU-CENTER's recommended sanctions-safe CA (§1): share grows.
            share_pre_conflict: 0.0045,
            share_pre_sanctions: 0.0076,
            share_post_sanctions: 0.0052,
            stop_date: None,
            background_revocation_rate: 0.0168,
            revokes_all_sanctioned: false,
            logs_to_ct: true,
            validity_days: 365,
        },
        CaSpec {
            org: "GoGetSSL",
            country: Country::LV,
            brands: &["GoGetSSL RSA DV"],
            share_pre_conflict: 0.0055,
            share_pre_sanctions: 0.0,
            share_post_sanctions: 0.0,
            stop_date: Some(Date::from_ymd(2022, 3, 5)),
            background_revocation_rate: 0.0020,
            revokes_all_sanctioned: false,
            logs_to_ct: true,
            validity_days: 365,
        },
        CaSpec {
            org: "ZeroSSL",
            country: Country::AT,
            brands: &["ZeroSSL RSA Domain Secure Site CA"],
            share_pre_conflict: 0.0040,
            share_pre_sanctions: 0.0,
            share_post_sanctions: 0.0,
            stop_date: Some(Date::from_ymd(2022, 3, 10)),
            background_revocation_rate: 0.0030,
            revokes_all_sanctioned: false,
            logs_to_ct: true,
            validity_days: 90,
        },
        CaSpec {
            org: "Amazon",
            country: Country::US,
            brands: &["Amazon RSA 2048 M01"],
            share_pre_conflict: 0.0025,
            share_pre_sanctions: 0.0,
            share_post_sanctions: 0.0,
            stop_date: Some(Date::from_ymd(2022, 3, 8)),
            background_revocation_rate: 0.0010,
            revokes_all_sanctioned: false,
            logs_to_ct: true,
            validity_days: 365,
        },
        CaSpec {
            org: "Cloudflare",
            country: Country::US,
            brands: &["Cloudflare Inc ECC CA-3"],
            share_pre_conflict: 0.0022,
            share_pre_sanctions: 0.0040,
            share_post_sanctions: 0.0006,
            stop_date: None,
            background_revocation_rate: 0.0008,
            revokes_all_sanctioned: false,
            logs_to_ct: true,
            validity_days: 365,
        },
        CaSpec {
            org: "Google",
            country: Country::US,
            brands: &["GTS CA 1D4"],
            share_pre_conflict: 0.0012,
            share_pre_sanctions: 0.0044,
            share_post_sanctions: 0.0024,
            stop_date: None,
            background_revocation_rate: 0.0005,
            revokes_all_sanctioned: false,
            logs_to_ct: true,
            validity_days: 90,
        },
        CaSpec {
            // §4.3: state-run, not CT-logged, not browser-trusted.
            org: "Russian Trusted Root CA",
            country: Country::RU,
            brands: &["Russian Trusted Sub CA"],
            share_pre_conflict: 0.0,
            share_pre_sanctions: 0.0,
            share_post_sanctions: 0.0, // issuance modeled separately (§4.3)
            stop_date: None,
            background_revocation_rate: 0.0,
            revokes_all_sanctioned: false,
            logs_to_ct: false,
            validity_days: 365,
        },
    ]
}

/// CA indices with special roles.
pub mod ca {
    use super::CaId;
    /// Let's Encrypt.
    pub const LETS_ENCRYPT: CaId = CaId(0);
    /// DigiCert.
    pub const DIGICERT: CaId = CaId(1);
    /// cPanel.
    pub const CPANEL: CaId = CaId(2);
    /// Sectigo.
    pub const SECTIGO: CaId = CaId(3);
    /// GlobalSign.
    pub const GLOBALSIGN: CaId = CaId(4);
    /// GoGetSSL.
    pub const GOGETSSL: CaId = CaId(5);
    /// ZeroSSL.
    pub const ZEROSSL: CaId = CaId(6);
    /// Amazon.
    pub const AMAZON: CaId = CaId(7);
    /// Cloudflare.
    pub const CLOUDFLARE: CaId = CaId(8);
    /// Google Trust Services.
    pub const GOOGLE: CaId = CaId(9);
    /// The Russian Trusted Root CA.
    pub const RUSSIAN: CaId = CaId(10);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn provider_ids_line_up() {
        let p = providers();
        assert_eq!(p[pid::REG_RU.0 as usize].name, "REG.RU");
        assert_eq!(p[pid::AMAZON.0 as usize].asn, Asn::AMAZON);
        assert_eq!(p[pid::SEDO.0 as usize].asn, Asn::SEDO);
        assert_eq!(p[pid::NETNOD.0 as usize].country, Country::SE);
        assert_eq!(p[pid::GOOGLE_CLOUD.0 as usize].asn, Asn::GOOGLE_CLOUD);
        assert_eq!(
            p.len(),
            pid::WESTERN_GENERIC_BASE as usize + pid::WESTERN_GENERIC_COUNT as usize
        );
        // Unique ASNs.
        let mut asns: Vec<u32> = p.iter().map(|s| s.asn.value()).collect();
        asns.sort_unstable();
        asns.dedup();
        assert_eq!(asns.len(), p.len());
    }

    #[test]
    fn dns_plan_groups_sum_to_targets() {
        let plans = dns_plans();
        let sum = |range: std::ops::Range<usize>, f: fn(&ShareSchedule) -> f64| -> f64 {
            plans[range].iter().map(|p| f(&p.share)).sum()
        };
        // Managed plans leave 5 % for vanity .ru NS (fully-Russian) and 2 %
        // for exotic-TLD vanity NS (non-Russian): 62+5 = the paper's 67.0 %
        // full, 14.5+2 = 16.5 % non, 16.52 % partial.
        let full = |f: fn(&ShareSchedule) -> f64| {
            sum(plan::FULL_RU_RANGE, f) + f(&plans[plan::RU_COM_MIX].share)
        };
        assert!((full(|s| s.at_start) - 0.620).abs() < 1e-9);
        assert!((sum(plan::PARTIAL_RU_RANGE, |s| s.at_start) - 0.1652).abs() < 1e-9);
        assert!((sum(plan::NON_RU_RANGE, |s| s.at_start) - 0.145).abs() < 1e-9);
        // Composition is stable up to the conflict (§3.1).
        assert!((full(|s| s.at_conflict) - 0.620).abs() < 1e-9);
        assert!((sum(plan::PARTIAL_RU_RANGE, |s| s.at_conflict) - 0.1652).abs() < 1e-9);
        assert!((sum(plan::NON_RU_RANGE, |s| s.at_conflict) - 0.145).abs() < 1e-9);
        // Post-conflict: full grows (the 73.9 % endpoint — note the Netnod
        // plan is counted in the partial range here but is fully-Russian
        // *located* after 2022-03-03), non shrinks.
        assert!(full(|s| s.at_end) > 0.67);
        assert!(sum(plan::NON_RU_RANGE, |s| s.at_end) < 0.12);
        // Totals stay near 0.93 at each anchor (the remainder is vanity NS).
        let total_start: f64 = plans.iter().map(|p| p.share.at_start).sum();
        assert!(
            (total_start - 0.93).abs() < 0.001,
            "start total {total_start}"
        );
        let total_conflict: f64 = plans.iter().map(|p| p.share.at_conflict).sum();
        assert!(
            (total_conflict - 0.93).abs() < 0.001,
            "conflict total {total_conflict}"
        );
    }

    #[test]
    fn tld_dependency_drift_matches_figure2_magnitudes() {
        // Classify each plan by TLD composition and check the drift in
        // catalog space lands near the paper's −6.3 / +7.9 points.
        let plans = dns_plans();
        let is_ru_tld = |host: &str| host.ends_with(".ru") || host.ends_with(".xn--p1ai");
        let group_sum = |f: fn(&ShareSchedule) -> f64, want_full: bool| -> f64 {
            plans
                .iter()
                .filter(|p| {
                    let ru = p.ns.iter().filter(|h| is_ru_tld(h.host)).count();
                    let full_tld = ru == p.ns.len();
                    let partial_tld = ru > 0 && !full_tld;
                    if want_full {
                        full_tld
                    } else {
                        partial_tld
                    }
                })
                .map(|p| f(&p.share))
                .sum()
        };
        // Vanity-own NS (5 %) is full-TLD at both ends; constant, so it
        // cancels in the drift.
        let full_drift = group_sum(|s| s.at_end, true) - group_sum(|s| s.at_start, true);
        let partial_drift = group_sum(|s| s.at_end, false) - group_sum(|s| s.at_start, false);
        assert!(
            (-0.09..=-0.04).contains(&full_drift),
            "full-TLD drift {full_drift:.3} should be ≈ −0.063"
        );
        assert!(
            (0.05..=0.11).contains(&partial_drift),
            "partial-TLD drift {partial_drift:.3} should be ≈ +0.079"
        );
    }

    #[test]
    fn tld_trends_match_figure3() {
        // Aggregate NS-name TLD usage from the plan table at each anchor and
        // check the *directions* the paper reports: .com and .pro rise,
        // .net falls, .org rises slightly, .ru dominates throughout.
        let plans = dns_plans();
        let usage = |f: fn(&ShareSchedule) -> f64, tld: &str| -> f64 {
            plans
                .iter()
                .filter(|p| p.ns.iter().any(|h| h.host.ends_with(&format!(".{tld}"))))
                .map(|p| f(&p.share))
                .sum()
        };
        assert!(
            usage(|s| s.at_end, "com") > usage(|s| s.at_start, "com"),
            ".com must rise"
        );
        assert!(
            usage(|s| s.at_end, "pro") > usage(|s| s.at_start, "pro"),
            ".pro must rise"
        );
        assert!(
            usage(|s| s.at_end, "net") < usage(|s| s.at_start, "net"),
            ".net must fall"
        );
        assert!(
            usage(|s| s.at_end, "org") > usage(|s| s.at_start, "org"),
            ".org must rise"
        );
        assert!(usage(|s| s.at_end, "ru") > 0.5, ".ru stays dominant");
    }

    #[test]
    fn netnod_plan_is_where_expected() {
        let plans = dns_plans();
        let p = &plans[plan::NETNOD_CLOUD];
        assert!(p.name.contains("Netnod"));
        assert_eq!(p.ns.iter().filter(|h| h.operator == "Netnod").count(), 2);
        assert_eq!(plans[plan::SEDO_PARKING].name, "Sedo parking NS");
        assert_eq!(plans[plan::SERVEREL_PARKING].name, "Serverel parking NS");
        assert_eq!(plans[plan::RU_COM_MIX].name, "RU tail DNS (.ru + .com mix)");
        assert_eq!(plans.len(), plan::RU_COM_MIX + 1);
    }

    #[test]
    fn share_schedule_interpolates() {
        let s = ShareSchedule::new(0.10, 0.20, 0.40);
        assert!((s.at(STUDY_START) - 0.10).abs() < 1e-12);
        assert!((s.at(CONFLICT_START) - 0.20).abs() < 1e-12);
        assert!((s.at(STUDY_END) - 0.40).abs() < 1e-12);
        let mid = s.at(Date::from_ymd(2019, 10, 22));
        assert!(mid > 0.10 && mid < 0.20);
        // Clamped outside.
        assert!((s.at(Date::from_ymd(2016, 1, 1)) - 0.10).abs() < 1e-12);
        assert!((s.at(Date::from_ymd(2023, 1, 1)) - 0.40).abs() < 1e-12);
    }

    #[test]
    fn ca_table_matches_paper_shape() {
        let table = cas();
        assert_eq!(table.len(), 11);
        let stopped = table.iter().filter(|c| c.stop_date.is_some()).count();
        assert_eq!(stopped, 6, "six of the top ten stop issuing");
        let le = &table[ca::LETS_ENCRYPT.0 as usize];
        assert_eq!(le.org, "Let's Encrypt");
        assert!(le.share_post_sanctions > 0.99);
        assert!(table[ca::DIGICERT.0 as usize].revokes_all_sanctioned);
        assert!(table[ca::SECTIGO.0 as usize].revokes_all_sanctioned);
        assert!(!table[ca::RUSSIAN.0 as usize].logs_to_ct);
        // Pre-conflict shares sum to ~97.1% (the paper's "Other CAs" 2.89%).
        let sum: f64 = table.iter().map(|c| c.share_pre_conflict).sum();
        assert!((0.95..=1.0).contains(&sum), "pre-conflict share sum {sum}");
    }

    #[test]
    fn exotic_tlds_are_distinct_enough() {
        let mut set = std::collections::HashSet::new();
        for i in 0..EXOTIC_TLD_COUNT {
            let t = exotic_tld(i);
            assert!(t.len() == 2 || t.len() == 3);
            assert_ne!(t, "ru");
            set.insert(t);
        }
        // A synthetic scheme may collide occasionally; we need a wide tail,
        // not perfection (the paper has 270 TLDs, we need ~200+ distinct).
        assert!(set.len() > 150, "only {} distinct exotic TLDs", set.len());
    }
}
