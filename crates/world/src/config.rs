//! World configuration: scale, windows, cadences, behaviour rates.

use crate::timeline::ConflictEvent;
use ruwhere_types::{Date, STUDY_END, STUDY_START};

/// All knobs of the simulated ecosystem.
///
/// The defaults reproduce the paper at 1:100 scale. Tests use
/// [`WorldConfig::tiny`] to keep runtimes low.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Root seed for every stochastic choice.
    pub seed: u64,
    /// First simulated day.
    pub start: Date,
    /// Last simulated day.
    pub end: Date,
    /// Live `.ru` + `.рф` population at `start` (paper: just under 5 M).
    pub initial_population: usize,
    /// Fraction of the population under `.рф` (the rest is `.ru`).
    pub rf_fraction: f64,
    /// Net daily population growth rate (the black curve in Figure 1 climbs
    /// slightly over five years).
    pub daily_growth_rate: f64,
    /// Daily probability that a live domain lapses (churn; replaced by new
    /// registrations on top of growth).
    pub daily_churn_rate: f64,

    // --- DNS / hosting composition targets (§3.1) ---
    // NS composition targets (67.0 / 16.5 / 16.5 at start) live in the
    // plan-share schedules of `catalog::dns_plans`; the hosting fractions
    // below additionally drive vanity-NS and split-hosting sampling.
    /// Fraction of domains web-hosted fully in Russia at start (71.0 %).
    pub hosting_full_ru_at_start: f64,
    /// Fraction with split-country hosting at start (0.19 %).
    pub hosting_part_ru_at_start: f64,

    // --- certificates (§4) ---
    /// First day certificates are simulated (early enough that certificates
    /// whose validity ends after 2022-02-25 exist for Table 2).
    pub cert_start: Date,
    /// Mean certificates per day across all CAs before the conflict
    /// (paper: 130 k/day; 1.3 k at 1:100).
    pub certs_per_day: f64,
    /// Fraction of `certs_per_day` sustained after the conflict
    /// (paper: 115/130).
    pub cert_volume_conflict_factor: f64,

    // --- measurement artifacts ---
    /// Days between geolocation database snapshots (IP2Location refresh
    /// cadence; drives the footnote-5 lag for moved prefixes).
    pub geo_snapshot_interval_days: u32,
    /// Extra days of lag before a topology change reaches a geo snapshot.
    pub geo_snapshot_lag_days: u32,

    /// Number of sanctioned domains (paper: 107, kept unscaled).
    pub sanctioned_count: usize,
    /// Number of Russian-affiliated sites under non-RU TLDs that pick up
    /// Russian Trusted Root CA certificates (§4.3's "long tail of other
    /// TLDs"; paper: 170 total certs − 132 on `.ru`/`.рф`).
    pub extra_russian_sites: usize,
    /// Ablation (paper footnote 5): model the 2022-03-03 Netnod event as a
    /// *prefix move* (the Netnod-operated address block is re-announced by
    /// RU-CENTER's ASN, addresses unchanged) instead of the default *IP
    /// reconfiguration* (hosts get new Russian addresses). With a prefix
    /// move, geolocation "lags behind" until the next IP2Location snapshot
    /// — reproducing the measurement artifact the paper cautions about.
    pub netnod_prefix_move: bool,
    /// Additional dated events merged into the paper timeline — the
    /// injection point for ablations and fault-robustness experiments
    /// (e.g. an [`ConflictEvent::InfrastructureFault`] inside a test
    /// window). Paper events stay fixed; this only adds.
    pub extra_events: Vec<(Date, ConflictEvent)>,
}

impl WorldConfig {
    /// Paper-shaped configuration at the given scale denominator
    /// (`100` ⇒ 1:100 ⇒ ≈50 k live names).
    pub fn paper_scale(denominator: usize) -> Self {
        let d = denominator.max(1) as f64;
        WorldConfig {
            seed: 0x52_55_57_48, // "RUWH"
            start: STUDY_START,
            end: STUDY_END,
            initial_population: (4_950_000.0 / d) as usize,
            rf_fraction: 0.13,
            daily_growth_rate: 0.000055, // ≈ +10 % over 1803 days
            daily_churn_rate: 0.00075,   // drives ~11.7 M unique names over the window
            hosting_full_ru_at_start: 0.710,
            hosting_part_ru_at_start: 0.0019,
            cert_start: Date::from_ymd(2021, 11, 1),
            certs_per_day: 130_000.0 / d,
            cert_volume_conflict_factor: 115.0 / 130.0,
            geo_snapshot_interval_days: 14,
            geo_snapshot_lag_days: 3,
            sanctioned_count: 107,
            extra_russian_sites: 38,
            netnod_prefix_move: false,
            extra_events: Vec::new(),
        }
    }

    /// Default 1:100 paper configuration.
    pub fn paper() -> Self {
        Self::paper_scale(100)
    }

    /// A small, fast configuration for unit/integration tests: a few
    /// hundred domains over a window focused on the conflict.
    pub fn tiny() -> Self {
        let mut c = Self::paper_scale(10_000); // ~495 domains
        c.start = Date::from_ymd(2022, 1, 1);
        c.end = Date::from_ymd(2022, 5, 25);
        c.cert_start = Date::from_ymd(2021, 12, 1);
        c.sanctioned_count = 20;
        c.extra_russian_sites = 6;
        c
    }

    /// Number of simulated days (inclusive).
    pub fn days(&self) -> usize {
        (self.end - self.start + 1).max(0) as usize
    }
}

impl Default for WorldConfig {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_hit_targets() {
        let c = WorldConfig::paper();
        assert_eq!(c.initial_population, 49_500);
        assert_eq!(c.days(), 1803);
        assert!((c.certs_per_day - 1300.0).abs() < 1.0);
        assert_eq!(c.sanctioned_count, 107);
    }

    #[test]
    fn tiny_is_small() {
        let c = WorldConfig::tiny();
        assert!(c.initial_population < 1000);
        assert!(c.days() < 200);
    }

    #[test]
    fn scale_is_monotone() {
        assert!(
            WorldConfig::paper_scale(50).initial_population
                > WorldConfig::paper_scale(100).initial_population
        );
        // Degenerate scale clamps instead of dividing by zero.
        assert!(WorldConfig::paper_scale(0).initial_population > 0);
    }
}
