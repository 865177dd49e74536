//! The paper's three analysis periods around the 2022 invasion.
//!
//! > "we divide recent months into three time periods: pre-conflict (before
//! > February 24, 2022), post-sanctions (after March 26, 2022), and
//! > pre-sanctions (the period in-between)." — §3.1

use crate::date::Date;
use std::fmt;

/// Start of the conflict: the invasion of Ukraine, 2022-02-24.
pub const CONFLICT_START: Date = Date::from_ymd(2022, 2, 24);
/// Sanctions considered in effect after 2022-03-26.
pub const SANCTIONS_EFFECT: Date = Date::from_ymd(2022, 3, 26);
/// Start of the certificate analysis window (§4.1), 2022-01-01.
pub const CERT_WINDOW_START: Date = Date::from_ymd(2022, 1, 1);
/// End of the certificate analysis window (§4.1), 2022-05-15.
pub const CERT_WINDOW_END: Date = Date::from_ymd(2022, 5, 15);

/// One of the paper's three phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Period {
    /// Before 2022-02-24.
    PreConflict,
    /// 2022-02-24 through 2022-03-26 (inclusive).
    PreSanctions,
    /// After 2022-03-26.
    PostSanctions,
}

impl Period {
    /// Classify a date into its period.
    ///
    /// ```
    /// use ruwhere_types::{Date, Period};
    /// assert_eq!(Period::of(Date::from_ymd(2022, 2, 23)), Period::PreConflict);
    /// assert_eq!(Period::of(Date::from_ymd(2022, 2, 24)), Period::PreSanctions);
    /// assert_eq!(Period::of(Date::from_ymd(2022, 3, 26)), Period::PreSanctions);
    /// assert_eq!(Period::of(Date::from_ymd(2022, 3, 27)), Period::PostSanctions);
    /// ```
    pub fn of(date: Date) -> Period {
        if date < CONFLICT_START {
            Period::PreConflict
        } else if date <= SANCTIONS_EFFECT {
            Period::PreSanctions
        } else {
            Period::PostSanctions
        }
    }

    /// All three periods in chronological order.
    pub const ALL: [Period; 3] = [
        Period::PreConflict,
        Period::PreSanctions,
        Period::PostSanctions,
    ];

    /// The period's bounds clipped to a window `[start, end]`, or `None` if
    /// the period does not intersect it.
    pub fn clip(self, start: Date, end: Date) -> Option<(Date, Date)> {
        let (lo, hi) = match self {
            Period::PreConflict => (Date::from_days(i32::MIN / 2), CONFLICT_START.pred()),
            Period::PreSanctions => (CONFLICT_START, SANCTIONS_EFFECT),
            Period::PostSanctions => (SANCTIONS_EFFECT.succ(), Date::from_days(i32::MAX / 2)),
        };
        let lo = lo.max(start);
        let hi = hi.min(end);
        (lo <= hi).then_some((lo, hi))
    }
}

impl fmt::Display for Period {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Period::PreConflict => "Pre-Conflict",
            Period::PreSanctions => "Pre-Sanctions",
            Period::PostSanctions => "Post-Sanctions",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundaries() {
        assert_eq!(Period::of(CONFLICT_START.pred()), Period::PreConflict);
        assert_eq!(Period::of(CONFLICT_START), Period::PreSanctions);
        assert_eq!(Period::of(SANCTIONS_EFFECT), Period::PreSanctions);
        assert_eq!(Period::of(SANCTIONS_EFFECT.succ()), Period::PostSanctions);
    }

    #[test]
    fn clip_to_cert_window() {
        // §4.1 analyzes certificates from 2022-01-01 to 2022-05-15.
        let (a, b) = Period::PreConflict
            .clip(CERT_WINDOW_START, CERT_WINDOW_END)
            .unwrap();
        assert_eq!(a, CERT_WINDOW_START);
        assert_eq!(b, Date::from_ymd(2022, 2, 23));

        let (a, b) = Period::PreSanctions
            .clip(CERT_WINDOW_START, CERT_WINDOW_END)
            .unwrap();
        assert_eq!(a, CONFLICT_START);
        assert_eq!(b, SANCTIONS_EFFECT);

        let (a, b) = Period::PostSanctions
            .clip(CERT_WINDOW_START, CERT_WINDOW_END)
            .unwrap();
        assert_eq!(a, Date::from_ymd(2022, 3, 27));
        assert_eq!(b, CERT_WINDOW_END);
    }

    #[test]
    fn clip_outside_window_is_none() {
        assert!(Period::PostSanctions
            .clip(Date::from_ymd(2021, 1, 1), Date::from_ymd(2021, 12, 31))
            .is_none());
        assert!(Period::PreConflict
            .clip(Date::from_ymd(2022, 4, 1), Date::from_ymd(2022, 5, 1))
            .is_none());
    }

    #[test]
    fn periods_partition_dates() {
        let days = Date::from_ymd(2022, 1, 1).to(Date::from_ymd(2022, 5, 15));
        let mut counts = [0usize; 3];
        for d in days {
            match Period::of(d) {
                Period::PreConflict => counts[0] += 1,
                Period::PreSanctions => counts[1] += 1,
                Period::PostSanctions => counts[2] += 1,
            }
        }
        assert_eq!(counts[0], 54); // Jan 1 .. Feb 23
        assert_eq!(counts[1], 31); // Feb 24 .. Mar 26
        assert_eq!(counts[2], 50); // Mar 27 .. May 15
        assert_eq!(counts.iter().sum::<usize>(), 135);
    }
}
