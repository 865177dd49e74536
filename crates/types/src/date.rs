//! Civil (proleptic Gregorian) date arithmetic without external crates.
//!
//! Internally a [`Date`] is a day count since 1970-01-01 (the Unix epoch),
//! using Howard Hinnant's `days_from_civil` algorithm, which is exact over
//! the full `i32` year range. All simulation time in the workspace is
//! expressed in whole days; sub-day timing lives in `ruwhere-netsim`.

use std::fmt;
use std::str::FromStr;

/// First day of the paper's study window (June 18, 2017).
pub const STUDY_START: Date = Date::from_ymd(2017, 6, 18);
/// Last day of the paper's study window (May 25, 2022): 1803 days total.
pub const STUDY_END: Date = Date::from_ymd(2022, 5, 25);

/// A civil date, stored as days since 1970-01-01.
///
/// ```
/// use ruwhere_types::Date;
/// let d = Date::from_ymd(2022, 2, 24);
/// assert_eq!(d.to_string(), "2022-02-24");
/// assert_eq!(d.succ().to_string(), "2022-02-25");
/// assert_eq!(Date::from_ymd(2022, 3, 1) - Date::from_ymd(2022, 2, 24), 5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Date(i32);

impl Date {
    /// Construct from a year / month (1-12) / day (1-31) triple.
    ///
    /// `const` so the paper's milestone dates can be compile-time constants.
    /// Out-of-range months or days are not validated here (the function is
    /// total, following Hinnant's algorithm); use [`Date::new`] for a
    /// validating constructor.
    pub const fn from_ymd(y: i32, m: u32, d: u32) -> Self {
        let y = if m <= 2 { y - 1 } else { y };
        let era = if y >= 0 { y } else { y - 399 } / 400;
        let yoe = (y - era * 400) as i64; // [0, 399]
        let mp = ((m as i64) + 9) % 12; // [0, 11], Mar=0
        let doy = (153 * mp + 2) / 5 + (d as i64) - 1; // [0, 365]
        let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
        Date((era as i64 * 146097 + doe - 719468) as i32)
    }

    /// Validating constructor; returns `None` for nonexistent dates such as
    /// February 30.
    pub fn new(y: i32, m: u32, d: u32) -> Option<Self> {
        if !(1..=12).contains(&m) || d < 1 || d > days_in_month(y, m) {
            return None;
        }
        Some(Self::from_ymd(y, m, d))
    }

    /// Construct directly from a day count since 1970-01-01.
    pub const fn from_days(days: i32) -> Self {
        Date(days)
    }

    /// Day count since 1970-01-01.
    pub const fn days_since_epoch(self) -> i32 {
        self.0
    }

    /// Decompose into `(year, month, day)`.
    pub const fn ymd(self) -> (i32, u32, u32) {
        let z = self.0 as i64 + 719468;
        let era = if z >= 0 { z } else { z - 146096 } / 146097;
        let doe = z - era * 146097; // [0, 146096]
        let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365; // [0, 399]
        let y = yoe + era * 400;
        let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
        let mp = (5 * doy + 2) / 153; // [0, 11]
        let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
        let m = (if mp < 10 { mp + 3 } else { mp - 9 }) as u32; // [1, 12]
        ((if m <= 2 { y + 1 } else { y }) as i32, m, d)
    }

    /// Calendar year.
    pub const fn year(self) -> i32 {
        self.ymd().0
    }

    /// Calendar month, 1-12.
    pub const fn month(self) -> u32 {
        self.ymd().1
    }

    /// Day of month, 1-31.
    pub const fn day(self) -> u32 {
        self.ymd().2
    }

    /// The next day.
    #[must_use]
    pub const fn succ(self) -> Self {
        Date(self.0 + 1)
    }

    /// The previous day.
    #[must_use]
    pub const fn pred(self) -> Self {
        Date(self.0 - 1)
    }

    /// This date shifted by `days` (may be negative).
    #[must_use]
    pub const fn add_days(self, days: i32) -> Self {
        Date(self.0 + days)
    }

    /// Inclusive range iterator `self ..= end`.
    pub fn to(self, end: Date) -> DateRange {
        DateRange { next: self, end }
    }

    /// Day of week, 0 = Monday … 6 = Sunday (ISO).
    pub const fn weekday(self) -> u32 {
        (self.0.rem_euclid(7) + 3) as u32 % 7
    }
}

impl std::ops::Sub for Date {
    type Output = i32;
    /// Signed number of days from `rhs` to `self`.
    fn sub(self, rhs: Date) -> i32 {
        self.0 - rhs.0
    }
}

impl fmt::Display for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (y, m, d) = self.ymd();
        write!(f, "{y:04}-{m:02}-{d:02}")
    }
}

/// Error parsing a `YYYY-MM-DD` string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DateParseError(pub String);

impl fmt::Display for DateParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid date {:?}, expected YYYY-MM-DD", self.0)
    }
}

impl std::error::Error for DateParseError {}

impl FromStr for Date {
    type Err = DateParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || DateParseError(s.to_owned());
        let mut it = s.split('-');
        let y: i32 = it.next().ok_or_else(err)?.parse().map_err(|_| err())?;
        let m: u32 = it.next().ok_or_else(err)?.parse().map_err(|_| err())?;
        let d: u32 = it.next().ok_or_else(err)?.parse().map_err(|_| err())?;
        if it.next().is_some() {
            return Err(err());
        }
        Date::new(y, m, d).ok_or_else(err)
    }
}

/// Whether `y` is a Gregorian leap year.
pub const fn is_leap_year(y: i32) -> bool {
    y % 4 == 0 && (y % 100 != 0 || y % 400 == 0)
}

/// Number of days in month `m` (1-12) of year `y`.
pub const fn days_in_month(y: i32, m: u32) -> u32 {
    match m {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if is_leap_year(y) {
                29
            } else {
                28
            }
        }
        _ => 0,
    }
}

/// Inclusive iterator over a range of dates, produced by [`Date::to`].
#[derive(Debug, Clone)]
pub struct DateRange {
    next: Date,
    end: Date,
}

impl Iterator for DateRange {
    type Item = Date;

    fn next(&mut self) -> Option<Date> {
        if self.next > self.end {
            None
        } else {
            let d = self.next;
            self.next = d.succ();
            Some(d)
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = (self.end - self.next + 1).max(0) as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for DateRange {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_day_zero() {
        assert_eq!(Date::from_ymd(1970, 1, 1).days_since_epoch(), 0);
    }

    #[test]
    fn known_day_counts() {
        assert_eq!(Date::from_ymd(2000, 3, 1).days_since_epoch(), 11017);
        assert_eq!(Date::from_ymd(2022, 2, 24).days_since_epoch(), 19047);
    }

    #[test]
    fn study_window_is_1803_days() {
        // The paper reports "a nearly five-year period (1803 days)".
        assert_eq!(STUDY_END - STUDY_START + 1, 1803);
    }

    #[test]
    fn roundtrip_ymd() {
        for days in -800_000..800_000 {
            let d = Date::from_days(days);
            let (y, m, dd) = d.ymd();
            assert_eq!(Date::from_ymd(y, m, dd), d, "roundtrip failed at {days}");
        }
    }

    #[test]
    fn display_and_parse() {
        let d = Date::from_ymd(2022, 3, 26);
        assert_eq!(d.to_string(), "2022-03-26");
        assert_eq!("2022-03-26".parse::<Date>().unwrap(), d);
        assert!("2022-02-30".parse::<Date>().is_err());
        assert!("2022-13-01".parse::<Date>().is_err());
        assert!("not-a-date".parse::<Date>().is_err());
        assert!("2022-03-26-01".parse::<Date>().is_err());
    }

    #[test]
    fn leap_years() {
        assert!(is_leap_year(2000));
        assert!(!is_leap_year(1900));
        assert!(is_leap_year(2020));
        assert!(!is_leap_year(2022));
        assert_eq!(days_in_month(2020, 2), 29);
        assert_eq!(days_in_month(2022, 2), 28);
        assert_eq!(days_in_month(2022, 13), 0);
    }

    #[test]
    fn weekday_known_values() {
        // 2022-02-24 was a Thursday (ISO weekday 3 when Monday = 0).
        assert_eq!(Date::from_ymd(2022, 2, 24).weekday(), 3);
        // 1970-01-01 was a Thursday.
        assert_eq!(Date::from_ymd(1970, 1, 1).weekday(), 3);
        // 2022-05-25 was a Wednesday.
        assert_eq!(Date::from_ymd(2022, 5, 25).weekday(), 2);
    }

    #[test]
    fn range_iteration() {
        let days: Vec<Date> = Date::from_ymd(2022, 2, 26)
            .to(Date::from_ymd(2022, 3, 2))
            .collect();
        assert_eq!(days.len(), 5);
        assert_eq!(days[0].to_string(), "2022-02-26");
        assert_eq!(days[3].to_string(), "2022-03-01");
        assert_eq!(days[4].to_string(), "2022-03-02");
        // Empty range.
        assert_eq!(
            Date::from_ymd(2022, 1, 2)
                .to(Date::from_ymd(2022, 1, 1))
                .count(),
            0
        );
    }

    #[test]
    fn exact_size_hint() {
        let r = STUDY_START.to(STUDY_END);
        assert_eq!(r.len(), 1803);
    }

    #[test]
    fn validating_constructor() {
        assert!(Date::new(2022, 2, 29).is_none());
        assert!(Date::new(2020, 2, 29).is_some());
        assert!(Date::new(2022, 0, 1).is_none());
        assert!(Date::new(2022, 6, 31).is_none());
    }
}
