//! ISO 3166-1 alpha-2 country codes.
//!
//! Geolocation in the paper is country-granular (IP2Location); the analysis
//! only ever asks "is this address in the Russian Federation?", so a compact
//! two-byte code is all we need.

use std::fmt;
use std::str::FromStr;

/// An ISO 3166-1 alpha-2 country code (always stored uppercase).
///
/// ```
/// use ruwhere_types::Country;
/// let ru: Country = "ru".parse().unwrap();
/// assert_eq!(ru, Country::RU);
/// assert!(ru.is_russia());
/// assert_eq!(ru.to_string(), "RU");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Country([u8; 2]);

macro_rules! countries {
    ($($(#[$doc:meta])* $name:ident = $code:literal => $full:literal),+ $(,)?) => {
        impl Country {
            $(
                $(#[$doc])*
                pub const $name: Country = Country(*$code);
            )+

            /// Human-readable English name, if this is one of the countries
            /// the paper discusses; falls back to the raw code.
            pub fn name(self) -> &'static str {
                match self.0.as_ref() {
                    $($code => $full,)+
                    _ => "(other)",
                }
            }
        }
    };
}

countries! {
    /// Russian Federation.
    RU = b"RU" => "Russian Federation",
    /// United States.
    US = b"US" => "United States",
    /// Germany (Sedo, Hetzner).
    DE = b"DE" => "Germany",
    /// Netherlands (Serverel; also a flight destination per §3.1).
    NL = b"NL" => "Netherlands",
    /// Sweden (Netnod).
    SE = b"SE" => "Sweden",
    /// Czech Republic (one sanctioned domain remained hosted here).
    CZ = b"CZ" => "Czech Republic",
    /// Estonia (one sanctioned domain remained hosted here).
    EE = b"EE" => "Estonia",
    /// Poland (prior host of relocated sanctioned domains).
    PL = b"PL" => "Poland",
    /// United Kingdom (sanctions list source).
    GB = b"GB" => "United Kingdom",
    /// Japan (GlobalSign).
    JP = b"JP" => "Japan",
    /// France.
    FR = b"FR" => "France",
    /// Ukraine.
    UA = b"UA" => "Ukraine",
    /// Latvia (GoGetSSL).
    LV = b"LV" => "Latvia",
    /// Austria (ZeroSSL).
    AT = b"AT" => "Austria",
    /// Canada.
    CA = b"CA" => "Canada",
    /// Finland.
    FI = b"FI" => "Finland",
    /// Switzerland.
    CH = b"CH" => "Switzerland",
    /// Singapore.
    SG = b"SG" => "Singapore",
}

impl Country {
    /// Construct from a two-letter ASCII code; normalizes to uppercase.
    pub fn from_code(code: &str) -> Option<Self> {
        let bytes = code.as_bytes();
        if bytes.len() != 2 || !bytes.iter().all(|b| b.is_ascii_alphabetic()) {
            return None;
        }
        Some(Country([
            bytes[0].to_ascii_uppercase(),
            bytes[1].to_ascii_uppercase(),
        ]))
    }

    /// The two-letter code as a `&str`.
    pub fn code(&self) -> &str {
        // Invariant: always two ASCII uppercase letters.
        std::str::from_utf8(&self.0).expect("country codes are ASCII")
    }

    /// Whether this is the Russian Federation — the predicate at the heart
    /// of every composition classification in the paper.
    pub const fn is_russia(self) -> bool {
        matches!(self.0, [b'R', b'U'])
    }
}

impl fmt::Display for Country {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// Error returned when parsing an invalid country code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountryParseError(pub String);

impl fmt::Display for CountryParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid ISO 3166-1 alpha-2 code {:?}", self.0)
    }
}

impl std::error::Error for CountryParseError {}

impl FromStr for Country {
    type Err = CountryParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Country::from_code(s).ok_or_else(|| CountryParseError(s.to_owned()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalizes_case() {
        assert_eq!(Country::from_code("ru").unwrap(), Country::RU);
        assert_eq!(Country::from_code("Ru").unwrap(), Country::RU);
        assert_eq!(Country::from_code("RU").unwrap(), Country::RU);
    }

    #[test]
    fn rejects_bad_codes() {
        assert!(Country::from_code("").is_none());
        assert!(Country::from_code("R").is_none());
        assert!(Country::from_code("RUS").is_none());
        assert!(Country::from_code("R1").is_none());
        assert!(Country::from_code("рф").is_none());
    }

    #[test]
    fn russia_predicate() {
        assert!(Country::RU.is_russia());
        assert!(!Country::US.is_russia());
        assert!(!Country::SE.is_russia());
    }

    #[test]
    fn names() {
        assert_eq!(Country::SE.name(), "Sweden");
        assert_eq!(Country::from_code("ZZ").unwrap().name(), "(other)");
    }

    #[test]
    fn display_parse_roundtrip() {
        for c in [Country::RU, Country::US, Country::NL] {
            assert_eq!(c.to_string().parse::<Country>().unwrap(), c);
        }
        assert!("xx1".parse::<Country>().is_err());
    }
}
