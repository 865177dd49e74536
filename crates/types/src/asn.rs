//! Autonomous-system numbers, with constants for the networks the paper
//! tracks by name.

use std::fmt;
use std::str::FromStr;

/// An autonomous-system number.
///
/// Displayed in the conventional `AS16509` form:
///
/// ```
/// use ruwhere_types::Asn;
/// assert_eq!(Asn::AMAZON.to_string(), "AS16509");
/// assert_eq!("AS13335".parse::<Asn>().unwrap(), Asn::CLOUDFLARE);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Asn(pub u32);

impl Asn {
    /// Amazon (AS16509), which announced it would stop new Russian AWS
    /// registrations on 2022-03-08 (paper §3.4, Figure 6).
    pub const AMAZON: Asn = Asn(16509);
    /// Sedo domain parking (AS47846, Germany), which "pulled the plug" on
    /// Russian domains around 2022-03-09 (Figure 7).
    pub const SEDO: Asn = Asn(47846);
    /// Cloudflare (AS13335), which continued serving Russia (§3.4).
    pub const CLOUDFLARE: Asn = Asn(13335);
    /// Google's primary serving ASN (AS15169).
    pub const GOOGLE: Asn = Asn(15169);
    /// Google's secondary cloud ASN (AS396982) that absorbed intra-Google
    /// relocations around 2022-03-16 (§3.4 footnote 11).
    pub const GOOGLE_CLOUD: Asn = Asn(396982);
    /// REG.RU, a large Russian registrar/hoster.
    pub const REG_RU: Asn = Asn(197695);
    /// RU-CENTER (JSC RU-CENTER), Russia's leading registrar (AS48287).
    pub const RU_CENTER: Asn = Asn(48287);
    /// Timeweb (Russian hosting, AS9123).
    pub const TIMEWEB: Asn = Asn(9123);
    /// Beget (Russian hosting, AS198610).
    pub const BEGET: Asn = Asn(198610);
    /// Serverel (Netherlands), the destination of the post-Sedo exodus.
    pub const SERVEREL: Asn = Asn(29802);
    /// Hetzner (Germany, AS24940), saw DNS-hosting migration out in late
    /// March 2022 (§3.2).
    pub const HETZNER: Asn = Asn(24940);
    /// Linode (US, AS63949), likewise.
    pub const LINODE: Asn = Asn(63949);
    /// Netnod (Sweden, AS8674): stopped serving 76 k Russian domains'
    /// DNS on 2022-03-03 after IP reconfigurations (§3.2, §3.3).
    pub const NETNOD: Asn = Asn(8674);

    /// The raw number.
    pub const fn value(self) -> u32 {
        self.0
    }
}

impl fmt::Display for Asn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

/// Error parsing an ASN from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsnParseError(pub String);

impl fmt::Display for AsnParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid ASN {:?}, expected e.g. \"AS16509\" or \"16509\"",
            self.0
        )
    }
}

impl std::error::Error for AsnParseError {}

impl FromStr for Asn {
    type Err = AsnParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let digits = s
            .strip_prefix("AS")
            .or_else(|| s.strip_prefix("as"))
            .unwrap_or(s);
        digits
            .parse::<u32>()
            .map(Asn)
            .map_err(|_| AsnParseError(s.to_owned()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert_eq!(Asn(0).to_string(), "AS0");
        assert_eq!(Asn::GOOGLE_CLOUD.to_string(), "AS396982");
    }

    #[test]
    fn parse_variants() {
        assert_eq!("16509".parse::<Asn>().unwrap(), Asn::AMAZON);
        assert_eq!("AS16509".parse::<Asn>().unwrap(), Asn::AMAZON);
        assert_eq!("as16509".parse::<Asn>().unwrap(), Asn::AMAZON);
        assert!("ASN16509".parse::<Asn>().is_err());
        assert!("".parse::<Asn>().is_err());
        assert!("AS-1".parse::<Asn>().is_err());
    }

    #[test]
    fn paper_constants_are_distinct() {
        let all = [
            Asn::AMAZON,
            Asn::SEDO,
            Asn::CLOUDFLARE,
            Asn::GOOGLE,
            Asn::GOOGLE_CLOUD,
            Asn::REG_RU,
            Asn::RU_CENTER,
            Asn::TIMEWEB,
            Asn::BEGET,
            Asn::SERVEREL,
            Asn::HETZNER,
            Asn::LINODE,
            Asn::NETNOD,
        ];
        let mut dedup: Vec<u32> = all.iter().map(|a| a.0).collect();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len());
    }
}
