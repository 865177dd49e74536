//! Validated DNS domain names.
//!
//! [`DomainName`] stores the ASCII (wire) presentation form, lowercased and
//! without a trailing dot: `"example.ru"`, `"xn--80ak6aa92e.xn--p1ai"`.
//! Unicode input is converted label-by-label via punycode/IDNA.

use crate::punycode;
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

/// Maximum length of a full domain name in presentation form (RFC 1035
/// limits wire names to 255 octets; 253 presentation characters).
pub const MAX_NAME_LEN: usize = 253;
/// Maximum length of a single label.
pub const MAX_LABEL_LEN: usize = 63;

/// A validated, normalized (lowercase ASCII, no trailing dot) domain name.
///
/// Cheap to clone: the backing string is reference-counted, since domain
/// names are copied into millions of measurement records.
///
/// ```
/// use ruwhere_types::DomainName;
/// let d: DomainName = "Example.RU".parse().unwrap();
/// assert_eq!(d.as_str(), "example.ru");
/// assert_eq!(d.tld(), "ru");
/// assert!(d.is_russian_cctld());
///
/// let idn: DomainName = "кремль.рф".parse().unwrap();
/// assert_eq!(idn.tld(), "xn--p1ai");
/// assert!(idn.is_russian_cctld());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DomainName(Arc<str>);

/// Errors from [`DomainName`] parsing/validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DomainParseError {
    /// The name was empty (after removing a trailing dot).
    Empty,
    /// The name exceeded [`MAX_NAME_LEN`].
    TooLong,
    /// A label was empty (consecutive dots) or exceeded [`MAX_LABEL_LEN`].
    BadLabel(String),
    /// A label contained a character outside `[a-z0-9-_]` after IDNA
    /// conversion, or had a leading/trailing hyphen.
    BadChar(String),
    /// Punycode conversion of a Unicode label failed.
    Punycode(String),
}

impl fmt::Display for DomainParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DomainParseError::Empty => write!(f, "empty domain name"),
            DomainParseError::TooLong => write!(f, "domain name exceeds {MAX_NAME_LEN} chars"),
            DomainParseError::BadLabel(l) => write!(f, "bad label {l:?}"),
            DomainParseError::BadChar(l) => write!(f, "invalid character in label {l:?}"),
            DomainParseError::Punycode(l) => write!(f, "punycode failure in label {l:?}"),
        }
    }
}

impl std::error::Error for DomainParseError {}

fn validate_ascii_label(label: &str) -> Result<(), DomainParseError> {
    if label.is_empty() || label.len() > MAX_LABEL_LEN {
        return Err(DomainParseError::BadLabel(label.to_owned()));
    }
    // Underscore is permitted (it occurs in real NS/service names), hyphen
    // must not lead or trail.
    if label.starts_with('-') || label.ends_with('-') {
        return Err(DomainParseError::BadChar(label.to_owned()));
    }
    if !label
        .bytes()
        .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'-' || b == b'_')
    {
        return Err(DomainParseError::BadChar(label.to_owned()));
    }
    Ok(())
}

impl DomainName {
    /// Parse and normalize a domain name. Accepts Unicode (IDNA) labels and
    /// an optional trailing dot.
    pub fn parse(input: &str) -> Result<Self, DomainParseError> {
        let trimmed = input.strip_suffix('.').unwrap_or(input);
        if trimmed.is_empty() {
            return Err(DomainParseError::Empty);
        }
        if trimmed.is_ascii() {
            return Self::parse_ascii(trimmed);
        }
        let mut labels = Vec::new();
        for raw in trimmed.split('.') {
            let ascii = punycode::label_to_ascii(raw)
                .map_err(|_| DomainParseError::Punycode(raw.to_owned()))?;
            validate_ascii_label(&ascii)?;
            labels.push(ascii);
        }
        let joined = labels.join(".");
        if joined.len() > MAX_NAME_LEN {
            return Err(DomainParseError::TooLong);
        }
        Ok(DomainName(joined.into()))
    }

    /// [`parse`](Self::parse) for all-ASCII input (trailing dot removed):
    /// punycode passes ASCII labels through lowercased, so lowercase once,
    /// validate the labels in place and allocate the result once.
    fn parse_ascii(trimmed: &str) -> Result<Self, DomainParseError> {
        let lowered;
        let name = if trimmed.bytes().any(|b| b.is_ascii_uppercase()) {
            lowered = trimmed.to_ascii_lowercase();
            &lowered
        } else {
            trimmed
        };
        for label in name.split('.') {
            validate_ascii_label(label)?;
        }
        if name.len() > MAX_NAME_LEN {
            return Err(DomainParseError::TooLong);
        }
        Ok(DomainName(name.into()))
    }

    /// The normalized ASCII presentation form (no trailing dot).
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Iterate over the labels, most-significant (leftmost) first.
    pub fn labels(&self) -> impl Iterator<Item = &str> {
        self.0.split('.')
    }

    /// Number of labels.
    pub fn label_count(&self) -> usize {
        self.labels().count()
    }

    /// The top-level domain (rightmost label), e.g. `"ru"`, `"xn--p1ai"`.
    pub fn tld(&self) -> &str {
        self.labels().last().expect("names are non-empty")
    }

    /// The registrable (second-level) name: the last two labels, or the
    /// whole name if it has fewer. `ns1.dns.example.ru` → `example.ru`.
    pub fn registrable(&self) -> DomainName {
        let labels: Vec<&str> = self.labels().collect();
        if labels.len() <= 2 {
            self.clone()
        } else {
            DomainName(labels[labels.len() - 2..].join(".").into())
        }
    }

    /// Whether this name is under one of the Russian Federation ccTLDs the
    /// paper studies: `.ru` or `.рф` (`xn--p1ai`).
    ///
    /// Note: `.su`, the legacy Soviet TLD, is deliberately excluded — the
    /// paper's dataset covers only `.ru` and `.рф`.
    pub fn is_russian_cctld(&self) -> bool {
        matches!(self.tld(), "ru" | "xn--p1ai")
    }

    /// Whether the TLD itself is operated under Russian Federation
    /// administration. Used for the TLD-dependency analysis (Figure 2).
    pub fn tld_is_russian(&self) -> bool {
        self.is_russian_cctld()
    }

    /// Unicode (display) form: punycode labels decoded, e.g.
    /// `xn--80ak6aa92e.xn--p1ai` → `аэрофлот.рф` style output.
    pub fn to_unicode(&self) -> String {
        self.labels()
            .map(|l| punycode::label_to_unicode(l).unwrap_or_else(|_| l.to_owned()))
            .collect::<Vec<_>>()
            .join(".")
    }

    /// The name formed by prepending `label` (already ASCII/validated by the
    /// caller via parse of the result).
    pub fn prepend(&self, label: &str) -> Result<DomainName, DomainParseError> {
        DomainName::parse(&format!("{label}.{}", self.0))
    }
}

impl fmt::Display for DomainName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl FromStr for DomainName {
    type Err = DomainParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        DomainName::parse(s)
    }
}

impl AsRef<str> for DomainName {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalizes() {
        let d = DomainName::parse("WWW.Example.RU.").unwrap();
        assert_eq!(d.as_str(), "www.example.ru");
        assert_eq!(d.label_count(), 3);
        assert_eq!(d.tld(), "ru");
        assert_eq!(d.registrable().as_str(), "example.ru");
    }

    #[test]
    fn idna_conversion() {
        let d = DomainName::parse("пример.рф").unwrap();
        assert_eq!(d.as_str(), "xn--e1afmkfd.xn--p1ai");
        assert!(d.is_russian_cctld());
        assert_eq!(d.to_unicode(), "пример.рф");
    }

    #[test]
    fn russian_cctld_predicate() {
        assert!(DomainName::parse("a.ru").unwrap().is_russian_cctld());
        assert!(DomainName::parse("b.xn--p1ai").unwrap().is_russian_cctld());
        assert!(!DomainName::parse("c.su").unwrap().is_russian_cctld());
        assert!(!DomainName::parse("d.com").unwrap().is_russian_cctld());
        assert!(!DomainName::parse("ru.com").unwrap().is_russian_cctld());
    }

    #[test]
    fn rejects_invalid() {
        assert!(DomainName::parse("").is_err());
        assert!(DomainName::parse(".").is_err());
        assert!(DomainName::parse("a..b").is_err());
        assert!(DomainName::parse("-bad.ru").is_err());
        assert!(DomainName::parse("bad-.ru").is_err());
        assert!(DomainName::parse("ba d.ru").is_err());
        let long_label = "a".repeat(64);
        assert!(DomainName::parse(&format!("{long_label}.ru")).is_err());
        let long_name = format!("{}.ru", vec!["a".repeat(63); 5].join("."));
        assert!(long_name.len() > MAX_NAME_LEN);
        assert!(DomainName::parse(&long_name).is_err());
    }

    #[test]
    fn accepts_edge_labels() {
        assert!(DomainName::parse("a").is_ok());
        assert!(DomainName::parse("_dmarc.example.ru").is_ok());
        assert!(DomainName::parse("ns1-2.example.ru").is_ok());
        assert!(DomainName::parse(&format!("{}.ru", "a".repeat(63))).is_ok());
    }

    #[test]
    fn prepend() {
        let d = DomainName::parse("example.ru").unwrap();
        assert_eq!(d.prepend("ns1").unwrap().as_str(), "ns1.example.ru");
        assert!(d.prepend("bad label").is_err());
    }

    /// `parse` as it was before the all-ASCII fast path.
    fn parse_via_labels(input: &str) -> Result<DomainName, DomainParseError> {
        let trimmed = input.strip_suffix('.').unwrap_or(input);
        if trimmed.is_empty() {
            return Err(DomainParseError::Empty);
        }
        let mut labels = Vec::new();
        for raw in trimmed.split('.') {
            let ascii = punycode::label_to_ascii(raw)
                .map_err(|_| DomainParseError::Punycode(raw.to_owned()))?;
            validate_ascii_label(&ascii)?;
            labels.push(ascii);
        }
        let joined = labels.join(".");
        if joined.len() > MAX_NAME_LEN {
            return Err(DomainParseError::TooLong);
        }
        Ok(DomainName(joined.into()))
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        #[test]
        fn ascii_fast_path_accepts_and_rejects_alike(
            parts in proptest::collection::vec(
                (0usize..12, 0usize..70, proptest::prelude::any::<bool>()),
                0..6,
            ),
            trailing_dot in proptest::prelude::any::<bool>(),
        ) {
            // Labels of one repeated character, 0..70 long: empty, short,
            // at and over the 63-octet limit; names up to and over 253.
            const CHARS: [&str; 12] = ["a", "Q", "7", "-", "_", " ", "\\", "*", "é", "п", "b", "Z"];
            let mut input = parts
                .iter()
                .map(|&(c, len, edge_hyphen)| {
                    let label = CHARS[c].repeat(len);
                    if edge_hyphen { format!("-{label}") } else { label }
                })
                .collect::<Vec<_>>()
                .join(".");
            if trailing_dot {
                input.push('.');
            }
            proptest::prop_assert_eq!(DomainName::parse(&input), parse_via_labels(&input));
        }
    }

    #[test]
    fn ascii_fast_path_edge_cases() {
        let l63 = "a".repeat(63);
        let at_limit = format!("{l63}.{l63}.{l63}.{}", "b".repeat(61));
        for input in [
            "",
            ".",
            "..",
            "a..b",
            "EXAMPLE.RU.",
            "Ex-Ample.ru",
            "-x.ru",
            "x-.RU",
            "a b.ru",
            "a\\046b.ru",
            at_limit.as_str(),
            &format!("{at_limit}b"),
            &format!("{at_limit}.B"),
            &format!("{}.ru", "A".repeat(64)),
        ] {
            assert_eq!(
                DomainName::parse(input),
                parse_via_labels(input),
                "{input:?}"
            );
        }
        assert_eq!(DomainName::parse(&at_limit).unwrap().as_str().len(), 253);
    }

    #[test]
    fn registrable_of_short_names() {
        assert_eq!(
            DomainName::parse("ru").unwrap().registrable().as_str(),
            "ru"
        );
        assert_eq!(
            DomainName::parse("example.ru")
                .unwrap()
                .registrable()
                .as_str(),
            "example.ru"
        );
    }
}
