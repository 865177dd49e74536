//! A WHOIS service over the registry database.
//!
//! The paper confirms whether domains that appeared at Amazon after its
//! halt were *newly registered* "using Cisco's Whois Domain API"
//! (§3.4, footnote 10). This module provides the equivalent mechanism: a
//! port-43-style text protocol serving registration facts straight from
//! the registry, plus a client-side parser.
//!
//! Protocol (classic WHOIS flavour):
//!
//! ```text
//! >> example.ru\r\n
//! << domain:     EXAMPLE.RU
//! << state:      REGISTERED, DELEGATED
//! << created:    2019-05-01
//! << paid-till:  2029-04-28
//! << nserver:    ns1.reg.ru.
//! << nserver:    ns2.reg.ru.
//! << source:     RU-TLD
//! ```
//!
//! Unregistered names answer `No entries found`.

use crate::registry::Registry;
use ruwhere_types::{Date, DomainName};
use std::fmt::Write as _;

/// The canonical WHOIS port.
pub const WHOIS_PORT: u16 = 43;

/// A parsed WHOIS answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WhoisRecord {
    /// The queried domain.
    pub domain: DomainName,
    /// First registration date.
    pub created: Date,
    /// Paid-through date.
    pub paid_till: Date,
    /// Delegated name servers.
    pub nservers: Vec<DomainName>,
}

/// Render the WHOIS response for `query` against a set of registries.
pub fn respond(registries: &[Registry], query: &str) -> String {
    let Ok(domain) = DomainName::parse(query.trim()) else {
        return "query format error\r\n".to_owned();
    };
    for registry in registries {
        if let Some(reg) = registry.get(&domain) {
            let mut out = String::new();
            let _ = writeln!(out, "domain:     {}", domain.as_str().to_uppercase());
            let state = if reg.delegation.nameservers.is_empty() {
                "REGISTERED, NOT DELEGATED"
            } else {
                "REGISTERED, DELEGATED"
            };
            let _ = writeln!(out, "state:      {state}");
            let _ = writeln!(out, "created:    {}", reg.registered);
            let _ = writeln!(out, "paid-till:  {}", reg.expires);
            for ns in &reg.delegation.nameservers {
                let _ = writeln!(out, "nserver:    {ns}.");
            }
            let _ = writeln!(out, "source:     RU-TLD");
            return out;
        }
    }
    "No entries found for the selected source.\r\n".to_owned()
}

/// Parse a WHOIS response produced by [`respond`].
pub fn parse(response: &str) -> Option<WhoisRecord> {
    if response.contains("No entries found") || response.contains("query format error") {
        return None;
    }
    let mut domain = None;
    let mut created = None;
    let mut paid_till = None;
    let mut nservers = Vec::new();
    for line in response.lines() {
        let Some((key, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        match key.trim() {
            "domain" => domain = DomainName::parse(value).ok(),
            "created" => created = value.parse().ok(),
            "paid-till" => paid_till = value.parse().ok(),
            "nserver" => {
                if let Ok(ns) = DomainName::parse(value.trim_end_matches('.')) {
                    nservers.push(ns);
                }
            }
            _ => {}
        }
    }
    Some(WhoisRecord {
        domain: domain?,
        created: created?,
        paid_till: paid_till?,
        nservers,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Delegation;

    fn d(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    fn registries() -> Vec<Registry> {
        let mut ru = Registry::new(d("ru"));
        ru.register(d("example.ru"), Date::from_ymd(2019, 5, 1), 10)
            .unwrap();
        ru.set_delegation(
            &d("example.ru"),
            Delegation {
                nameservers: vec![d("ns1.reg.ru"), d("ns2.reg.ru")],
                glue: Default::default(),
            },
        )
        .unwrap();
        ru.register(d("parked.ru"), Date::from_ymd(2022, 3, 10), 1)
            .unwrap();
        let mut rf = Registry::new(d("рф"));
        rf.register(d("пример.рф"), Date::from_ymd(2020, 2, 2), 5)
            .unwrap();
        vec![ru, rf]
    }

    #[test]
    fn roundtrip_delegated() {
        let regs = registries();
        let resp = respond(&regs, "example.ru");
        assert!(resp.contains("domain:     EXAMPLE.RU"));
        assert!(resp.contains("state:      REGISTERED, DELEGATED"));
        let rec = parse(&resp).unwrap();
        assert_eq!(rec.domain, d("example.ru"));
        assert_eq!(rec.created, Date::from_ymd(2019, 5, 1));
        assert_eq!(rec.paid_till, Date::from_ymd(2019, 5, 1).add_days(3650));
        assert_eq!(rec.nservers, vec![d("ns1.reg.ru"), d("ns2.reg.ru")]);
    }

    #[test]
    fn undelegated_and_idn() {
        let regs = registries();
        let resp = respond(&regs, "parked.ru");
        assert!(resp.contains("NOT DELEGATED"));
        assert!(parse(&resp).unwrap().nservers.is_empty());

        // Queries in Unicode or punycode both resolve.
        let uni = respond(&regs, "пример.рф");
        let puny = respond(&regs, "xn--e1afmkfd.xn--p1ai");
        assert_eq!(uni, puny);
        assert_eq!(parse(&uni).unwrap().created, Date::from_ymd(2020, 2, 2));
    }

    #[test]
    fn misses_and_garbage() {
        let regs = registries();
        assert!(parse(&respond(&regs, "missing.ru")).is_none());
        assert!(parse(&respond(&regs, "!!!")).is_none());
        assert!(parse(&respond(&regs, "")).is_none());
        assert!(parse("totally unrelated text").is_none());
    }

    #[test]
    fn whitespace_tolerated() {
        let regs = registries();
        let rec = parse(&respond(&regs, "  example.ru \r\n")).unwrap();
        assert_eq!(rec.domain, d("example.ru"));
    }
}
