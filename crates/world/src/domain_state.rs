//! Per-domain ground-truth state.

use crate::catalog::{PlanId, ProviderId};
use ruwhere_types::{Date, DomainName};
use std::net::Ipv4Addr;

/// How a domain's authoritative DNS is arranged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DnsPlan {
    /// On a managed plan from the catalog.
    Managed(PlanId),
    /// Vanity NS under the domain itself (`ns1.<domain>`, `ns2.<domain>`),
    /// served from the domain's own hosting IP (requires glue).
    VanityOwn,
    /// Vanity NS under a separate name in an exotic TLD
    /// (`ns1.<sld>.<tld>`), index into [`crate::catalog::exotic_tld`].
    VanityExotic(u16),
}

/// Where the domain's web content lives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostingPlan {
    /// Primary hosting provider.
    pub primary: ProviderId,
    /// A-record address at the primary.
    pub primary_ip: Ipv4Addr,
    /// Optional second A record at another provider (the paper's 0.19 %
    /// "partial" hosting).
    pub secondary: Option<(ProviderId, Ipv4Addr)>,
}

/// Ground truth for one registered domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomainState {
    /// The domain.
    pub name: DomainName,
    /// Web hosting.
    pub hosting: HostingPlan,
    /// DNS arrangement.
    pub dns: DnsPlan,
    /// Whether the site serves TLS (false = plain-HTTP site, invisible
    /// to §4).
    pub tls: bool,
    /// Whether this domain is on a sanctions list.
    pub sanctioned: bool,
    /// Registration date (needed to distinguish "newly registered" from
    /// "relocated" arrivals in Figures 6/7).
    pub registered: Date,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::pid;

    #[test]
    fn construct() {
        let s = DomainState {
            name: "example.ru".parse().unwrap(),
            hosting: HostingPlan {
                primary: pid::REG_RU,
                primary_ip: "20.3.0.5".parse().unwrap(),
                secondary: None,
            },
            dns: DnsPlan::Managed(PlanId(0)),
            tls: true,
            sanctioned: false,
            registered: Date::from_ymd(2019, 5, 1),
        };
        assert_eq!(s.hosting.primary, pid::REG_RU);
        assert!(matches!(s.dns, DnsPlan::Managed(PlanId(0))));
    }
}
