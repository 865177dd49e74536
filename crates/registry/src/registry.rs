//! Domain lifecycle and zone snapshot generation.

use ruwhere_dns::{Name, RData, Record, SoaData, Zone};
use ruwhere_types::{Date, DomainName};
use std::collections::BTreeMap;
use std::fmt;
use std::net::Ipv4Addr;

/// Delegation data for one registered domain: its NS set and any glue the
/// registrant supplied for in-bailiwick name servers.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Delegation {
    /// Name-server host names.
    pub nameservers: Vec<DomainName>,
    /// Glue A records for name servers at or under the delegated domain
    /// itself ([`Registry::set_delegation`] rejects any other host).
    pub glue: BTreeMap<DomainName, Vec<Ipv4Addr>>,
}

/// One registration in the registry database.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Registration {
    /// First registration date.
    pub registered: Date,
    /// Paid-through date; the domain drops from the zone after this.
    pub expires: Date,
    /// Current delegation.
    pub delegation: Delegation,
}

/// Registry operation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// The name is not directly under this registry's TLD.
    WrongTld,
    /// The name is already registered.
    AlreadyRegistered,
    /// The name is not registered.
    NotRegistered,
    /// A delegation supplied glue for a host that is neither the delegated
    /// name nor under it.
    GlueOutOfBailiwick,
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::WrongTld => write!(f, "name is not under this TLD"),
            RegistryError::AlreadyRegistered => write!(f, "name already registered"),
            RegistryError::NotRegistered => write!(f, "name not registered"),
            RegistryError::GlueOutOfBailiwick => {
                write!(f, "glue host is outside the delegated name")
            }
        }
    }
}

impl std::error::Error for RegistryError {}

/// The registry for one ccTLD (`.ru` or `.рф` in this study).
#[derive(Debug, Clone)]
pub struct Registry {
    tld: DomainName,
    domains: BTreeMap<DomainName, Registration>,
    /// Cumulative count of every name ever registered (the paper reports
    /// 11.7 M unique names over the study window against ~5 M live).
    ever_registered: u64,
    /// Names whose registration changed since the last publish, each
    /// with the glue hosts of the delegation it had at that publish (the
    /// glue owners the served zone still holds for it). `None` until the
    /// first publish starts recording, so building a registry records
    /// nothing.
    changes: Option<BTreeMap<DomainName, Vec<DomainName>>>,
}

impl Registry {
    /// New registry for `tld` (e.g. `"ru"` or `"рф"`).
    pub fn new(tld: DomainName) -> Self {
        Registry {
            tld,
            domains: BTreeMap::new(),
            ever_registered: 0,
            changes: None,
        }
    }

    /// The TLD this registry administers.
    pub fn tld(&self) -> &DomainName {
        &self.tld
    }

    fn check_tld(&self, name: &DomainName) -> Result<(), RegistryError> {
        if name.label_count() == 2 && name.tld() == self.tld.as_str() {
            Ok(())
        } else {
            Err(RegistryError::WrongTld)
        }
    }

    /// Register `name` on `date` for `years` years.
    pub fn register(
        &mut self,
        name: DomainName,
        date: Date,
        years: u32,
    ) -> Result<(), RegistryError> {
        self.check_tld(&name)?;
        if self.domains.contains_key(&name) {
            return Err(RegistryError::AlreadyRegistered);
        }
        touch(&mut self.changes, &name, None);
        self.domains.insert(
            name,
            Registration {
                registered: date,
                expires: date.add_days((365 * years) as i32),
                delegation: Delegation::default(),
            },
        );
        self.ever_registered += 1;
        Ok(())
    }

    /// Renew `name` for `years` more years from its current expiry.
    pub fn renew(&mut self, name: &DomainName, years: u32) -> Result<Date, RegistryError> {
        let reg = self
            .domains
            .get_mut(name)
            .ok_or(RegistryError::NotRegistered)?;
        touch(&mut self.changes, name, Some(reg));
        reg.expires = reg.expires.add_days((365 * years) as i32);
        Ok(reg.expires)
    }

    /// Delete `name` immediately (registrant action).
    pub fn delete(&mut self, name: &DomainName) -> Result<Registration, RegistryError> {
        let reg = self
            .domains
            .remove(name)
            .ok_or(RegistryError::NotRegistered)?;
        touch(&mut self.changes, name, Some(&reg));
        Ok(reg)
    }

    /// Replace the delegation for `name`. Glue is accepted only for hosts
    /// equal to `name` or under it, so every glue owner in the zone
    /// belongs to exactly one delegation.
    pub fn set_delegation(
        &mut self,
        name: &DomainName,
        delegation: Delegation,
    ) -> Result<(), RegistryError> {
        let in_bailiwick = |host: &DomainName| {
            host.as_str()
                .strip_suffix(name.as_str())
                .is_some_and(|rest| rest.is_empty() || rest.ends_with('.'))
        };
        if !delegation.glue.keys().all(in_bailiwick) {
            return Err(RegistryError::GlueOutOfBailiwick);
        }
        let reg = self
            .domains
            .get_mut(name)
            .ok_or(RegistryError::NotRegistered)?;
        touch(&mut self.changes, name, Some(reg));
        reg.delegation = delegation;
        Ok(())
    }

    /// The registration record for `name`.
    pub fn get(&self, name: &DomainName) -> Option<&Registration> {
        self.domains.get(name)
    }

    /// Whether `name` is currently registered.
    pub fn is_registered(&self, name: &DomainName) -> bool {
        self.domains.contains_key(&name.clone())
    }

    /// Live registration count.
    pub fn count(&self) -> usize {
        self.domains.len()
    }

    /// Cumulative unique registrations ever.
    pub fn ever_registered(&self) -> u64 {
        self.ever_registered
    }

    /// Iterate live registrations in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = (&DomainName, &Registration)> {
        self.domains.iter()
    }

    /// Drop every registration whose expiry is before `today`; returns the
    /// dropped names. Run once per simulated day.
    pub fn process_expirations(&mut self, today: Date) -> Vec<DomainName> {
        let expired: Vec<DomainName> = self
            .domains
            .iter()
            .filter(|(_, r)| r.expires < today)
            .map(|(n, _)| n.clone())
            .collect();
        for n in &expired {
            let reg = self.domains.remove(n);
            touch(&mut self.changes, n, reg.as_ref());
        }
        expired
    }

    /// Produce the TLD zone as of `date`: one NS RRset per delegated name
    /// plus glue, under a SOA whose serial encodes the date (so consecutive
    /// snapshots are ordered, like production zone serials).
    pub fn zone_snapshot(&self, date: Date) -> Zone {
        let origin = Name::from(&self.tld);
        let soa = SoaData {
            mname: Name::from_labels(["a", "dns", "ripn", "net"]).expect("static labels"),
            rname: Name::from_labels(["hostmaster", "ripn", "net"]).expect("static labels"),
            serial: zone_serial(date),
            refresh: 86_400,
            retry: 14_400,
            expire: 2_592_000,
            minimum: 3_600,
        };
        let mut zone = Zone::new(origin, soa, 86_400);
        for (name, reg) in &self.domains {
            add_delegation(&mut zone, name, &reg.delegation);
        }
        zone
    }

    /// Start recording the names each change touches. The first publish
    /// calls this after installing [`zone_snapshot`](Self::zone_snapshot);
    /// later publishes then go through
    /// [`publish_changes`](Self::publish_changes).
    pub fn record_changes(&mut self) {
        self.changes.get_or_insert_with(BTreeMap::new);
    }

    /// Bring a published zone up to date with this registry as of `date`,
    /// in O(changes): stamp `zone`'s serial and, for every name touched
    /// since the last publish, replace that name's NS and glue records.
    ///
    /// `zone` must be this registry's zone as of the last publish: its
    /// [`zone_snapshot`](Self::zone_snapshot), kept current by earlier
    /// calls. Each touched name's old glue owners come from what the
    /// registry recorded at the name's first touch. Afterwards `zone`
    /// equals `self.zone_snapshot(date)`. Recording must have been started
    /// with [`record_changes`](Self::record_changes).
    pub fn publish_changes(&mut self, date: Date, zone: &mut Zone) {
        zone.set_serial(zone_serial(date));
        let changes = self.changes.replace(BTreeMap::new()).unwrap_or_default();
        for (name, old_glue) in &changes {
            zone.remove(&Name::from(name), None);
            for host in old_glue {
                zone.remove(&Name::from(host), None);
            }
            if let Some(reg) = self.domains.get(name) {
                add_delegation(zone, name, &reg.delegation);
            }
        }
    }
}

/// Note in `changes`, once recording is on, that `name` is changing from
/// `current` (`None` when unregistered). Only the first touch after a
/// publish keeps its glue hosts: they are the glue owners the published
/// zone holds for `name`.
fn touch(
    changes: &mut Option<BTreeMap<DomainName, Vec<DomainName>>>,
    name: &DomainName,
    current: Option<&Registration>,
) {
    if let Some(changes) = changes {
        if !changes.contains_key(name) {
            let glue = current.map_or_else(Vec::new, |reg| {
                reg.delegation.glue.keys().cloned().collect()
            });
            changes.insert(name.clone(), glue);
        }
    }
}

/// A zone serial encoding `date`, so consecutive snapshots are ordered.
fn zone_serial(date: Date) -> u32 {
    date.days_since_epoch() as u32
}

/// Add `name`'s NS RRset and glue to `zone` — nothing when the name is
/// registered but not delegated.
fn add_delegation(zone: &mut Zone, name: &DomainName, delegation: &Delegation) {
    if delegation.nameservers.is_empty() {
        return;
    }
    let owner = Name::from(name);
    for ns in &delegation.nameservers {
        zone.add(Record::new(
            owner.clone(),
            345_600,
            RData::Ns(Name::from(ns)),
        ));
    }
    for (host, addrs) in &delegation.glue {
        let glue_owner = Name::from(host);
        for addr in addrs {
            zone.add(Record::new(glue_owner.clone(), 345_600, RData::A(*addr)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    fn registry() -> Registry {
        Registry::new(d("ru"))
    }

    #[test]
    fn register_and_lookup() {
        let mut r = registry();
        let day = Date::from_ymd(2020, 1, 1);
        r.register(d("example.ru"), day, 1).unwrap();
        assert!(r.is_registered(&d("example.ru")));
        assert_eq!(r.count(), 1);
        assert_eq!(r.ever_registered(), 1);
        let reg = r.get(&d("example.ru")).unwrap();
        assert_eq!(reg.registered, day);
        assert_eq!(reg.expires, day.add_days(365));
    }

    #[test]
    fn register_validation() {
        let mut r = registry();
        let day = Date::from_ymd(2020, 1, 1);
        assert_eq!(
            r.register(d("example.com"), day, 1),
            Err(RegistryError::WrongTld)
        );
        assert_eq!(
            r.register(d("sub.example.ru"), day, 1),
            Err(RegistryError::WrongTld),
            "only second-level names are registrable"
        );
        r.register(d("example.ru"), day, 1).unwrap();
        assert_eq!(
            r.register(d("example.ru"), day, 1),
            Err(RegistryError::AlreadyRegistered)
        );
    }

    #[test]
    fn renewal_extends() {
        let mut r = registry();
        let day = Date::from_ymd(2020, 1, 1);
        r.register(d("example.ru"), day, 1).unwrap();
        let new_expiry = r.renew(&d("example.ru"), 2).unwrap();
        assert_eq!(new_expiry, day.add_days(365 * 3));
        assert_eq!(
            r.renew(&d("missing.ru"), 1),
            Err(RegistryError::NotRegistered)
        );
    }

    #[test]
    fn expiration_processing() {
        let mut r = registry();
        let day = Date::from_ymd(2020, 1, 1);
        r.register(d("expiring.ru"), day, 1).unwrap();
        r.register(d("longlived.ru"), day, 5).unwrap();

        assert!(
            r.process_expirations(day.add_days(365)).is_empty(),
            "expiry day itself keeps the name"
        );
        let dropped = r.process_expirations(day.add_days(366));
        assert_eq!(dropped, vec![d("expiring.ru")]);
        assert_eq!(r.count(), 1);
        // Cumulative count unaffected by expiry.
        assert_eq!(r.ever_registered(), 2);
        // Name becomes available again.
        r.register(d("expiring.ru"), day.add_days(400), 1).unwrap();
        assert_eq!(r.ever_registered(), 3);
    }

    #[test]
    fn zone_snapshot_contents() {
        let mut r = registry();
        let day = Date::from_ymd(2022, 2, 24);
        r.register(d("delegated.ru"), day, 1).unwrap();
        r.register(d("parked.ru"), day, 1).unwrap();
        r.set_delegation(
            &d("delegated.ru"),
            Delegation {
                nameservers: vec![d("ns1.delegated.ru"), d("ns2.hoster.com")],
                glue: BTreeMap::from([(
                    d("ns1.delegated.ru"),
                    vec!["198.51.100.1".parse().unwrap()],
                )]),
            },
        )
        .unwrap();

        let zone = r.zone_snapshot(day);
        assert_eq!(zone.origin().to_string(), "ru.");
        assert_eq!(zone.soa().serial, day.days_since_epoch() as u32);
        // Only the delegated name appears.
        let delegs: Vec<String> = zone.delegations().map(|n| n.to_string()).collect();
        assert_eq!(delegs, vec!["delegated.ru."]);
        // 2 NS + 1 glue A.
        assert_eq!(zone.record_count(), 3);
    }

    #[test]
    fn glue_must_be_in_bailiwick() {
        let mut r = registry();
        r.register(d("example.ru"), Date::from_ymd(2020, 1, 1), 1)
            .unwrap();
        let delegation = |host: &str| Delegation {
            nameservers: vec![d(host)],
            glue: BTreeMap::from([(d(host), vec!["198.51.100.1".parse().unwrap()])]),
        };
        assert_eq!(
            r.set_delegation(&d("example.ru"), delegation("ns1.example.ru")),
            Ok(())
        );
        assert_eq!(
            r.set_delegation(&d("example.ru"), delegation("example.ru")),
            Ok(())
        );
        for host in ["ns.other.ru", "ns.notexample.ru"] {
            assert_eq!(
                r.set_delegation(&d("example.ru"), delegation(host)),
                Err(RegistryError::GlueOutOfBailiwick),
                "{host}"
            );
        }
        // A rejected delegation leaves the last accepted one in place.
        assert_eq!(
            r.get(&d("example.ru")).unwrap().delegation,
            delegation("example.ru")
        );
    }

    #[test]
    fn zone_serial_monotonic() {
        let mut r = registry();
        r.register(d("a.ru"), Date::from_ymd(2020, 1, 1), 10)
            .unwrap();
        let s1 = r.zone_snapshot(Date::from_ymd(2022, 1, 1)).soa().serial;
        let s2 = r.zone_snapshot(Date::from_ymd(2022, 1, 2)).soa().serial;
        assert_eq!(s2, s1 + 1);
    }

    #[test]
    fn idn_tld_registry() {
        let mut r = Registry::new(d("рф"));
        assert_eq!(r.tld().as_str(), "xn--p1ai");
        r.register(d("пример.рф"), Date::from_ymd(2020, 1, 1), 1)
            .unwrap();
        assert!(r.is_registered(&d("пример.рф")));
        let zone = r.zone_snapshot(Date::from_ymd(2020, 1, 2));
        assert_eq!(zone.origin().to_string(), "xn--p1ai.");
    }

    #[test]
    fn delete() {
        let mut r = registry();
        r.register(d("gone.ru"), Date::from_ymd(2020, 1, 1), 1)
            .unwrap();
        assert!(r.delete(&d("gone.ru")).is_ok());
        assert!(!r.is_registered(&d("gone.ru")));
        assert_eq!(r.delete(&d("gone.ru")), Err(RegistryError::NotRegistered));
    }
}
