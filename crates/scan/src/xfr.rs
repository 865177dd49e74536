//! Zone-transfer client: fetch the registry's daily zone file over the
//! wire and extract the sweep seed list from its delegations.
//!
//! OpenINTEL "uses daily zone file snapshots as seeds" (§2), obtained from
//! registry operators. [`OpenIntelScanner`](crate::OpenIntelScanner)
//! normally receives the seed list out-of-band (the data-sharing-agreement
//! model); this client implements the stricter in-band variant — a chunked
//! transfer protocol against the registry's XFR service — and parses the
//! zone text back into delegations.

use crate::error::ScanError;
use ruwhere_dns::Zone;
use ruwhere_types::DomainName;
use ruwhere_world::World;

/// The transfer client.
pub struct ZoneTransferClient {
    src: std::net::Ipv4Addr,
}

impl ZoneTransferClient {
    /// Client homed at the world's measurement vantage.
    pub fn new(world: &World) -> Self {
        ZoneTransferClient {
            src: world.scanner_ip(),
        }
    }

    fn fetch_chunk(
        &self,
        world: &mut World,
        tld: &str,
        chunk: usize,
    ) -> Result<(usize, String), ScanError> {
        let bad_frame = || ScanError::BadPayload("malformed zone transfer frame".to_owned());
        let server = world.xfr_server();
        let req = format!("XFR {tld} {chunk}");
        let reply = world
            .network_mut()
            .request(self.src, server, req.as_bytes(), 3_000_000, 2)
            .map_err(ScanError::from)?;
        let text = String::from_utf8(reply).map_err(|_| bad_frame())?;
        let (header, body) = text.split_once('\n').ok_or_else(bad_frame)?;
        let total: usize = header
            .strip_prefix("XFRHDR ")
            .ok_or_else(bad_frame)?
            .trim()
            .parse()
            .map_err(|_| bad_frame())?;
        Ok((total, body.to_owned()))
    }

    /// Transfer the full zone for `tld` (presentation name, e.g. `"ru"` or
    /// `"xn--p1ai"`). Transport failures surface as
    /// [`ScanError::Timeout`] / [`ScanError::Unreachable`]; framing and
    /// zone-text failures as [`ScanError::BadPayload`].
    pub fn transfer(&self, world: &mut World, tld: &str) -> Result<Zone, ScanError> {
        let text = self.transfer_text(world, tld)?;
        Zone::from_text(&text)
            .map_err(|e| ScanError::BadPayload(format!("transferred zone failed to parse: {e}")))
    }

    /// Fetch every chunk of `tld`'s zone and reassemble the master-file
    /// text.
    fn transfer_text(&self, world: &mut World, tld: &str) -> Result<String, ScanError> {
        let (total, first) = self.fetch_chunk(world, tld, 0)?;
        let mut text = first;
        for i in 1..total {
            let (_, body) = self.fetch_chunk(world, tld, i)?;
            text.push_str(&body);
        }
        Ok(text)
    }

    /// Transfer both study zones and extract the seed list (delegated
    /// names, sorted) — byte-for-byte what the out-of-band path yields.
    pub fn seed_names(&self, world: &mut World) -> Result<Vec<DomainName>, ScanError> {
        let mut seeds = Vec::new();
        for tld in ["ru", "xn--p1ai"] {
            let zone = self.transfer(world, tld)?;
            for owner in zone.delegations() {
                if let Some(d) = owner.to_domain_name() {
                    seeds.push(d);
                }
            }
        }
        seeds.sort();
        Ok(seeds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruwhere_types::Date;
    use ruwhere_world::WorldConfig;

    #[test]
    fn transferred_zone_matches_published_snapshot() {
        let mut world = World::new(WorldConfig::tiny());
        world.publish_tld_zones();
        let client = ZoneTransferClient::new(&world);
        let zone = client
            .transfer(&mut world, "ru")
            .expect("transfer succeeds");
        assert_eq!(zone.origin().to_string(), "ru.");
        assert!(zone.record_count() > 300, "zone should carry delegations");
        // The .рф zone transfers too.
        let rf = client.transfer(&mut world, "xn--p1ai").unwrap();
        assert_eq!(rf.origin().to_string(), "xn--p1ai.");
        assert!(rf.record_count() > 10);
    }

    #[test]
    fn in_band_seeds_equal_out_of_band_seeds() {
        let mut world = World::new(WorldConfig::tiny());
        world.publish_tld_zones();
        let client = ZoneTransferClient::new(&world);
        let in_band = client.seed_names(&mut world).expect("transfer succeeds");
        let out_of_band = world.seed_names();
        // The out-of-band list includes every *registered* name; the zone
        // only carries *delegated* names. In our world every registered
        // name is delegated, so the lists must be identical.
        assert_eq!(in_band, out_of_band);
    }

    #[test]
    fn unknown_tld_fails_cleanly() {
        let mut world = World::new(WorldConfig::tiny());
        world.publish_tld_zones();
        let client = ZoneTransferClient::new(&world);
        // The service stays silent for unknown zones → transport timeout.
        assert_eq!(
            client.transfer(&mut world, "su").unwrap_err(),
            ScanError::Timeout
        );
    }

    #[test]
    fn tld_keys_are_exact() {
        let mut world = World::new(WorldConfig::tiny());
        world.publish_tld_zones();
        let client = ZoneTransferClient::new(&world);
        // Keys are the registries' TLD strings exactly: no case folding,
        // no trailing root dot.
        for tld in ["RU", "ru."] {
            assert_eq!(
                client.transfer(&mut world, tld).unwrap_err(),
                ScanError::Timeout,
                "{tld}"
            );
        }
    }

    #[test]
    fn transfer_text_is_the_rendered_snapshot() {
        let mut world = World::new(WorldConfig::tiny());
        world.publish_tld_zones();
        let client = ZoneTransferClient::new(&world);
        let today = world.today();
        for i in 0..world.registries().len() {
            let tld = world.registries()[i].tld().as_str().to_owned();
            let expected = world.registries()[i].zone_snapshot(today).to_text();
            let text = client.transfer_text(&mut world, &tld).unwrap();
            assert_eq!(text, expected, "{tld}");
        }
    }

    /// Both zones' SOA serials and their delegated names (sorted), as
    /// transferred over the wire.
    fn transferred(client: &ZoneTransferClient, world: &mut World) -> (Vec<u32>, Vec<DomainName>) {
        let mut serials = Vec::new();
        for tld in ["ru", "xn--p1ai"] {
            serials.push(client.transfer(world, tld).unwrap().soa().serial);
        }
        (serials, client.seed_names(world).unwrap())
    }

    #[test]
    fn transfers_follow_the_last_publish() {
        let mut world = World::new(WorldConfig::tiny());
        world.publish_tld_zones();
        let client = ZoneTransferClient::new(&world);
        let day = world.today();
        let serials = |d: Date| vec![d.days_since_epoch() as u32; 2];
        let old_seeds = world.seed_names();
        assert_eq!(
            transferred(&client, &mut world),
            (serials(day), old_seeds.clone())
        );

        // Advanced but not yet published: still day D's zones.
        let later = day.add_days(30);
        world.advance_to(later);
        let new_seeds = world.seed_names();
        assert_ne!(new_seeds, old_seeds, "30 days should churn the zones");
        assert_eq!(transferred(&client, &mut world), (serials(day), old_seeds));

        // Published: the next transfers are day D+30's zones.
        world.publish_tld_zones();
        assert_eq!(
            transferred(&client, &mut world),
            (serials(later), new_seeds)
        );
    }
}
