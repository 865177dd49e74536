//! A fast, process-seeded hasher for the maps on the sweep path.
//!
//! Every query a sweep sends probes several hash maps: the resolver's
//! answer, cut and health caches, the shared NS cache, the network's
//! service table and the served zones. std's SipHash is built to resist
//! keys chosen by an attacker, which these maps never see — every key is
//! a name or an address the simulation generated itself — and it costs
//! several times more per probe than the multiply-rotate hasher here:
//! the Fx hash of rustc and Firefox, one rotate, xor and multiply per
//! word, plus one xor-shift-multiply when the hash is taken so that the
//! low bits a table indexes by depend on every word written.
//!
//! The seed is drawn once per process from [`RandomState`], never fixed.
//! A map whose iteration order leaked into an output would then change
//! that output from one run to the next, and the pinned digests and the
//! cross-run `cmp` gates catch it, instead of a fixed seed letting such a
//! leak pass quietly.

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// A [`HashMap`] hashed with [`FastState`]. Build one with
/// `FastMap::default()`.
pub type FastMap<K, V> = HashMap<K, V, FastState>;

/// A [`HashSet`] hashed with [`FastState`].
pub type FastSet<T> = HashSet<T, FastState>;

/// The multiplier: an odd constant with well-spread bits (rustc-hash).
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// The hash seed of this process: drawn from [`RandomState`] on first
/// use, then the same for every [`FastState`] in the process.
pub fn process_seed() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| RandomState::new().hash_one(0u64))
}

/// Builds [`FastHasher`]s that start from the [`process_seed`]. All
/// instances in a process hash alike, so a hash taken from one can pick a
/// shard for a map built with another.
#[derive(Debug, Clone, Copy)]
pub struct FastState {
    seed: u64,
}

impl Default for FastState {
    fn default() -> Self {
        FastState {
            seed: process_seed(),
        }
    }
}

impl BuildHasher for FastState {
    type Hasher = FastHasher;

    #[inline]
    fn build_hasher(&self) -> FastHasher {
        FastHasher { hash: self.seed }
    }
}

/// The multiply-rotate hasher [`FastState`] builds: one rotate, xor and
/// multiply per word written.
#[derive(Debug, Clone)]
pub struct FastHasher {
    hash: u64,
}

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.add(u64::from_le_bytes(
                word.try_into().expect("an 8-byte chunk"),
            ));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            // At most seven bytes, so the top byte is free to carry their
            // count: `b"a"` and `b"a\0"` hash apart.
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            last[7] = rest.len() as u8;
            self.add(u64::from_le_bytes(last));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // A multiply carries a word's bits only upwards, so differences in
        // the high bytes of the last word never reach the low bits a table
        // takes its bucket from. Fold the high half down and multiply once
        // more; every step is invertible, so no two states collide.
        let h = (self.hash ^ (self.hash >> 32)).wrapping_mul(K);
        h ^ (h >> 29)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Wire form of `label.hoster.ru`: length-prefixed labels, the bytes a
    /// DNS name hashes as.
    fn wire(labels: &[&str]) -> Vec<u8> {
        let mut out = Vec::new();
        for l in labels {
            out.push(l.len() as u8);
            out.extend_from_slice(l.as_bytes());
        }
        out
    }

    #[test]
    fn seed_is_fixed_within_a_process() {
        let key = wire(&["ns1", "hoster", "ru"]);
        let here = FastState::default().hash_one(&key[..]);
        assert_eq!(FastState::default().hash_one(&key[..]), here);
        let elsewhere = std::thread::spawn(move || FastState::default().hash_one(&key[..]))
            .join()
            .expect("hashing thread");
        assert_eq!(elsewhere, here, "another thread sees another seed");
        assert_eq!(process_seed(), process_seed());
    }

    #[test]
    fn names_differing_in_one_label_spread_over_shards_and_buckets() {
        // The NS cache takes its shard from bits 52..56 and a table takes
        // its bucket from the low bits; both must spread, independently.
        let shapes: [fn(usize) -> Vec<u8>; 3] = [
            |i| wire(&[&format!("ns{i}"), "hoster", "ru"]),
            |i| wire(&["ns1", &format!("hoster{i}"), "ru"]),
            |i| wire(&["www", "a-much-longer-label", &format!("h{i}"), "ru"]),
        ];
        for shape in shapes {
            let hashes: Vec<u64> = (0..256)
                .map(|i| FastState::default().hash_one(&shape(i)[..]))
                .collect();
            let shards: BTreeSet<u64> = hashes.iter().map(|h| (h >> 52) & 15).collect();
            assert_eq!(shards.len(), 16, "names miss NS-cache shards");
            let buckets: BTreeSet<u64> = hashes.iter().map(|h| h & 255).collect();
            assert!(buckets.len() > 128, "{} of 256 buckets", buckets.len());
            // Shard and bucket bits are independent: names that share a
            // shard still spread over the buckets of that shard's table.
            let pairs: BTreeSet<(u64, u64)> =
                hashes.iter().map(|h| ((h >> 52) & 15, h & 15)).collect();
            assert!(
                pairs.len() > 128,
                "{} of 256 shard/bucket pairs",
                pairs.len()
            );
        }
    }

    #[test]
    fn trailing_zero_bytes_change_the_hash() {
        let s = FastState::default();
        let hash = |bytes: &[u8]| {
            let mut h = s.build_hasher();
            h.write(bytes);
            h.finish()
        };
        assert_ne!(hash(b"a"), hash(b"a\0"));
        assert_ne!(hash(b""), hash(b"\0"));
    }
}
