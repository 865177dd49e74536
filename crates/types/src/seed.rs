//! Hierarchical deterministic seeding.
//!
//! Every stochastic component in the workspace derives its randomness from a
//! [`SeedTree`]: a path of string labels hashed into a 64-bit seed. Two runs
//! with the same root seed are bit-identical regardless of the order in
//! which subsystems draw, because each subsystem forks its own child stream.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf29ce484222325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x100000001b3;

/// `FNV_PRIME` to the powers `0..=8`: FNV-1a over `k` zero bytes only
/// multiplies by `FNV_PRIME` `k` times.
const FNV_PRIME_POWERS: [u64; 9] = {
    let mut powers = [1u64; 9];
    let mut k = 1;
    while k < powers.len() {
        powers[k] = powers[k - 1].wrapping_mul(FNV_PRIME);
        k += 1;
    }
    powers
};

/// Streaming FNV-1a state: feeding bytes in pieces hashes exactly like
/// feeding them at once.
struct Fnv1a(u64);

impl Fnv1a {
    fn new(seed: u64) -> Self {
        Fnv1a(FNV_OFFSET ^ seed.wrapping_mul(FNV_PRIME))
    }

    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }
}

impl fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

/// splitmix64 finalizer: decorrelates FNV output into a well-mixed seed.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// A node in the deterministic seed hierarchy.
///
/// ```
/// use ruwhere_types::SeedTree;
/// use rand::Rng;
///
/// let root = SeedTree::new(42);
/// let mut dns_rng = root.child("dns").rng();
/// let mut geo_rng = root.child("geo").rng();
/// // Independent streams from the same root:
/// let a: u64 = dns_rng.random();
/// let b: u64 = geo_rng.random();
/// assert_ne!(a, b);
/// // Fully reproducible:
/// let again: u64 = SeedTree::new(42).child("dns").rng().random();
/// assert_eq!(a, again);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedTree {
    state: u64,
}

impl SeedTree {
    /// Root of the tree.
    pub const fn new(root_seed: u64) -> Self {
        SeedTree { state: root_seed }
    }

    /// Derive a named child node.
    pub fn child(&self, label: &str) -> SeedTree {
        SeedPrefix {
            state: Fnv1a::new(self.state).0,
        }
        .child(label)
    }

    /// Derive a named child node from a formatted label without building
    /// the string: `child_fmt(format_args!(..))` equals
    /// `child(&format!(..))`.
    pub fn child_fmt(&self, label: fmt::Arguments<'_>) -> SeedTree {
        self.prefix(label).child("")
    }

    /// Hash the start of a child label once, for many children whose
    /// labels share it: `prefix(format_args!("{a}")).child(b)` equals
    /// `child_fmt(format_args!("{a}{b}"))`.
    pub fn prefix(&self, label: fmt::Arguments<'_>) -> SeedPrefix {
        let mut h = Fnv1a::new(self.state);
        fmt::write(&mut h, label).expect("the hashing writer never fails");
        SeedPrefix { state: h.0 }
    }

    /// Derive an indexed child node (e.g. per-domain, per-day): the child
    /// labelled by the index's eight little-endian bytes.
    pub fn child_idx(&self, index: u64) -> SeedTree {
        // Hash the bytes up to the highest non-zero one; the zero bytes
        // above it fold into one multiply.
        let len = 8 - (index.leading_zeros() / 8) as usize;
        let mut h = Fnv1a::new(self.state);
        h.update(&index.to_le_bytes()[..len]);
        SeedTree {
            state: splitmix64(h.0.wrapping_mul(FNV_PRIME_POWERS[8 - len])),
        }
    }

    /// The 64-bit seed at this node.
    pub const fn seed(&self) -> u64 {
        self.state
    }

    /// A `StdRng` seeded from this node.
    pub fn rng(&self) -> StdRng {
        StdRng::seed_from_u64(self.state)
    }
}

/// A [`SeedTree`] node's hash state part-way through a child label, from
/// [`SeedTree::prefix`]: each [`child`](SeedPrefix::child) hashes only
/// the rest of its label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedPrefix {
    state: u64,
}

impl SeedPrefix {
    /// The child whose label is the prefix followed by `rest`.
    pub fn child(&self, rest: &str) -> SeedTree {
        let mut h = Fnv1a(self.state);
        h.update(rest.as_bytes());
        SeedTree {
            state: splitmix64(h.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn children_are_independent() {
        let root = SeedTree::new(7);
        assert_ne!(root.child("a").seed(), root.child("b").seed());
        assert_ne!(root.child("a").seed(), root.seed());
        assert_ne!(root.child_idx(0).seed(), root.child_idx(1).seed());
    }

    #[test]
    fn paths_are_order_free() {
        let root = SeedTree::new(7);
        let p1 = root.child("x").child("y");
        let p2 = root.child("x").child("y");
        assert_eq!(p1.seed(), p2.seed());
        // Different path order gives a different node.
        assert_ne!(root.child("y").child("x").seed(), p1.seed());
    }

    #[test]
    fn streamed_child_matches_formatted_child() {
        use crate::{Date, DomainName};
        let root = SeedTree::new(7).child("lane");
        let date = Date::from_ymd(2022, 3, 4);
        let domain = DomainName::parse("пример.рф").unwrap();
        assert_eq!(
            root.child(&format!("{}/{}", date, domain)),
            root.child_fmt(format_args!("{}/{}", date, domain))
        );
        assert_eq!(
            root.child(&format!("ns:{}/{}", date, domain)),
            root.child_fmt(format_args!("ns:{}/{}", date, domain))
        );
        assert_eq!(
            root.child(&format!("{date}/warmup")),
            root.child_fmt(format_args!("{date}/warmup"))
        );
        // A sweep hashes the date once and each domain after it.
        assert_eq!(
            root.child(&format!("{}/{}", date, domain)),
            root.prefix(format_args!("{date}/")).child(domain.as_str())
        );
        assert_eq!(
            root.child(&format!("ns:{}/{}", date, domain)),
            root.prefix(format_args!("ns:{date}/"))
                .child(domain.as_str())
        );
    }

    #[test]
    fn label_vs_index_distinct() {
        let root = SeedTree::new(7);
        assert_ne!(root.child("0").seed(), root.child_idx(0).seed());
    }

    #[test]
    fn rng_reproducible() {
        let draws: Vec<u32> = SeedTree::new(99)
            .child("t")
            .rng()
            .random_iter()
            .take(8)
            .collect();
        let again: Vec<u32> = SeedTree::new(99)
            .child("t")
            .rng()
            .random_iter()
            .take(8)
            .collect();
        assert_eq!(draws, again);
    }

    #[test]
    fn different_roots_diverge() {
        let a: u64 = SeedTree::new(1).child("s").rng().random();
        let b: u64 = SeedTree::new(2).child("s").rng().random();
        assert_ne!(a, b);
    }
}
