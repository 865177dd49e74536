//! IPv4 CIDR prefixes and sequential address allocation.

use std::fmt;
use std::net::Ipv4Addr;
use std::str::FromStr;

/// An IPv4 network in CIDR form.
///
/// ```
/// use ruwhere_netsim::Ipv4Net;
/// let net: Ipv4Net = "198.51.100.0/24".parse().unwrap();
/// assert!(net.contains("198.51.100.42".parse().unwrap()));
/// assert!(!net.contains("198.51.101.1".parse().unwrap()));
/// assert_eq!(net.size(), 256);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ipv4Net {
    addr: u32,
    prefix_len: u8,
}

impl Ipv4Net {
    /// Construct from a network address and prefix length (0-32). The host
    /// bits of `addr` are zeroed.
    pub fn new(addr: Ipv4Addr, prefix_len: u8) -> Option<Self> {
        if prefix_len > 32 {
            return None;
        }
        let bits = u32::from(addr) & Self::mask_bits(prefix_len);
        Some(Ipv4Net {
            addr: bits,
            prefix_len,
        })
    }

    const fn mask_bits(prefix_len: u8) -> u32 {
        if prefix_len == 0 {
            0
        } else {
            u32::MAX << (32 - prefix_len)
        }
    }

    /// The network address.
    pub fn network(&self) -> Ipv4Addr {
        Ipv4Addr::from(self.addr)
    }

    /// Prefix length.
    pub const fn prefix_len(&self) -> u8 {
        self.prefix_len
    }

    /// The network address as raw bits.
    pub const fn bits(&self) -> u32 {
        self.addr
    }

    /// Number of addresses covered.
    pub const fn size(&self) -> u64 {
        1u64 << (32 - self.prefix_len)
    }

    /// Whether `ip` is inside this prefix.
    pub fn contains(&self, ip: Ipv4Addr) -> bool {
        u32::from(ip) & Self::mask_bits(self.prefix_len) == self.addr
    }

    /// Whether `other` is entirely inside this prefix.
    pub fn contains_net(&self, other: &Ipv4Net) -> bool {
        other.prefix_len >= self.prefix_len && self.contains(other.network())
    }

    /// The `i`-th address in the prefix, or `None` past the end.
    pub fn nth(&self, i: u64) -> Option<Ipv4Addr> {
        (i < self.size()).then(|| Ipv4Addr::from(self.addr + i as u32))
    }
}

impl fmt::Display for Ipv4Net {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.network(), self.prefix_len)
    }
}

/// Error parsing CIDR notation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefixParseError(pub String);

impl fmt::Display for PrefixParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid CIDR prefix {:?}", self.0)
    }
}

impl std::error::Error for PrefixParseError {}

impl FromStr for Ipv4Net {
    type Err = PrefixParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || PrefixParseError(s.to_owned());
        let (addr, len) = s.split_once('/').ok_or_else(err)?;
        let addr: Ipv4Addr = addr.parse().map_err(|_| err())?;
        let len: u8 = len.parse().map_err(|_| err())?;
        Ipv4Net::new(addr, len).ok_or_else(err)
    }
}

/// Sequential address allocator over a prefix, skipping the network and
/// broadcast addresses for prefixes shorter than /31.
#[derive(Debug, Clone)]
pub struct IpAllocator {
    net: Ipv4Net,
    next: u64,
}

impl IpAllocator {
    /// New allocator over `net`.
    pub fn new(net: Ipv4Net) -> Self {
        let next = if net.prefix_len() < 31 { 1 } else { 0 };
        IpAllocator { net, next }
    }

    /// The prefix being allocated from.
    pub fn net(&self) -> Ipv4Net {
        self.net
    }

    /// Allocate the next address, or `None` when exhausted.
    pub fn alloc(&mut self) -> Option<Ipv4Addr> {
        let last_usable = if self.net.prefix_len() < 31 {
            self.net.size() - 2
        } else {
            self.net.size() - 1
        };
        if self.next > last_usable {
            return None;
        }
        let ip = self.net.nth(self.next);
        self.next += 1;
        ip
    }

    /// How many addresses remain.
    pub fn remaining(&self) -> u64 {
        let last_usable = if self.net.prefix_len() < 31 {
            self.net.size() - 2
        } else {
            self.net.size() - 1
        };
        (last_usable + 1).saturating_sub(self.next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display() {
        let n: Ipv4Net = "10.0.0.0/8".parse().unwrap();
        assert_eq!(n.to_string(), "10.0.0.0/8");
        assert_eq!(n.size(), 1 << 24);
        // Host bits are zeroed.
        let n: Ipv4Net = "10.1.2.3/8".parse().unwrap();
        assert_eq!(n.network(), Ipv4Addr::new(10, 0, 0, 0));
        assert!("10.0.0.0".parse::<Ipv4Net>().is_err());
        assert!("10.0.0.0/33".parse::<Ipv4Net>().is_err());
        assert!("10.0.0.0/x".parse::<Ipv4Net>().is_err());
    }

    #[test]
    fn containment() {
        let n: Ipv4Net = "192.0.2.0/24".parse().unwrap();
        assert!(n.contains(Ipv4Addr::new(192, 0, 2, 0)));
        assert!(n.contains(Ipv4Addr::new(192, 0, 2, 255)));
        assert!(!n.contains(Ipv4Addr::new(192, 0, 3, 0)));
        let sub: Ipv4Net = "192.0.2.128/25".parse().unwrap();
        assert!(n.contains_net(&sub));
        assert!(!sub.contains_net(&n));
        let all: Ipv4Net = "0.0.0.0/0".parse().unwrap();
        assert!(all.contains(Ipv4Addr::new(255, 255, 255, 255)));
        assert!(all.contains_net(&n));
    }

    #[test]
    fn zero_prefix_mask() {
        let all = Ipv4Net::new(Ipv4Addr::new(1, 2, 3, 4), 0).unwrap();
        assert_eq!(all.network(), Ipv4Addr::new(0, 0, 0, 0));
        assert_eq!(all.size(), 1 << 32);
    }

    #[test]
    fn nth() {
        let n: Ipv4Net = "198.51.100.0/30".parse().unwrap();
        assert_eq!(n.nth(0).unwrap(), Ipv4Addr::new(198, 51, 100, 0));
        assert_eq!(n.nth(3).unwrap(), Ipv4Addr::new(198, 51, 100, 3));
        assert!(n.nth(4).is_none());
    }

    #[test]
    fn allocator_skips_network_and_broadcast() {
        let mut a = IpAllocator::new("198.51.100.0/30".parse().unwrap());
        assert_eq!(a.remaining(), 2);
        assert_eq!(a.alloc().unwrap(), Ipv4Addr::new(198, 51, 100, 1));
        assert_eq!(a.alloc().unwrap(), Ipv4Addr::new(198, 51, 100, 2));
        assert_eq!(a.alloc(), None);
        assert_eq!(a.remaining(), 0);
    }

    #[test]
    fn allocator_31_and_32() {
        let mut a = IpAllocator::new("198.51.100.0/31".parse().unwrap());
        assert_eq!(a.alloc().unwrap(), Ipv4Addr::new(198, 51, 100, 0));
        assert_eq!(a.alloc().unwrap(), Ipv4Addr::new(198, 51, 100, 1));
        assert_eq!(a.alloc(), None);
        let mut a = IpAllocator::new("198.51.100.9/32".parse().unwrap());
        assert_eq!(a.alloc().unwrap(), Ipv4Addr::new(198, 51, 100, 9));
        assert_eq!(a.alloc(), None);
    }
}
