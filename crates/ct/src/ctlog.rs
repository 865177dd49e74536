//! An RFC 6962 / RFC 9162 Certificate Transparency log.
//!
//! Append-only Merkle tree over certificate entries, with Merkle tree heads,
//! inclusion proofs, and consistency proofs (generation *and* verification).
//! The Censys-style indexer in `ruwhere-scan` reads entries out of logs; a
//! monitor can verify that the log operator never rewrote history.
//!
//! A log is a name over a [`CertStore`]'s entry column: a CA that logs to
//! CT appends the entry as it issues, and every log over the same store
//! holds the same entries, so two such logs differ only in name and
//! signature. Appending hashes nothing. Every leaf hash is derived from
//! its entry when a reader asks for it, as
//! `SHA-256(0x00 ‖ fingerprint ‖ timestamp)` with the timestamp's day
//! number big-endian, so a root or proof costs one leaf hash per leaf it
//! covers. The study reads entries only; roots and proofs are read by
//! monitors, the tests and the `ct_forensics` example.

use crate::cert::{CertId, CertStore, SharedCertStore};
use crate::hash::{sha256, Digest, Sha256};
use ruwhere_types::sync::read;
use ruwhere_types::Date;
use std::sync::{Arc, RwLockReadGuard};

/// One logged certificate: its row in the store and its log timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CtEntry {
    /// The logged certificate.
    pub cert: CertId,
    /// Submission date.
    pub timestamp: Date,
}

/// A Merkle tree head: size + root hash (+ a stand-in signature).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignedTreeHead {
    /// Number of leaves.
    pub tree_size: u64,
    /// Merkle root (RFC 6962 MTH).
    pub root: Digest,
    /// Stand-in signature binding size and root to the log identity.
    pub signature: Digest,
}

/// Audit path proving a leaf is in a tree of a given size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InclusionProof {
    /// The leaf's index.
    pub leaf_index: u64,
    /// Tree size the proof is against.
    pub tree_size: u64,
    /// Sibling hashes from leaf to root.
    pub audit_path: Vec<Digest>,
}

/// Proof that the tree of size `new_size` is an append-only extension of
/// the tree of size `old_size`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConsistencyProof {
    /// Earlier tree size.
    pub old_size: u64,
    /// Later tree size.
    pub new_size: u64,
    /// Proof nodes.
    pub path: Vec<Digest>,
}

/// RFC 6962 leaf hash of `entry`, streamed without a buffer.
fn leaf_hash(certs: &CertStore, entry: &CtEntry) -> Digest {
    let mut h = Sha256::new();
    h.update(&[0x00])
        .update(&certs.get(entry.cert).fingerprint())
        .update(&entry.timestamp.days_since_epoch().to_be_bytes());
    h.finalize()
}

fn node_hash(left: &Digest, right: &Digest) -> Digest {
    let mut h = Sha256::new();
    h.update(&[0x01]);
    h.update(left);
    h.update(right);
    h.finalize()
}

/// The log: a name over a certificate store's entry column.
#[derive(Debug, Clone, Default)]
pub struct CtLog {
    name: String,
    certs: SharedCertStore,
}

impl CtLog {
    /// New empty log over a store of its own.
    pub fn new(name: &str) -> Self {
        Self::over(name, &SharedCertStore::default())
    }

    /// A log named `name` over `certs`' entry column.
    pub fn over(name: &str, certs: &SharedCertStore) -> Self {
        CtLog {
            name: name.to_owned(),
            certs: Arc::clone(certs),
        }
    }

    /// Log operator name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The store whose entry column this log is; issue into it (through a
    /// CA that logs to CT) to append.
    pub fn store(&self) -> &SharedCertStore {
        &self.certs
    }

    /// The store, read-locked: the entries are
    /// [`CertStore::entries`] (index order == append order) and each
    /// entry's certificate is [`CertStore::get`].
    pub fn certs(&self) -> RwLockReadGuard<'_, CertStore> {
        read(&self.certs)
    }

    /// Current number of entries.
    pub fn size(&self) -> u64 {
        Tree(&self.certs()).size()
    }

    /// Merkle root over the first `size` leaves.
    pub fn root_at(&self, size: u64) -> Option<Digest> {
        let certs = self.certs();
        let tree = Tree(&certs);
        (size <= tree.size()).then(|| tree.mth(0, size as usize))
    }

    /// Current signed tree head.
    pub fn sth(&self) -> SignedTreeHead {
        self.sth_at(self.size()).expect("current size is valid")
    }

    /// Signed tree head for a historical size.
    pub fn sth_at(&self, size: u64) -> Option<SignedTreeHead> {
        let root = self.root_at(size)?;
        let mut sig = Sha256::new();
        sig.update(self.name.as_bytes())
            .update(&size.to_be_bytes())
            .update(&root);
        Some(SignedTreeHead {
            tree_size: size,
            root,
            signature: sig.finalize(),
        })
    }

    /// The leaf hash at `index`, derived from its entry.
    pub fn leaf_at(&self, index: u64) -> Option<Digest> {
        let certs = self.certs();
        let entry = certs.entries().get(index as usize)?;
        Some(leaf_hash(&certs, entry))
    }

    /// RFC 6962 §2.1.1 audit path for `leaf_index` in the tree of
    /// `tree_size` leaves.
    pub fn inclusion_proof(&self, leaf_index: u64, tree_size: u64) -> Option<InclusionProof> {
        let certs = self.certs();
        let tree = Tree(&certs);
        if leaf_index >= tree_size || tree_size > tree.size() {
            return None;
        }
        let mut path = Vec::new();
        tree.audit_path(leaf_index as usize, 0, tree_size as usize, &mut path);
        Some(InclusionProof {
            leaf_index,
            tree_size,
            audit_path: path,
        })
    }

    /// RFC 6962 §2.1.2 consistency proof between two historical sizes.
    pub fn consistency_proof(&self, old_size: u64, new_size: u64) -> Option<ConsistencyProof> {
        let certs = self.certs();
        let tree = Tree(&certs);
        if old_size == 0 || old_size > new_size || new_size > tree.size() {
            return None;
        }
        let mut path = Vec::new();
        tree.subproof(old_size as usize, 0, new_size as usize, true, &mut path);
        Some(ConsistencyProof {
            old_size,
            new_size,
            path,
        })
    }
}

/// The Merkle tree over a store's entry column, read under one lock.
struct Tree<'a>(&'a CertStore);

impl Tree<'_> {
    fn size(&self) -> u64 {
        self.0.entries().len() as u64
    }

    fn mth(&self, lo: usize, hi: usize) -> Digest {
        debug_assert!(lo <= hi);
        match hi - lo {
            0 => sha256(b""), // MTH of the empty tree
            1 => leaf_hash(self.0, &self.0.entries()[lo]),
            n => {
                let k = largest_power_of_two_below(n as u64) as usize;
                node_hash(&self.mth(lo, lo + k), &self.mth(lo + k, hi))
            }
        }
    }

    fn audit_path(&self, m: usize, lo: usize, hi: usize, out: &mut Vec<Digest>) {
        let n = hi - lo;
        if n <= 1 {
            return;
        }
        let k = largest_power_of_two_below(n as u64) as usize;
        if m < k {
            self.audit_path(m, lo, lo + k, out);
            out.push(self.mth(lo + k, hi));
        } else {
            self.audit_path(m - k, lo + k, hi, out);
            out.push(self.mth(lo, lo + k));
        }
    }

    fn subproof(&self, m: usize, lo: usize, hi: usize, complete: bool, out: &mut Vec<Digest>) {
        let n = hi - lo;
        if m == n {
            if !complete {
                out.push(self.mth(lo, hi));
            }
            return;
        }
        let k = largest_power_of_two_below(n as u64) as usize;
        if m <= k {
            self.subproof(m, lo, lo + k, complete, out);
            out.push(self.mth(lo + k, hi));
        } else {
            self.subproof(m - k, lo + k, hi, false, out);
            out.push(self.mth(lo, lo + k));
        }
    }
}

/// Largest power of two strictly less than `n` (n ≥ 2).
fn largest_power_of_two_below(n: u64) -> u64 {
    debug_assert!(n >= 2);
    let p = n.next_power_of_two();
    if p == n {
        n / 2
    } else {
        p / 2
    }
}

/// Verify an inclusion proof against a root (RFC 9162 §2.1.3.2).
pub fn verify_inclusion(leaf: &Digest, proof: &InclusionProof, root: &Digest) -> bool {
    if proof.leaf_index >= proof.tree_size {
        return false;
    }
    let mut fnode = proof.leaf_index;
    let mut snode = proof.tree_size - 1;
    let mut r = *leaf;
    for c in &proof.audit_path {
        if snode == 0 {
            return false;
        }
        if fnode & 1 == 1 || fnode == snode {
            r = node_hash(c, &r);
            if fnode & 1 == 0 {
                while fnode & 1 == 0 && fnode != 0 {
                    fnode >>= 1;
                    snode >>= 1;
                }
            }
        } else {
            r = node_hash(&r, c);
        }
        fnode >>= 1;
        snode >>= 1;
    }
    snode == 0 && r == *root
}

/// Verify a consistency proof between two roots (RFC 9162 §2.1.4.2).
pub fn verify_consistency(old_root: &Digest, new_root: &Digest, proof: &ConsistencyProof) -> bool {
    let (m, n) = (proof.old_size, proof.new_size);
    if m == 0 || m > n {
        return false;
    }
    if m == n {
        return proof.path.is_empty() && old_root == new_root;
    }
    let mut path = proof.path.iter();
    // If old_size is a power of two, the old root itself is the implicit
    // first element.
    let first = if m.is_power_of_two() {
        *old_root
    } else {
        match path.next() {
            Some(d) => *d,
            None => return false,
        }
    };
    let mut fnode = m - 1;
    let mut snode = n - 1;
    while fnode & 1 == 1 {
        fnode >>= 1;
        snode >>= 1;
    }
    let mut fr = first;
    let mut sr = first;
    for c in path {
        if snode == 0 {
            return false;
        }
        if fnode & 1 == 1 || fnode == snode {
            fr = node_hash(c, &fr);
            sr = node_hash(c, &sr);
            if fnode & 1 == 0 {
                while fnode & 1 == 0 && fnode != 0 {
                    fnode >>= 1;
                    snode >>= 1;
                }
            }
        } else {
            sr = node_hash(&sr, c);
        }
        fnode >>= 1;
        snode >>= 1;
    }
    snode == 0 && fr == *old_root && sr == *new_root
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CertificateAuthority;
    use ruwhere_types::sync::write;
    use ruwhere_types::{Country, DomainName};

    fn lets_encrypt() -> CertificateAuthority {
        CertificateAuthority::new("Let's Encrypt", Country::US, &["R3"], true, 90)
    }

    /// Issue `site{i}.ru` for each `i` in `ids` into `log`'s store, on day
    /// `i % 90` of 2022.
    fn issue(log: &CtLog, ca: &mut CertificateAuthority, ids: std::ops::Range<u64>) {
        let mut certs = write(log.store());
        for i in ids {
            let name: DomainName = format!("site{i}.ru").parse().unwrap();
            let day = Date::from_ymd(2022, 1, 1).add_days(i as i32 % 90);
            ca.issue(&mut certs, &name, &[], 0, day).unwrap();
        }
    }

    fn log_of(n: u64) -> CtLog {
        let log = CtLog::new("test-log");
        issue(&log, &mut lets_encrypt(), 0..n);
        log
    }

    #[test]
    fn logs_over_one_store_share_its_entries() {
        let argon = CtLog::new("argon");
        let xenon = CtLog::over("xenon", argon.store());
        issue(&argon, &mut lets_encrypt(), 0..3);
        assert_eq!((argon.size(), xenon.size()), (3, 3));
        let cert = argon.certs().entries()[2].cert;
        assert_eq!(xenon.certs().get(cert).subject_cn().as_str(), "site2.ru");
        // A CA that does not log adds rows but no entries.
        let mut unlogged = CertificateAuthority::new("Quiet CA", Country::US, &[], false, 90);
        issue(&argon, &mut unlogged, 3..5);
        assert_eq!(argon.certs().len(), 5);
        assert_eq!(xenon.size(), 3);
    }

    #[test]
    fn leaves_follow_rfc6962_over_entries() {
        // Rebuild each leaf from the fields as issued, in one buffer and
        // one one-shot hash, apart from the streaming hashers the log uses.
        let log = CtLog::new("t");
        let mut ca = lets_encrypt();
        let mut issued = Vec::new();
        for i in 0..12u64 {
            let cn: DomainName = format!("site{i}.ru").parse().unwrap();
            // Names long enough that a fingerprint spans two blocks, and
            // the usual CN-first and `www.`-last SANs the store keeps as
            // flags.
            let mut san: Vec<DomainName> = (0..i % 3)
                .map(|k| {
                    format!("www{k}.a-long-subdomain-label.site{i}.ru")
                        .parse()
                        .unwrap()
                })
                .collect();
            if i % 2 == 0 {
                san.insert(0, cn.clone());
            }
            if i % 4 < 2 {
                san.push(cn.prepend("www").unwrap());
            }
            let day = Date::from_ymd(2022, 1, 1).add_days(i as i32);
            ca.issue(&mut write(log.store()), &cn, &san, 0, day)
                .unwrap();
            issued.push((i + 1, cn, san, day));
        }
        for (i, (serial, cn, san, day)) in issued.iter().enumerate() {
            let mut fp_input = serial.to_be_bytes().to_vec();
            fp_input.extend_from_slice(b"Let's Encrypt\0R3\0");
            fp_input.extend_from_slice(cn.as_str().as_bytes());
            for s in san {
                fp_input.push(0);
                fp_input.extend_from_slice(s.as_str().as_bytes());
            }
            fp_input.extend_from_slice(&day.days_since_epoch().to_be_bytes());
            fp_input.extend_from_slice(&day.add_days(90).days_since_epoch().to_be_bytes());
            let mut leaf_input = vec![0x00];
            leaf_input.extend_from_slice(&sha256(&fp_input));
            leaf_input.extend_from_slice(&day.days_since_epoch().to_be_bytes());
            assert_eq!(log.leaf_at(i as u64), Some(sha256(&leaf_input)), "leaf {i}");
        }
        assert_eq!(log.leaf_at(12), None);
    }

    #[test]
    fn empty_tree_root_is_hash_of_empty() {
        let log = CtLog::new("t");
        assert_eq!(log.root_at(0).unwrap(), sha256(b""));
        assert_eq!(log.size(), 0);
    }

    #[test]
    fn appends_change_root_deterministically() {
        let a = log_of(5);
        let b = log_of(5);
        assert_eq!(a.sth().root, b.sth().root);
        assert_ne!(log_of(5).sth().root, log_of(6).sth().root);
        // Historical roots are stable as the tree grows.
        let big = log_of(10);
        assert_eq!(big.root_at(5).unwrap(), a.sth().root);
    }

    #[test]
    fn inclusion_proofs_verify_exhaustively() {
        // Every leaf in every tree size up to 40: the full proof matrix.
        let log = log_of(40);
        for size in 1..=40u64 {
            let root = log.root_at(size).unwrap();
            for idx in 0..size {
                let proof = log.inclusion_proof(idx, size).unwrap();
                let leaf = log.leaf_at(idx).unwrap();
                assert!(
                    verify_inclusion(&leaf, &proof, &root),
                    "inclusion failed idx={idx} size={size}"
                );
            }
        }
    }

    #[test]
    fn inclusion_proof_rejects_wrong_leaf_and_root() {
        let log = log_of(16);
        let root = log.root_at(16).unwrap();
        let proof = log.inclusion_proof(3, 16).unwrap();
        let wrong_leaf = log.leaf_at(4).unwrap();
        assert!(!verify_inclusion(&wrong_leaf, &proof, &root));
        let right_leaf = log.leaf_at(3).unwrap();
        let wrong_root = log.root_at(15).unwrap();
        assert!(!verify_inclusion(&right_leaf, &proof, &wrong_root));
        // Tampered path.
        let mut tampered = proof.clone();
        tampered.audit_path[0][0] ^= 1;
        assert!(!verify_inclusion(&right_leaf, &tampered, &root));
    }

    #[test]
    fn consistency_proofs_verify_exhaustively() {
        let log = log_of(33);
        for old in 1..=33u64 {
            for new in old..=33u64 {
                let proof = log.consistency_proof(old, new).unwrap();
                let old_root = log.root_at(old).unwrap();
                let new_root = log.root_at(new).unwrap();
                assert!(
                    verify_consistency(&old_root, &new_root, &proof),
                    "consistency failed old={old} new={new}"
                );
            }
        }
    }

    #[test]
    fn consistency_detects_rewritten_history() {
        // Two logs that diverge at entry 5.
        let honest = log_of(20);
        let forked = log_of(5);
        issue(&forked, &mut lets_encrypt(), 100..115);
        let proof = forked.consistency_proof(5, 20).unwrap();
        let old_root = honest.root_at(5).unwrap(); // same first 5 entries
        let new_root_forked = forked.root_at(20).unwrap();
        // Fork is internally consistent...
        assert!(verify_consistency(&old_root, &new_root_forked, &proof));
        // ...but its head does not match the honest log's head.
        assert_ne!(new_root_forked, honest.root_at(20).unwrap());

        // A proof from the honest log cannot link the forked old root.
        let mut bad_old = old_root;
        bad_old[0] ^= 0xFF;
        let honest_proof = honest.consistency_proof(5, 20).unwrap();
        assert!(!verify_consistency(
            &bad_old,
            &honest.root_at(20).unwrap(),
            &honest_proof
        ));
    }

    #[test]
    fn proof_edge_cases() {
        let log = log_of(8);
        // Out-of-range requests.
        assert!(log.inclusion_proof(8, 8).is_none());
        assert!(log.inclusion_proof(0, 9).is_none());
        assert!(log.consistency_proof(0, 5).is_none());
        assert!(log.consistency_proof(6, 5).is_none());
        assert!(log.consistency_proof(1, 9).is_none());
        // m == n: empty proof, trivially valid.
        let proof = log.consistency_proof(8, 8).unwrap();
        assert!(proof.path.is_empty());
        let root = log.root_at(8).unwrap();
        assert!(verify_consistency(&root, &root, &proof));
        // Single-leaf tree: inclusion proof is empty.
        let proof = log.inclusion_proof(0, 1).unwrap();
        assert!(proof.audit_path.is_empty());
        assert!(verify_inclusion(
            &log.leaf_at(0).unwrap(),
            &proof,
            &log.root_at(1).unwrap()
        ));
    }

    #[test]
    fn sth_signature_binds_identity() {
        let log = log_of(5);
        let a = log.sth();
        let b = CtLog::over("other-log", log.store()).sth();
        assert_eq!(a.root, b.root, "same contents, same root");
        assert_ne!(a.signature, b.signature, "different log identity");
    }

    #[test]
    fn power_of_two_helper() {
        assert_eq!(largest_power_of_two_below(2), 1);
        assert_eq!(largest_power_of_two_below(3), 2);
        assert_eq!(largest_power_of_two_below(4), 2);
        assert_eq!(largest_power_of_two_below(5), 4);
        assert_eq!(largest_power_of_two_below(8), 4);
        assert_eq!(largest_power_of_two_below(9), 8);
    }
}
