//! Property tests for the CT log's Merkle machinery.

use proptest::prelude::*;
use ruwhere_ct::ctlog::{verify_consistency, verify_inclusion};
use ruwhere_ct::{CertificateAuthority, CtLog};
use ruwhere_types::sync::write;
use ruwhere_types::{Country, Date, DomainName};

/// A log of `n` entries, `prop-{i}.ru` issued on day `i % 60` of 2022.
fn log_of(n: u64) -> CtLog {
    let mut ca = CertificateAuthority::new("Prop CA", Country::US, &["P1"], true, 90);
    let log = CtLog::new("prop");
    let mut certs = write(log.store());
    for i in 0..n {
        let name: DomainName = format!("prop-{i}.ru").parse().unwrap();
        let day = Date::from_ymd(2022, 1, 1).add_days((i % 60) as i32);
        ca.issue(&mut certs, &name, &[], 0, day).unwrap();
    }
    drop(certs);
    log
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn inclusion_proofs_always_verify(
        size in 1u64..200,
        idx_seed in any::<u64>(),
    ) {
        let log = log_of(size);
        let idx = idx_seed % size;
        let proof = log.inclusion_proof(idx, size).unwrap();
        let leaf = log.leaf_at(idx).unwrap();
        let root = log.root_at(size).unwrap();
        prop_assert!(verify_inclusion(&leaf, &proof, &root));
    }

    #[test]
    fn inclusion_proofs_reject_wrong_index(
        size in 2u64..150,
        a_seed in any::<u64>(),
        b_seed in any::<u64>(),
    ) {
        let log = log_of(size);
        let a = a_seed % size;
        let b = b_seed % size;
        prop_assume!(a != b);
        let proof = log.inclusion_proof(a, size).unwrap();
        let wrong_leaf = log.leaf_at(b).unwrap();
        let root = log.root_at(size).unwrap();
        prop_assert!(!verify_inclusion(&wrong_leaf, &proof, &root));
    }

    #[test]
    fn consistency_proofs_always_verify(
        new in 1u64..200,
        old_seed in any::<u64>(),
    ) {
        let log = log_of(new);
        let old = 1 + old_seed % new;
        let proof = log.consistency_proof(old, new).unwrap();
        let old_root = log.root_at(old).unwrap();
        let new_root = log.root_at(new).unwrap();
        prop_assert!(verify_consistency(&old_root, &new_root, &proof));
    }

    #[test]
    fn consistency_rejects_tampered_roots(
        new in 2u64..150,
        old_seed in any::<u64>(),
        flip in any::<u8>(),
    ) {
        let log = log_of(new);
        let old = 1 + old_seed % (new - 1);
        prop_assume!(old < new);
        let proof = log.consistency_proof(old, new).unwrap();
        let old_root = log.root_at(old).unwrap();
        let mut bad_new = log.root_at(new).unwrap();
        bad_new[(flip % 32) as usize] ^= 1 | flip;
        prop_assert!(!verify_consistency(&old_root, &bad_new, &proof));
    }

    #[test]
    fn tampered_audit_paths_fail(
        size in 2u64..150,
        idx_seed in any::<u64>(),
        node_seed in any::<u64>(),
        flip in 1u8..,
    ) {
        let log = log_of(size);
        let idx = idx_seed % size;
        let mut proof = log.inclusion_proof(idx, size).unwrap();
        prop_assume!(!proof.audit_path.is_empty());
        let n = node_seed as usize % proof.audit_path.len();
        proof.audit_path[n][0] ^= flip;
        let leaf = log.leaf_at(idx).unwrap();
        let root = log.root_at(size).unwrap();
        prop_assert!(!verify_inclusion(&leaf, &proof, &root));
    }

    #[test]
    fn roots_are_prefix_stable(
        small in 1u64..100,
        extra in 1u64..100,
    ) {
        // Appending entries never changes historical roots.
        let log_small = log_of(small);
        let log_big = log_of(small + extra);
        prop_assert_eq!(log_small.root_at(small), log_big.root_at(small));
        prop_assert_ne!(
            log_big.root_at(small + extra).unwrap(),
            log_big.root_at(small).unwrap()
        );
    }
}
