//! Property tests for the CT log's Merkle machinery.

use proptest::prelude::*;
use ruwhere_ct::ctlog::{verify_consistency, verify_inclusion};
use ruwhere_ct::{Certificate, CtLog, DistinguishedName};
use ruwhere_types::{Country, Date};
use std::sync::Arc;

fn cert(i: u64) -> Certificate {
    Certificate {
        serial: i,
        issuer: DistinguishedName {
            organization: "Prop CA".into(),
            common_name: "P1".into(),
            country: Country::US,
        },
        subject_cn: format!("prop-{i}.ru").parse().unwrap(),
        san: vec![],
        not_before: Date::from_ymd(2022, 1, 1),
        not_after: Date::from_ymd(2022, 4, 1),
        chain_orgs: Arc::from([]),
        ct_logged: true,
    }
}

fn log_of(n: u64) -> CtLog {
    let mut log = CtLog::new("prop");
    for i in 0..n {
        log.append(
            cert(i),
            Date::from_ymd(2022, 1, 1).add_days((i % 60) as i32),
        );
    }
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
