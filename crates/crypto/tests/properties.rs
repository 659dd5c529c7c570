//! Property tests for the crypto primitives.

use proptest::prelude::*;

use parblock_crypto::{hmac_sha256, sha256, KeyRegistry, Sha256, SignerId};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Incremental hashing over any chunking equals one-shot hashing.
    #[test]
    fn incremental_equals_oneshot(
        data in proptest::collection::vec(any::<u8>(), 0..512),
        cuts in proptest::collection::vec(0usize..512, 0..6),
    ) {
        let want = sha256(&data);
        let mut h = Sha256::new();
        let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c % (data.len() + 1)).collect();
        cuts.sort_unstable();
        let mut prev = 0;
        for cut in cuts {
            h.update(&data[prev..cut.max(prev)]);
            prev = cut.max(prev);
        }
        h.update(&data[prev..]);
        prop_assert_eq!(h.finalize(), want);
    }

    /// Distinct messages (almost surely) hash differently, and hashing is
    /// deterministic.
    #[test]
    fn deterministic_and_sensitive(data in proptest::collection::vec(any::<u8>(), 1..256)) {
        prop_assert_eq!(sha256(&data), sha256(&data));
        let mut flipped = data.clone();
        flipped[0] ^= 0x01;
        prop_assert_ne!(sha256(&data), sha256(&flipped));
    }

    /// HMAC differs when either the key or the message changes.
    #[test]
    fn hmac_sensitivity(
        key in proptest::collection::vec(any::<u8>(), 1..64),
        msg in proptest::collection::vec(any::<u8>(), 0..128),
    ) {
        let mac = hmac_sha256(&key, &msg);
        let mut key2 = key.clone();
        key2[0] ^= 1;
        prop_assert_ne!(hmac_sha256(&key2, &msg), mac);
        let mut msg2 = msg.clone();
        msg2.push(0);
        prop_assert_ne!(hmac_sha256(&key, &msg2), mac);
    }

    /// Signatures verify only for the signer and message they cover.
    #[test]
    fn signature_binding(
        signer in 0u32..8,
        other in 0u32..8,
        msg in proptest::collection::vec(any::<u8>(), 1..128),
    ) {
        let registry = KeyRegistry::deterministic(8);
        let sig = registry.sign(SignerId(signer), &msg);
        prop_assert!(registry.verify(SignerId(signer), &msg, &sig));
        if other != signer {
            prop_assert!(!registry.verify(SignerId(other), &msg, &sig));
        }
        let mut tampered = msg.clone();
        tampered[0] ^= 0xff;
        prop_assert!(!registry.verify(SignerId(signer), &tampered, &sig));
    }
}
