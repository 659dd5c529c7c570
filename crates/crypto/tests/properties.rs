//! Property tests for the crypto primitives.

use proptest::prelude::*;

use parblock_crypto::{hash_wire, hmac_sha256, sha256, KeyRegistry, Sha256, SignerId};
use parblock_types::wire::Wire;
use parblock_types::{AppId, Block, BlockNumber, ClientId, Hash32, Key, RwSet, Transaction};

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

    /// A block packs its transactions into one table; its hash is still
    /// that of the header, the count and each transaction encoded one by
    /// one, so no block hash moved with the layout.
    #[test]
    fn a_packed_block_hashes_as_its_transactions_one_by_one(
        n in 0usize..40,
        keys in proptest::collection::vec(0u64..8, 0..4),
        payload in proptest::collection::vec(any::<u8>(), 0..16),
    ) {
        let txs: Vec<Transaction> = (0..n as u64)
            .map(|ts| {
                let reads = keys.iter().map(|&k| Key(k + ts));
                let rw = RwSet::new(reads.clone(), reads.take(ts as usize % 3));
                let payload = payload[..payload.len().min(ts as usize)].to_vec();
                Transaction::new(AppId(ts as u16 % 3), ClientId(2), ts, rw, payload)
            })
            .collect();
        let mut preimage = Vec::new();
        9u64.encode(&mut preimage);
        preimage.extend_from_slice(&[5; 32]);
        (n as u64).encode(&mut preimage);
        for tx in &txs {
            tx.encode(&mut preimage);
        }
        let block = Block::new(BlockNumber(9), Hash32([5; 32]), txs);
        prop_assert_eq!(hash_wire(&block), sha256(&preimage));
    }
}
