//! Model tests for the slice-backed [`RwSet`] and for the arithmetic
//! [`Transaction::encoded_len`].
//!
//! `RwSet` keeps each set as a sorted, deduplicated key slice. The model
//! is the representation it replaced, a pair of `BTreeSet<Key>`: every
//! observable (membership, iteration order, `len`, `touched`, the four
//! conflict predicates of its [`RwSet::view`], the wire encoding) must agree with it for keys
//! arriving in any order and with any repetition.

use std::collections::BTreeSet;

use proptest::prelude::*;

use parblock_types::wire::{self, Reader, Wire};
use parblock_types::{AppId, ClientId, Key, RwSet, Transaction};

/// Keys as a sender might list them: unsorted, repeated, from a space
/// small enough that two lists usually overlap.
fn arb_keys() -> impl Strategy<Value = Vec<Key>> {
    proptest::collection::vec(0u64..12, 0..8).prop_map(|raw| raw.into_iter().map(Key).collect())
}

fn model(keys: &[Key]) -> BTreeSet<Key> {
    keys.iter().copied().collect()
}

fn ascending(set: &BTreeSet<Key>) -> Vec<Key> {
    set.iter().copied().collect()
}

fn meets(a: &BTreeSet<Key>, b: &BTreeSet<Key>) -> bool {
    !a.is_disjoint(b)
}

proptest! {
    #[test]
    fn slices_agree_with_the_btreeset_model(reads in arb_keys(), writes in arb_keys()) {
        let (model_reads, model_writes) = (model(&reads), model(&writes));
        let set = RwSet::new(reads, writes);
        prop_assert_eq!(set.reads(), ascending(&model_reads));
        prop_assert_eq!(set.writes(), ascending(&model_writes));
        prop_assert_eq!(set.reads().len(), model_reads.len());
        prop_assert_eq!(set.writes().len(), model_writes.len());
        prop_assert_eq!(set.is_empty(), model_reads.is_empty() && model_writes.is_empty());
        for raw in 0..12 {
            let key = Key(raw);
            prop_assert_eq!(set.reads().contains(&key), model_reads.contains(&key));
            prop_assert_eq!(set.writes().binary_search(&key).is_ok(), model_writes.contains(&key));
        }
        let union: BTreeSet<Key> = model_reads.union(&model_writes).copied().collect();
        prop_assert_eq!(set.view().touched(), ascending(&union));
    }

    #[test]
    fn conflict_predicates_agree_with_the_model(
        reads_a in arb_keys(),
        writes_a in arb_keys(),
        reads_b in arb_keys(),
        writes_b in arb_keys(),
    ) {
        let (ra, wa, rb, wb) =
            (model(&reads_a), model(&writes_a), model(&reads_b), model(&writes_b));
        let (a, b) = (RwSet::new(reads_a, writes_a), RwSet::new(reads_b, writes_b));
        let (a, b) = (a.view(), b.view());
        prop_assert_eq!(a.rw_conflict(b), meets(&ra, &wb));
        prop_assert_eq!(a.ww_conflict(b), meets(&wa, &wb));
        prop_assert_eq!(a.wr_conflict(b), meets(&wa, &rb));
        prop_assert_eq!(
            a.conflicts_with(b),
            meets(&ra, &wb) || meets(&wa, &rb) || meets(&wa, &wb)
        );
        prop_assert_eq!(a.conflicts_with(b), b.conflicts_with(a));
    }

    #[test]
    fn add_read_and_add_write_keep_order_and_ignore_duplicates(
        reads in arb_keys(),
        writes in arb_keys(),
    ) {
        let mut grown = RwSet::default();
        for &key in &reads {
            grown.add_read(key);
        }
        for &key in &writes {
            grown.add_write(key);
        }
        prop_assert_eq!(grown, RwSet::new(reads, writes));
    }

    /// A key list that arrives unsorted and duplicated decodes to the
    /// normalised set and re-encodes to the canonical bytes, which is
    /// what keeps transaction bytes (hence block hashes) a function of
    /// the set and not of how a sender happened to list it.
    #[test]
    fn decode_normalises_and_reencodes_canonically(
        reads in arb_keys(),
        writes in arb_keys(),
        payload in proptest::collection::vec(any::<u8>(), 0..40),
    ) {
        let rw = RwSet::new(reads.clone(), writes.clone());
        let canonical = Transaction::new(AppId(2), ClientId(9), 7, rw, payload.clone());
        // The same transaction as a careless sender would put it on the
        // wire: key lists in arrival order.
        let mut sent = Vec::new();
        9u32.encode(&mut sent);
        7u64.encode(&mut sent);
        2u64.encode(&mut sent);
        wire::encode_key_set(&reads, &mut sent);
        wire::encode_key_set(&writes, &mut sent);
        payload.encode(&mut sent);

        let mut reader = Reader::new(&sent);
        let decoded = Transaction::decode(&mut reader);
        prop_assert!(reader.is_exhausted());
        prop_assert_eq!(decoded.as_ref(), Some(&canonical));
        let decoded = decoded.expect("checked");
        prop_assert_eq!(decoded.wire_bytes(), canonical.wire_bytes());
        prop_assert_eq!(decoded.rw_set().reads(), ascending(&model(&reads)));
        prop_assert_eq!(decoded.rw_set().writes(), ascending(&model(&writes)));
    }

    #[test]
    fn encoded_len_is_the_encoded_length(
        app in 0u16..8,
        client in any::<u32>(),
        ts in any::<u64>(),
        reads in arb_keys(),
        writes in arb_keys(),
        payload in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        let rw = RwSet::new(reads, writes);
        let tx = Transaction::new(AppId(app), ClientId(client), ts, rw, payload);
        prop_assert_eq!(tx.encoded_len(), tx.wire_bytes().len());
    }
}
