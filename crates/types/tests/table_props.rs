//! Property tests for the packed transaction table.
//!
//! A block owns its transactions as the rows of one table, a decoded
//! batch as one table, and a transaction built on its own as a table of
//! one row. Whichever table holds a transaction, every accessor and the
//! wire bytes must be those of the transaction it was built from, for
//! key sets that are empty, repeated, equal to each other or disjoint,
//! for empty payloads, and for blocks of up to 1 000 transactions (the
//! largest `BlockCutConfig::max_txns` the figures sweep).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use proptest::prelude::*;

use parblock_types::wire::{self, Reader, Wire};
use parblock_types::{AppId, Block, BlockNumber, ClientId, Hash32, Key, RwSet, Transaction};

thread_local! {
    /// Allocations this thread made while counting was on.
    static ALLOCS: Cell<Option<u64>> = const { Cell::new(None) };
}

struct Counting;

// SAFETY: every method forwards to `System` unchanged; the bookkeeping
// touches one thread-local `Cell` and cannot allocate or unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get().map(|n| n + 1)));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get().map(|n| n + 1)));
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The allocations `work` makes on this thread.
fn allocations(work: impl FnOnce()) -> u64 {
    ALLOCS.with(|n| n.set(Some(0)));
    work();
    ALLOCS.with(|n| n.replace(None)).expect("counting was on")
}

/// Keys as a sender might list them: unsorted, repeated, possibly none.
fn arb_keys() -> impl Strategy<Value = Vec<Key>> {
    proptest::collection::vec(0u64..12, 0..6).prop_map(|raw| raw.into_iter().map(Key).collect())
}

/// One transaction's parts. `shape` picks the write set: 0 the read set
/// itself, 1 keys disjoint from any read, 2 an arbitrary list.
fn arb_parts() -> impl Strategy<Value = (u16, u32, u64, Vec<Key>, Vec<Key>, Vec<u8>)> {
    let ids = (0u16..4, any::<u32>(), any::<u64>());
    let keys = (arb_keys(), 0u8..3, arb_keys());
    let payload = proptest::collection::vec(any::<u8>(), 0..24);
    (ids, keys, payload).prop_map(|((app, client, ts), (reads, shape, other), payload)| {
        let writes = match shape {
            0 => reads.clone(),
            1 => other.iter().map(|k| Key(k.0 + 100)).collect(),
            _ => other,
        };
        (app, client, ts, reads, writes, payload)
    })
}

fn arb_tx() -> impl Strategy<Value = Transaction> {
    arb_parts().prop_map(|(app, client, ts, reads, writes, payload)| {
        let rw = RwSet::new(reads, writes);
        Transaction::new(AppId(app), ClientId(client), ts, rw, payload)
    })
}

/// A block's worth of transactions: up to 8, or up to 1 000.
fn arb_txs(max: usize) -> impl Strategy<Value = Vec<Transaction>> {
    proptest::collection::vec(arb_tx(), 0..max + 1)
}

/// Each transaction's bytes, one after another.
fn one_by_one(txs: &[Transaction]) -> Vec<u8> {
    let mut out = Vec::new();
    for tx in txs {
        out.extend_from_slice(&tx.wire_bytes());
    }
    out
}

fn same_accessors(got: &Transaction, want: &Transaction) -> TestCaseResult {
    prop_assert_eq!(got.id(), want.id());
    prop_assert_eq!(got.app(), want.app());
    prop_assert_eq!(got.client(), want.client());
    prop_assert_eq!(got.rw_set().reads(), want.rw_set().reads());
    prop_assert_eq!(got.rw_set().writes(), want.rw_set().writes());
    for raw in 0..120 {
        let key = Key(raw);
        prop_assert_eq!(
            got.rw_set().declares_write(key),
            want.rw_set().declares_write(key)
        );
    }
    prop_assert_eq!(got.payload(), want.payload());
    prop_assert_eq!(got.encoded_len(), want.encoded_len());
    prop_assert_eq!(got.encoded_len(), got.wire_bytes().len());
    prop_assert_eq!(got.wire_len_hint(), got.encoded_len());
    prop_assert_eq!(got, want);
    Ok(())
}

/// A block's table reads back every transaction it was packed from, and
/// its bytes are the header, the count and each transaction's own bytes:
/// the hash preimage did not move.
fn packed_block_is_its_transactions(txs: &[Transaction], number: u64) -> TestCaseResult {
    let block = Block::new(BlockNumber(number), Hash32([3; 32]), txs.to_vec());
    prop_assert_eq!(block.len(), txs.len());
    for (got, want) in block.transactions().iter().zip(txs) {
        same_accessors(got, want)?;
    }
    let mut expected = Vec::new();
    number.encode(&mut expected);
    expected.extend_from_slice(&[3; 32]);
    (txs.len() as u64).encode(&mut expected);
    expected.extend_from_slice(&one_by_one(txs));
    prop_assert_eq!(block.wire_len_hint(), expected.len());
    prop_assert_eq!(block.wire_bytes(), expected);
    Ok(())
}

/// `Block::from_wire` and `Transaction::decode_many` give back what was
/// encoded, and a block of one table's rows is packed as it is.
fn decoding_round_trips(txs: &[Transaction]) -> TestCaseResult {
    let block = Block::new(BlockNumber(7), Hash32::ZERO, txs.to_vec());
    let bytes = block.wire_bytes();
    let decoded = Block::from_wire(&bytes);
    prop_assert_eq!(decoded.as_ref(), Some(&block));
    let decoded = decoded.expect("checked");
    prop_assert_eq!(decoded.wire_bytes(), bytes.clone());

    let body = one_by_one(txs);
    let mut reader = Reader::new(&body);
    let batch = Transaction::decode_many(&mut reader, txs.len());
    prop_assert!(reader.is_exhausted());
    let batch = batch.expect("well-formed");
    prop_assert_eq!(batch.len(), txs.len());
    for (got, want) in batch.iter().zip(txs) {
        same_accessors(got, want)?;
    }
    let repacked = Block::new(BlockNumber(7), Hash32::ZERO, batch);
    prop_assert_eq!(repacked.wire_bytes(), bytes);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn a_block_of_up_to_1000_is_its_transactions(txs in arb_txs(1_000), number in 1u64..1_000) {
        packed_block_is_its_transactions(&txs, number)?;
        decoding_round_trips(&txs)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn a_packed_block_is_its_transactions(txs in arb_txs(8), number in 1u64..1_000) {
        packed_block_is_its_transactions(&txs, number)?;
    }

    #[test]
    fn decoding_a_block_or_a_batch_round_trips(txs in arb_txs(8)) {
        decoding_round_trips(&txs)?;
    }

    /// Key lists on the wire in arrival order (unsorted, repeated, the
    /// write list equal to the read list or not) decode to the
    /// normalised sets, inside a batch as alone.
    #[test]
    fn a_batch_normalises_what_a_sender_listed(
        first in arb_parts(),
        second in arb_parts(),
    ) {
        let mut sent = Vec::new();
        let mut built = Vec::new();
        for (app, client, ts, reads, writes, payload) in [first, second] {
            client.encode(&mut sent);
            ts.encode(&mut sent);
            u64::from(app).encode(&mut sent);
            wire::encode_key_set(&reads, &mut sent);
            wire::encode_key_set(&writes, &mut sent);
            payload.encode(&mut sent);
            let rw = RwSet::new(reads, writes);
            built.push(Transaction::new(AppId(app), ClientId(client), ts, rw, payload));
        }
        let mut reader = Reader::new(&sent);
        let batch = Transaction::decode_many(&mut reader, 2).expect("well-formed");
        prop_assert!(reader.is_exhausted());
        for (got, want) in batch.iter().zip(&built) {
            same_accessors(got, want)?;
        }
        prop_assert_eq!(one_by_one(&batch), one_by_one(&built));
    }

    /// A count or length prefix the bytes cannot hold is refused, at any
    /// cut of a well-formed block and at any count.
    #[test]
    fn hostile_prefixes_decode_to_none(
        txs in arb_txs(8),
        count in any::<u64>(),
        cut in any::<usize>(),
    ) {
        let block = Block::new(BlockNumber(1), Hash32::ZERO, txs.clone());
        let mut bytes = block.wire_bytes();
        // The count sits after the 8-byte number and the 32-byte hash.
        let lie = count.max(txs.len() as u64 + 1);
        bytes[40..48].copy_from_slice(&lie.to_le_bytes());
        prop_assert_eq!(Block::from_wire(&bytes), None);

        let body = one_by_one(&txs);
        let mut reader = Reader::new(&body);
        let claimed = usize::try_from(lie).unwrap_or(usize::MAX);
        prop_assert!(Transaction::decode_many(&mut reader, claimed).is_none());

        let whole = block.wire_bytes();
        let cut = cut % whole.len();
        prop_assert_eq!(Block::from_wire(&whole[..cut]), None);

        // A transaction whose key-list or payload prefix runs past the end.
        if let Some(tx) = txs.first() {
            let mut one = tx.wire_bytes();
            let at = [20, 28 + 8 * tx.rw_set().reads().len()][cut % 2];
            one[at..at + 8].copy_from_slice(&count.max(1 << 40).to_le_bytes());
            prop_assert_eq!(Transaction::from_wire(&one), None);
        }
    }

    /// A clone is a reference-count bump, wherever the row lives.
    #[test]
    fn cloning_a_transaction_allocates_nothing(txs in arb_txs(8)) {
        let block = Block::new(BlockNumber(1), Hash32::ZERO, txs.clone());
        let mut copies = Vec::with_capacity(2 * txs.len());
        let made = allocations(|| {
            copies.extend(txs.iter().cloned());
            copies.extend(block.transactions().iter().cloned());
        });
        prop_assert_eq!(made, 0);
        prop_assert_eq!(&copies[..txs.len()], &txs[..]);
        prop_assert_eq!(&copies[txs.len()..], block.transactions());
    }
}
