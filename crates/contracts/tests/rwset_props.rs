//! Evidence that the built-in contracts never reach the executors'
//! undeclared-read / undeclared-write aborts (DESIGN.md §12): execute
//! each contract over randomized op sequences and assert that every key
//! it *actually* touches at runtime is covered by its declared
//! read/write set. The executors enforce declared ⊇ observed on every
//! execution (an under-declared key costs an abort, not
//! serializability); this samples that the honest contracts never pay.
//!
//! Ops execute against the state produced by applying the committed
//! writes of earlier ops in the same sequence, so multi-step paths
//! (open an account, then transfer from it)
//! are exercised — not just the abort-on-missing-state branches.

use std::cell::RefCell;
use std::collections::BTreeSet;

use proptest::prelude::*;

use parblock_contracts::{
    AccountingContract, AccountingOp, KvContract, KvOp, SmartContract, StateReader,
};
use parblock_ledger::{MvccState, Version};
use parblock_types::{AppId, BlockNumber, ClientId, Key, SeqNo, Transaction, Value};

/// A state view that records every key read through it.
struct RecordingReader<'a> {
    inner: &'a MvccState,
    reads: RefCell<BTreeSet<Key>>,
}

impl<'a> RecordingReader<'a> {
    fn new(inner: &'a MvccState) -> Self {
        RecordingReader {
            inner,
            reads: RefCell::new(BTreeSet::new()),
        }
    }
}

impl StateReader for RecordingReader<'_> {
    fn try_read(&self, key: Key) -> Option<Value> {
        self.reads.borrow_mut().insert(key);
        self.inner.try_read(key)
    }
}

/// Executes `tx` against `state` behind a recording view and asserts
/// observed reads ⊆ declared reads and committed write keys ⊆ declared
/// writes. Committed writes are applied to `state` so later ops in the
/// sequence see them.
fn check_and_apply(
    contract: &dyn SmartContract,
    tx: &Transaction,
    state: &mut MvccState,
    step: u32,
) -> Result<(), TestCaseError> {
    let reader = RecordingReader::new(state);
    let outcome = contract.execute(tx, &reader);
    let observed = reader.reads.into_inner();
    let declared = tx.rw_set();
    for key in &observed {
        prop_assert!(
            declared.reads().contains(key),
            "{}: runtime read of {key:?} is not in the declared read set {:?}",
            contract.name(),
            declared.reads()
        );
    }
    if let Some(writes) = outcome.writes() {
        for (key, _) in writes {
            prop_assert!(
                declared.writes().contains(key),
                "{}: runtime write of {key:?} is not in the declared write set {:?}",
                contract.name(),
                declared.writes()
            );
        }
        let version = Version::new(BlockNumber(1), SeqNo(step));
        state.apply(writes.iter().cloned(), version);
    }
    Ok(())
}

const KEYS: u64 = 6;

fn arb_key() -> impl Strategy<Value = Key> {
    (0u64..KEYS).prop_map(Key)
}

fn arb_keys(max: usize) -> impl Strategy<Value = Vec<Key>> {
    proptest::collection::vec(arb_key(), 0..max)
}

/// The shim proptest only provides unsigned range strategies; signed
/// amounts are derived by offsetting, as in the ledger's mvcc_props.
fn arb_amount(span: u64, offset: i64) -> impl Strategy<Value = i64> {
    (0u64..span).prop_map(move |v| v as i64 - offset)
}

fn arb_genesis() -> impl Strategy<Value = Vec<(Key, Value)>> {
    proptest::collection::vec(((0u64..KEYS), arb_amount(220, 20)), 0..KEYS as usize).prop_map(
        |items| {
            items
                .into_iter()
                .map(|(k, v)| (Key(k), Value::Int(v)))
                .collect()
        },
    )
}

fn arb_accounting_op() -> impl Strategy<Value = AccountingOp> {
    (
        (0u8..4, arb_key(), arb_key(), arb_amount(130, 10)),
        proptest::collection::vec((arb_key(), arb_amount(50, 10)), 0..4),
    )
        .prop_map(|((variant, a, b, amount), sources)| match variant {
            0 => AccountingOp::Open {
                account: a,
                balance: amount,
            },
            1 => AccountingOp::Transfer {
                from: a,
                to: b,
                amount,
            },
            2 => AccountingOp::MultiTransfer { sources, to: b },
            _ => AccountingOp::Audit { account: a },
        })
}

fn arb_kv_op() -> impl Strategy<Value = KvOp> {
    ((0u8..3, arb_key(), arb_amount(100, 50)), arb_keys(4), arb_keys(4)).prop_map(
        |((variant, key, value), reads, writes)| match variant {
            0 => KvOp::Put { key, value },
            1 => KvOp::Mix { reads, writes },
            _ => KvOp::Incr { key, delta: value },
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn accounting_declared_rwset_covers_runtime_accesses(
        genesis in arb_genesis(),
        ops in proptest::collection::vec(arb_accounting_op(), 1..12),
    ) {
        let contract = AccountingContract::new(AppId(0));
        let mut state = MvccState::with_genesis(genesis);
        for (i, op) in ops.iter().enumerate() {
            let tx = contract.transaction(ClientId(1), i as u64, op);
            check_and_apply(&contract, &tx, &mut state, i as u32)?;
        }
    }

    #[test]
    fn kv_declared_rwset_covers_runtime_accesses(
        genesis in arb_genesis(),
        ops in proptest::collection::vec(arb_kv_op(), 1..12),
    ) {
        let contract = KvContract::new(AppId(2));
        let mut state = MvccState::with_genesis(genesis);
        for (i, op) in ops.iter().enumerate() {
            let tx = contract.transaction(ClientId(1), i as u64, op);
            check_and_apply(&contract, &tx, &mut state, i as u32)?;
        }
    }
}
