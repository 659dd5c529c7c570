//! Property tests of the serializability oracle itself (the oracle must
//! not be vacuous): for random blocks with random dependency graphs,
//!
//! * any history generated by a **valid topological schedule** (snapshot
//!   at dispatch, version-stamped writes — exactly the executor's
//!   semantics) matches the sequential dependency-order replay, so the
//!   oracle passes;
//! * a history with a **deliberately swapped conflicting pair** (a
//!   reader dispatched before the writer it depends on) diverges, so
//!   the oracle fails.

use std::collections::HashMap;
use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use parblock_contracts::{
    AccountingContract, AccountingOp, AppRegistry, ExecOutcome, KvContract, KvOp, SmartContract,
    StateReader,
};
use parblock_depgraph::{DependencyGraph, ReadyTracker};
use parblock_ledger::{MvccState, Version};
use parblock_sim::serial_replay;
use parblock_types::{
    AppId, Block, BlockNumber, ClientId, Hash32, Key, NodeId, SeqNo, Transaction, Value,
};

fn registry() -> AppRegistry {
    let mut registry = AppRegistry::new();
    registry.deploy(Arc::new(KvContract::new(AppId(0))), [NodeId(0)]);
    registry
}

fn genesis() -> Vec<(Key, Value)> {
    (0..6u64).map(|k| (Key(k), Value::Int(k as i64 + 2))).collect()
}

/// Executes `block`'s transactions in `order` with the executor's exact
/// semantics: snapshot of the declared read set at dispatch time
/// (latest applied version ≤ own position), version-stamped writes.
/// Valid topological orders reproduce the serial outcome; orders that
/// violate a dependency edge can observe stale snapshots.
fn history_digest(block: &Block, contract: &KvContract, order: &[SeqNo]) -> Hash32 {
    let mut state = MvccState::with_genesis(genesis());
    for &seq in order {
        let tx = block.tx(seq).expect("valid position");
        let position = Version::new(block.number(), seq);
        let snapshot: HashMap<Key, Option<Value>> = tx
            .rw_set()
            .reads()
            .iter()
            .map(|key| (*key, state.get_at(*key, position)))
            .collect();
        struct Snap(HashMap<Key, Option<Value>>);
        impl StateReader for Snap {
            fn try_read(&self, key: Key) -> Option<Value> {
                self.0.get(&key).cloned().flatten()
            }
        }
        if let ExecOutcome::Commit(writes) = contract.execute(tx, &Snap(snapshot)) {
            state.apply(writes, position);
        }
    }
    state.digest_at(Version::new(block.number(), SeqNo(u32::MAX)))
}

/// The oracle's core verdict for a single-block history.
fn serializable(block: &Block, observed: Hash32) -> bool {
    let replay = serial_replay(&[Arc::new(block.clone())], &genesis(), &registry());
    replay.digests[1] == observed
}

/// A random valid topological order of `graph`.
fn random_topo_order(graph: &DependencyGraph, seed: u64) -> Vec<SeqNo> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut tracker = ReadyTracker::new(graph);
    let mut order = Vec::new();
    let mut frontier = tracker.take_ready();
    while !frontier.is_empty() {
        frontier.shuffle(&mut rng);
        let seq = frontier.pop().expect("non-empty");
        order.push(seq);
        frontier.extend(tracker.complete(seq));
    }
    assert!(tracker.is_done());
    order
}

/// Random blocks whose Mix transactions make results value-dependent,
/// plus a guaranteed-impact conflicting pair on private keys 8 → 9:
/// the writer puts a sentinel the reader derives its output from.
fn arb_block() -> impl Strategy<Value = Block> {
    let op = (
        proptest::collection::vec(0u64..6, 0..3),
        proptest::collection::vec(0u64..6, 1..3),
    );
    proptest::collection::vec(op, 0..16).prop_map(|ops| {
        let contract = KvContract::new(AppId(0));
        let mut txs: Vec<_> = ops
            .into_iter()
            .enumerate()
            .map(|(i, (reads, writes))| {
                let op = KvOp::Mix {
                    reads: reads.into_iter().map(Key).collect(),
                    writes: writes.into_iter().map(Key).collect(),
                };
                contract.transaction(ClientId(1), i as u64, &op)
            })
            .collect();
        let n = txs.len() as u64;
        txs.push(contract.transaction(
            ClientId(1),
            n,
            &KvOp::Put {
                key: Key(8),
                value: 777,
            },
        ));
        txs.push(contract.transaction(
            ClientId(1),
            n + 1,
            &KvOp::Mix {
                reads: vec![Key(8)],
                writes: vec![Key(9)],
            },
        ));
        Block::new(BlockNumber(1), Hash32::ZERO, txs)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Valid topological schedules always pass the oracle.
    #[test]
    fn valid_topological_schedules_pass(
        block in arb_block(),
        seed in any::<u64>(),
        reduced in any::<bool>(),
    ) {
        let graph = if reduced {
            DependencyGraph::build(&block)
        } else {
            DependencyGraph::pairwise(&block)
        };
        let contract = KvContract::new(AppId(0));
        let order = random_topo_order(&graph, seed);
        let observed = history_digest(&block, &contract, &order);
        prop_assert!(
            serializable(&block, observed),
            "a dependency-respecting schedule was flagged non-serializable"
        );
    }

    /// Dispatching a reader before the conflicting writer it depends on
    /// must fail the oracle (the oracle is not vacuous).
    #[test]
    fn swapped_conflicting_pair_fails(
        block in arb_block(),
        seed in any::<u64>(),
    ) {
        let graph = DependencyGraph::pairwise(&block);
        let n = block.len() as u32;
        let writer = SeqNo(n - 2); // Put(8, 777)
        let reader = SeqNo(n - 1); // Mix{reads: [8], writes: [9]}
        prop_assert!(graph.has_edge(writer, reader), "conflict edge must exist");
        // A schedule identical to a valid one except the reader is
        // dispatched before its writer.
        let mut order = random_topo_order(&graph, seed);
        let w = order.iter().position(|&s| s == writer).expect("scheduled");
        let r = order.iter().position(|&s| s == reader).expect("scheduled");
        prop_assert!(w < r, "topological order respects the edge");
        let reader_seq = order.remove(r);
        order.insert(w, reader_seq); // reader now runs before the writer
        let contract = KvContract::new(AppId(0));
        let observed = history_digest(&block, &contract, &order);
        prop_assert!(
            !serializable(&block, observed),
            "the oracle accepted a schedule that violates a conflict edge"
        );
    }
}

/// Sanity: the oracle's replay agrees with a direct serial execution on
/// a fixed example, and the abort accounting matches.
#[test]
fn replay_counts_and_heads_are_consistent() {
    let contract = KvContract::new(AppId(0));
    let txs = vec![
        contract.transaction(ClientId(1), 0, &KvOp::Put { key: Key(1), value: 5 }),
        contract.transaction(
            ClientId(1),
            1,
            &KvOp::Mix { reads: vec![Key(1)], writes: vec![Key(2)] },
        ),
    ];
    let block = Block::new(BlockNumber(1), parblock_ledger::Ledger::genesis_hash(), txs);
    let chain = [Arc::new(block.clone())];
    let replay = serial_replay(&chain, &genesis(), &registry());
    assert_eq!(replay.committed, 2);
    assert_eq!(replay.aborted, 0);
    assert_eq!(replay.digests.len(), 2);
    assert_eq!(replay.heads.len(), 2);
    assert_eq!(replay.heads, parblock_sim::chain_heads(&chain));
    // Mix read 5, wrote 6: verify through an independent serial pass.
    let digest = history_digest(&block, &contract, &[SeqNo(0), SeqNo(1)]);
    assert_eq!(digest, replay.digests[1]);
}

/// Commits what the accounting contract commits, plus one key its
/// declared write set leaves out (the contract of
/// `pool::tests::undeclared_writes_abort_instead_of_committing`).
struct Overreach(AccountingContract);

impl SmartContract for Overreach {
    fn app(&self) -> AppId {
        self.0.app()
    }

    fn name(&self) -> &str {
        "overreach"
    }

    fn execute(&self, tx: &Transaction, state: &dyn StateReader) -> ExecOutcome {
        match self.0.execute(tx, state) {
            ExecOutcome::Commit(mut writes) => {
                writes.push((Key(99), Value::Int(1)));
                ExecOutcome::Commit(writes)
            }
            abort => abort,
        }
    }
}

/// The reference replay aborts a write outside the declared write set,
/// as every executor does, so the oracle and the executors agree.
#[test]
fn replay_aborts_an_undeclared_write() {
    let contract = Overreach(AccountingContract::new(AppId(0)));
    let op = AccountingOp::Transfer {
        from: Key(1),
        to: Key(2),
        amount: 1,
    };
    let tx = contract.0.transaction(ClientId(1), 0, &op);
    let block = Block::new(BlockNumber(1), parblock_ledger::Ledger::genesis_hash(), vec![tx]);
    let mut registry = AppRegistry::new();
    registry.deploy(Arc::new(contract), [NodeId(0)]);
    let replay = serial_replay(&[Arc::new(block)], &genesis(), &registry);
    assert_eq!((replay.committed, replay.aborted), (0, 1));
    assert_eq!(replay.digests[1], replay.digests[0], "state untouched");
}
