//! Serializability of dependency-graph execution, tested at the library
//! level where schedules can be controlled exactly.
//!
//! Property: executing a block's transactions in *any* order consistent
//! with the dependency graph — with commit results applied in *any*
//! arrival order under version-stamped writes — produces the same final
//! state as serial execution in block order.

use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use parblockchain_repro::contracts::{ExecOutcome, KvContract, KvOp, SmartContract};
use parblockchain_repro::depgraph::{DependencyGraph, DependencyMode, ReadyTracker};
use parblockchain_repro::ledger::{MvccState, Version};
use parblockchain_repro::types::{
    AppId, Block, BlockNumber, ClientId, Hash32, Key, SeqNo, Value,
};

/// Serial reference: execute in block order, applying writes directly.
fn serial_state(block: &Block, contract: &KvContract, genesis: &MvccState) -> MvccState {
    let mut state = genesis.clone();
    for (seq, tx) in block.iter_seq() {
        match contract.execute(tx, &state) {
            ExecOutcome::Commit(writes) => {
                state.apply(writes, Version::new(block.number(), seq));
            }
            ExecOutcome::Abort(_) => {}
        }
    }
    state
}

/// Graph-scheduled execution with a randomized ready order: repeatedly
/// pick a random ready transaction, execute it against the current
/// state, and apply its writes with version stamping.
fn scheduled_state(
    block: &Block,
    contract: &KvContract,
    genesis: &MvccState,
    graph: &DependencyGraph,
    seed: u64,
) -> MvccState {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut state = genesis.clone();
    let mut tracker = ReadyTracker::new(graph);
    let mut frontier: Vec<SeqNo> = tracker.take_ready();
    while !frontier.is_empty() {
        frontier.shuffle(&mut rng);
        let seq = frontier.pop().expect("non-empty");
        let tx = block.tx(seq).expect("valid");
        if let ExecOutcome::Commit(writes) = contract.execute(tx, &state) {
            state.apply(writes, Version::new(block.number(), seq));
        }
        frontier.extend(tracker.complete(seq));
    }
    assert!(tracker.is_done());
    state
}

fn arb_block() -> impl Strategy<Value = Block> {
    // KvOp::Mix makes results depend on the values read, so ordering
    // mistakes corrupt downstream values and the test notices.
    let op = (
        proptest::collection::vec(0u64..6, 0..3),
        proptest::collection::vec(0u64..6, 1..3),
    );
    proptest::collection::vec(op, 1..24).prop_map(|ops| {
        let contract = KvContract::new(AppId(0));
        let txs = ops
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
        Block::new(BlockNumber(1), Hash32::ZERO, txs)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn any_graph_consistent_schedule_matches_serial(
        block in arb_block(),
        seed in any::<u64>(),
        mode_reduced in any::<bool>(),
    ) {
        let contract = KvContract::new(AppId(0));
        let genesis = MvccState::with_genesis((0..6).map(|k| (Key(k), Value::Int(k as i64))));
        let mode = if mode_reduced {
            DependencyMode::Reduced
        } else {
            DependencyMode::Full
        };
        let graph = DependencyGraph::build(&block, mode);
        let serial = serial_state(&block, &contract, &genesis);
        let scheduled = scheduled_state(&block, &contract, &genesis, &graph, seed);
        prop_assert_eq!(serial.digest(), scheduled.digest());
    }
}
