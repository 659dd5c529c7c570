//! Multi-application demo: dependency graphs across applications
//! (Fig 4 of the paper) exercised directly through the library API —
//! build a block by hand, inspect its graph, and watch the executor-side
//! scheduling order.
//!
//! ```sh
//! cargo run --release --example multi_app
//! ```

use parblockchain_repro::contracts::{AccountingContract, AccountingOp, EscrowContract, EscrowOp};
use parblockchain_repro::depgraph::{
    ConflictStats, DependencyGraph, DependencyMode, ExecutionLayers, ReadyTracker,
};
use parblockchain_repro::types::{AppId, Block, BlockNumber, ClientId, Hash32, Key};

fn main() {
    // Two applications sharing a datastore: an accounting app (A0) and an
    // escrow app (A1) whose escrows debit the *same* accounts.
    let accounting = AccountingContract::new(AppId(0));
    let escrow = EscrowContract::new(AppId(1));

    let txs = vec![
        // T0 (A0): fund transfer 1 → 2.
        accounting.transaction(
            ClientId(1),
            0,
            &AccountingOp::Transfer { from: Key(1), to: Key(2), amount: 10 },
        ),
        // T1 (A1): open an escrow debiting account 2 — depends on T0.
        escrow.transaction(
            ClientId(2),
            0,
            &EscrowOp::Open { escrow: Key(100), buyer: Key(2), seller: Key(3), amount: 5 },
        ),
        // T2 (A0): unrelated transfer 4 → 5, fully parallel.
        accounting.transaction(
            ClientId(1),
            1,
            &AccountingOp::Transfer { from: Key(4), to: Key(5), amount: 1 },
        ),
        // T3 (A1): release the escrow to the seller — depends on T1.
        escrow.transaction(
            ClientId(2),
            1,
            &EscrowOp::Release { escrow: Key(100), seller: Key(3) },
        ),
    ];
    let block = Block::new(BlockNumber(1), Hash32::ZERO, txs);
    let graph = DependencyGraph::build(&block, DependencyMode::Full);

    println!("block of {} transactions, {} dependency edges", block.len(), graph.edge_count());
    println!("{}", graph.to_dot());

    // Fig 4: one application is 4(a); a component mixing applications
    // holds a cross-application edge, 4(c); otherwise 4(b).
    let apps: std::collections::BTreeSet<AppId> = graph.apps().iter().copied().collect();
    let cross = ConflictStats::compute(&graph).cross_app_edge_fraction > 0.0;
    match (apps.len(), cross) {
        (0 | 1, _) => println!("Fig 4(a): single application"),
        (_, false) => println!("Fig 4(b): apps independent"),
        (_, true) => {
            println!("Fig 4(c): cross-application dependencies — agents must exchange commit messages mid-block")
        }
    }

    let layers = ExecutionLayers::compute(&graph);
    println!(
        "critical path {} of {} transactions (max parallelism {})",
        layers.critical_path(),
        block.len(),
        layers.max_width()
    );

    // Walk the executor-side schedule.
    let mut tracker = ReadyTracker::new(&graph);
    let mut wave = 0;
    loop {
        let ready = tracker.take_ready();
        if ready.is_empty() {
            break;
        }
        wave += 1;
        let labels: Vec<String> = ready
            .iter()
            .map(|s| format!("T{}({})", s.0, graph.app_of(*s)))
            .collect();
        println!("wave {wave}: execute {} in parallel", labels.join(", "));
        for seq in ready {
            tracker.complete(seq);
        }
    }
    assert!(tracker.is_done());
}
