//! Multi-application demo: dependency graphs across applications
//! (Fig 4 of the paper) exercised directly through the library API —
//! build a block by hand, inspect its graph, and watch the executor-side
//! scheduling order.
//!
//! ```sh
//! cargo run --release --example multi_app
//! ```

use parblockchain_repro::contracts::{AccountingContract, AccountingOp};
use parblockchain_repro::depgraph::{
    ConflictStats, DependencyGraph, DependencyMode, ExecutionLayers, ReadyTracker,
};
use parblockchain_repro::types::{AppId, Block, BlockNumber, ClientId, Hash32, Key};

fn main() {
    // Two applications sharing a datastore: two accounting apps (A0, A1)
    // whose transfers move funds between the *same* accounts.
    let a0 = AccountingContract::new(AppId(0));
    let a1 = AccountingContract::new(AppId(1));
    let transfer = |from, to, amount| AccountingOp::Transfer {
        from: Key(from),
        to: Key(to),
        amount,
    };

    let txs = vec![
        // T0 (A0): fund transfer 1 → 2.
        a0.transaction(ClientId(1), 0, &transfer(1, 2, 10)),
        // T1 (A1): transfer 2 → 3, debiting account 2 — depends on T0.
        a1.transaction(ClientId(2), 0, &transfer(2, 3, 5)),
        // T2 (A0): unrelated transfer 4 → 5, fully parallel.
        a0.transaction(ClientId(1), 1, &transfer(4, 5, 1)),
        // T3 (A1): pass the funds on 3 → 6 — depends on T1.
        a1.transaction(ClientId(2), 1, &transfer(3, 6, 5)),
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

    // Walk the executor-side schedule: the roots, then whatever each
    // completion releases.
    let mut tracker = ReadyTracker::new(&graph);
    let mut ready = tracker.take_ready();
    let mut wave = 0;
    while !ready.is_empty() {
        wave += 1;
        let labels: Vec<String> = ready
            .iter()
            .map(|s| format!("T{}({})", s.0, graph.app_of(*s)))
            .collect();
        println!("wave {wave}: execute {} in parallel", labels.join(", "));
        ready = ready
            .into_iter()
            .flat_map(|seq| tracker.complete(seq))
            .collect();
    }
    assert!(tracker.is_done());
}
