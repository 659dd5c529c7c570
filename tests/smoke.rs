//! Umbrella smoke test: every `parblockchain_repro` re-export resolves
//! and is usable. This is primarily a *compile-time* check — if a
//! re-export breaks, this file stops building — with a small runtime
//! pass through each subsystem to catch wiring mistakes the type check
//! cannot see.

use std::time::Duration;

use parblockchain_repro::{
    consensus, contracts, crypto, depgraph, ledger, net, system, types, workload,
};

/// Each aliased module exposes its flagship types under the paths the
/// examples and docs use.
#[test]
fn umbrella_reexports_resolve() {
    // types
    let key = types::Key(1);
    let rw = types::RwSet::new([key], [types::Key(2)]);
    let tx = types::Transaction::new(types::AppId(0), types::ClientId(7), 1, rw, vec![]);
    let block = types::Block::new(types::BlockNumber(1), types::Hash32::ZERO, vec![tx]);
    assert_eq!(block.len(), 1);

    // crypto
    let digest = crypto::sha256(b"abc");
    assert_eq!(
        digest.to_hex(),
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    );
    let registry = crypto::KeyRegistry::deterministic(2);
    let sig = registry.sign(crypto::SignerId(0), b"m");
    assert!(registry.verify(crypto::SignerId(0), b"m", &sig));

    // depgraph
    let graph = depgraph::DependencyGraph::build(&block, depgraph::DependencyMode::Full);
    assert_eq!(graph.len(), 1);
    let layers = depgraph::ExecutionLayers::compute(&graph);
    assert_eq!(layers.critical_path(), 1);

    // ledger
    let mut state = ledger::MvccState::new();
    state.put(
        key,
        types::Value::Int(3),
        ledger::Version::new(types::BlockNumber(1), types::SeqNo(0)),
    );
    assert_eq!(state.latest(key), types::Value::Int(3));

    // contracts
    let contract = contracts::KvContract::new(types::AppId(0));
    let op = contracts::KvOp::Put { key, value: 9 };
    let tx = contract.transaction(types::ClientId(1), 0, &op);
    let outcome = contracts::SmartContract::execute(&contract, &tx, &state);
    assert!(matches!(outcome, contracts::ExecOutcome::Commit(_)));

    // net
    let netw = net::NetworkBuilder::new()
        .topology(net::Topology::single_dc(Duration::ZERO))
        .build::<u32>();
    let a = netw.endpoint(types::NodeId(0));
    let b = netw.endpoint(types::NodeId(1));
    a.send(types::NodeId(1), 5);
    assert_eq!(b.recv_timeout(Duration::from_secs(1)).unwrap().msg, 5);
    netw.shutdown();

    // consensus
    let mut cluster = consensus::testing::SimCluster::pbft(4, Duration::from_millis(100));
    cluster.submit(0, vec![1, 2, 3]);
    cluster.run_to_quiescence();
    assert!(cluster.all_agree());

    // workload
    let mut wl = workload::WorkloadGen::new(workload::WorkloadConfig {
        block_size: 8,
        ..workload::WorkloadConfig::default()
    });
    assert_eq!(wl.window().len(), 8);

    // system (the three paradigms + runner API)
    let spec = system::ClusterSpec::new(system::SystemKind::Oxii);
    assert_eq!(spec.system, system::SystemKind::Oxii);
    let _ = system::LoadSpec::default();
}
