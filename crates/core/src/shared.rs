//! Context shared by every thread of a simulated cluster.

use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use parblock_contracts::AppRegistry;
use parblock_crypto::KeyRegistry;
use parblock_trace::TraceRecorder;
use parblock_types::{Clock, Key, Value};
use parblock_workload::WorkloadGen;

use crate::cluster::ClusterSpec;
use crate::metrics::Metrics;

/// Immutable cluster-wide context, one `Arc` per thread.
pub(crate) struct Shared {
    pub spec: ClusterSpec,
    pub registry: AppRegistry,
    pub keys: KeyRegistry,
    pub metrics: Metrics,
    pub stop: Arc<AtomicBool>,
    pub genesis: Vec<(Key, Value)>,
    /// The cluster's time source: the wall clock under the threaded
    /// runner, a simulated clock under the deterministic scheduler
    /// (DESIGN.md §10). Every node reads *now* through this.
    pub clock: Clock,
    /// Per-transaction lifecycle recorder (DESIGN.md §14); disabled
    /// unless `spec.trace.enabled`. Stage hooks across the driver,
    /// orderer, scheduler, executors and store all write here.
    pub trace: TraceRecorder,
}

impl Shared {
    pub(crate) fn new(spec: ClusterSpec) -> Arc<Self> {
        Self::with_clock(spec, Clock::wall())
    }

    pub(crate) fn with_clock(spec: ClusterSpec, clock: Clock) -> Arc<Self> {
        // Fresh on-disk mode (`DurabilityMode::OnDisk { fresh: true }`):
        // each run starts from an empty store, so unrelated runs sharing
        // one spec never recover each other's state. Wiped once here —
        // node threads open their stores strictly after Shared exists.
        if let crate::cluster::DurabilityMode::OnDisk {
            data_dir,
            fresh: true,
        } = &spec.durability
        {
            #[expect(
                clippy::disallowed_methods,
                reason = "wiping the previous run's store dir is setup, not \
                          durability; the store owns all live-path file I/O"
            )]
            let _ = std::fs::remove_dir_all(data_dir);
        }
        let genesis = WorkloadGen::new(spec.workload_config()).genesis();
        let trace = TraceRecorder::new(&clock, spec.trace);
        Arc::new(Shared {
            registry: spec.registry(),
            keys: spec.build_keys(),
            metrics: Metrics::with_clock_and_trace(clock.clone(), trace.clone()),
            stop: Arc::new(AtomicBool::new(false)),
            genesis,
            clock,
            trace,
            spec,
        })
    }
}

/// Nodes stepped by hand in unit tests: messages go in through
/// `on_msg`, and the network delivers nothing on its own.
#[cfg(test)]
pub(crate) mod testing {
    use std::sync::Arc;

    use parblock_depgraph::DependencyGraph;
    use parblock_net::SimNetwork;
    use parblock_types::{AppId, Block, Clock, NodeId, Transaction};

    use super::Shared;
    use crate::cluster::ClusterSpec;
    use crate::msg::{BlockBundle, Msg};
    use crate::pool::tests::Overreach;

    /// A cluster context under a simulated clock, and a network on it
    /// with manual delivery.
    pub(crate) fn stepped(spec: ClusterSpec) -> (Arc<Shared>, Clock, SimNetwork<Msg>) {
        let clock = Clock::simulated();
        let shared = Shared::with_clock(spec, clock.clone());
        let net = shared
            .spec
            .network_builder()
            .clock(clock.clone())
            .manual_delivery()
            .build::<Msg>();
        (shared, clock, net)
    }

    /// [`stepped`], with application 0 running [`Overreach`], and the
    /// lying transfer it commits with a write outside its declared set.
    pub(crate) fn lying(spec: ClusterSpec) -> (Arc<Shared>, Clock, SimNetwork<Msg>, Transaction) {
        let agents = spec.agents_of(AppId(0));
        let (mut shared, clock, net) = stepped(spec);
        let (contract, tx) = Overreach::with_transfer(AppId(0));
        let registry = &mut Arc::get_mut(&mut shared).expect("unshared").registry;
        registry.deploy(contract, agents);
        (shared, clock, net, tx)
    }

    /// Records every transaction of `block` as submitted now, as the
    /// driver would have: the observer's commits and aborts count only
    /// for submitted transactions.
    pub(crate) fn submit_all(shared: &Shared, block: &Block) {
        for tx in block.transactions() {
            shared.metrics.record_submit_at(tx.id(), shared.clock.now());
        }
    }

    /// The entry orderer and its signed NEWBLOCK for `block` with `graph`.
    pub(crate) fn new_block(
        shared: &Shared,
        block: &Arc<Block>,
        graph: Option<DependencyGraph>,
    ) -> (NodeId, Msg) {
        let orderer = shared.spec.entry_orderer();
        let bundle = Arc::new(BlockBundle::new(Arc::clone(block), graph));
        let sig = shared
            .keys
            .sign(shared.spec.node_signer(orderer), &bundle.digest.0);
        let msg = Msg::NewBlock {
            bundle,
            orderer,
            sig,
        };
        (orderer, msg)
    }
}
