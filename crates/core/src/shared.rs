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
        // Fresh on-disk mode (the env-driven default): each run starts
        // from an empty store, so unrelated runs sharing one spec never
        // recover each other's state. Wiped once here — node threads
        // open their stores strictly after Shared exists.
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
