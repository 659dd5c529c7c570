//! The experiment runner: builds a cluster per the spec, applies load,
//! and reports throughput/latency.
//!
//! # Measurement methodology
//!
//! Load is open-loop: the driver submits at a fixed rate regardless of
//! backpressure, like the paper's "increasing number of clients until
//! the end-to-end throughput is saturated". Throughput is committed
//! transactions over the first-submit→last-commit window; latency is
//! submit-at-client → commit-at-observer (the first executor), matching
//! §V-C's "when the executors … receive enough number of matching
//! results, the transaction is counted as committed". Points past
//! saturation show queueing-inflated latency — that is the saturation
//! knee the figures look for, not an artifact.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parblock_net::{SimNetwork, Waker};
use parblock_types::ArrivalProcess;

use crate::cluster::{ClusterSpec, SystemKind};
use crate::metrics::RunReport;
use crate::msg::Msg;
use crate::node::spawn_node;
use crate::orderer::Orderer;
use crate::ox::OxPeer;
use crate::oxii::Executor;
use crate::shared::Shared;
use crate::sim::build_protocol;
use crate::xov::XovPeer;
use crate::{driver, xov};

/// Offered load for one run.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadSpec {
    /// Open-loop submission rate (transactions per second).
    pub rate_tps: f64,
    /// How long the driver submits.
    pub duration: Duration,
    /// Grace period after submission stops, letting in-flight
    /// transactions commit before measurement ends.
    pub drain: Duration,
    /// Shape of the arrival process (uniform, Poisson, bursty). The
    /// schedule is seeded from the cluster seed, so two runs of the same
    /// spec offer identical arrival instants.
    pub arrival: ArrivalProcess,
    /// Initial span of `duration` whose arrivals are excluded from the
    /// measured rate and the latency percentiles (pipelines filling,
    /// caches cold). Zero measures from the first arrival.
    pub warmup: Duration,
    /// Final span of `duration` excluded from measurement (transactions
    /// arriving this late race the end of the run). Zero measures to the
    /// last arrival.
    pub cooldown: Duration,
    /// Admission-control cap: arrivals finding this many transactions
    /// already in flight are shed (counted in
    /// [`RunReport::admission_shed`], never submitted). `None` submits
    /// unconditionally — the honest open-loop default.
    pub max_outstanding: Option<u64>,
}

impl Default for LoadSpec {
    fn default() -> Self {
        LoadSpec {
            rate_tps: 1_000.0,
            duration: Duration::from_secs(1),
            drain: Duration::from_millis(800),
            arrival: ArrivalProcess::Uniform,
            warmup: Duration::ZERO,
            cooldown: Duration::ZERO,
            max_outstanding: None,
        }
    }
}

/// A started threaded cluster: the shared context, the network, and one
/// thread per orderer and peer.
struct Cluster {
    shared: Arc<Shared>,
    net: SimNetwork<Msg>,
    /// Each node's thread, and the waker that ends its wait at stop.
    nodes: Vec<(JoinHandle<()>, Waker<Msg>)>,
}

impl Cluster {
    /// Builds the network and spawns every orderer and peer of `spec`.
    fn start(spec: &ClusterSpec) -> Self {
        let shared = Shared::new(spec.clone());
        let net: SimNetwork<Msg> = spec.network_builder().build();
        let mut nodes = Vec::new();

        let graph_mode = match spec.system {
            SystemKind::Oxii => Some(spec.depgraph_mode),
            SystemKind::Ox | SystemKind::Xov => None,
        };
        for &id in &spec.orderer_ids() {
            let protocol = build_protocol(spec, id);
            nodes.push(spawn_node(
                "orderer",
                Arc::clone(&shared),
                net.endpoint(id),
                move |shared, endpoint| Orderer::new(shared, endpoint, protocol, graph_mode),
            ));
        }

        // Peers (executors + non-executors).
        for &id in &spec.peer_ids() {
            let endpoint = net.endpoint(id);
            let shared = Arc::clone(&shared);
            nodes.push(match spec.system {
                SystemKind::Oxii => spawn_node("executor", shared, endpoint, Executor::new),
                SystemKind::Ox => spawn_node("ox-peer", shared, endpoint, OxPeer::new),
                SystemKind::Xov => spawn_node("xov-peer", shared, endpoint, XovPeer::new),
            });
        }
        Cluster { shared, net, nodes }
    }

    /// Stops every node, joins the node threads, and takes the report.
    ///
    /// # Panics
    ///
    /// Re-raises the first node-thread panic once every node is joined:
    /// a node that died mid-run fails the run instead of leaving a
    /// partial report behind.
    fn finish(self) -> RunReport {
        self.shared.stop.store(true, Ordering::Relaxed);
        for (_, waker) in &self.nodes {
            waker.wake();
        }
        let mut first_panic = None;
        for (handle, _) in self.nodes {
            if let Err(panic) = handle.join() {
                first_panic.get_or_insert(panic);
            }
        }
        if let Some(panic) = first_panic {
            std::panic::resume_unwind(panic);
        }
        let messages = self.net.stats().sent();
        self.net.shutdown();
        let mut report = self.shared.metrics.report();
        report.messages = messages;
        report.trace = self.shared.trace.snapshot();
        report
    }
}

/// The span of a `duration`-long submission whose arrivals are measured
/// (`duration − warmup − cooldown`).
///
/// # Panics
///
/// Panics when warm-up plus cool-down leaves no measured span.
pub(crate) fn measured_span(duration: Duration, warmup: Duration, cooldown: Duration) -> Duration {
    let phases = warmup + cooldown;
    assert!(
        phases < duration,
        "warm-up + cool-down ({phases:?}) must leave a measured span of {duration:?}"
    );
    duration - phases
}

/// Runs one experiment: spins up the cluster described by `spec`,
/// applies `load`, and returns the measured report.
///
/// # Panics
///
/// Panics on inconsistent specs (e.g. PBFT with fewer than 4 orderers)
/// and on a warm-up plus cool-down that leaves no measured span — these
/// are configuration bugs, surfaced before any thread starts.
#[must_use]
pub fn run(spec: &ClusterSpec, load: &LoadSpec) -> RunReport {
    let windowed = !load.warmup.is_zero() || !load.cooldown.is_zero();
    if windowed {
        let _ = measured_span(load.duration, load.warmup, load.cooldown);
    }
    let cluster = Cluster::start(spec);
    let shared = &cluster.shared;

    // Client driver (runs on the caller thread). The measurement window
    // is anchored to the driver's schedule origin so warm-up/cool-down
    // spans cut on *intended* arrival times.
    let client_endpoint = cluster.net.endpoint(spec.client_node());
    let drive_start = shared.clock.now();
    if windowed {
        shared.metrics.set_measurement_window(
            drive_start + load.warmup,
            drive_start + (load.duration - load.cooldown),
        );
    }
    match spec.system {
        SystemKind::Oxii | SystemKind::Ox => {
            driver::run_driver(shared, &client_endpoint, load, drive_start);
        }
        SystemKind::Xov => {
            xov::run_xov_driver(shared, &client_endpoint, load.rate_tps, load.duration);
        }
    }

    // Let in-flight work drain, then stop everything.
    std::thread::sleep(load.drain);
    cluster.finish()
}

/// Runs a *fixed-count* experiment: submits exactly `count` transactions
/// at `rate_tps`, then waits (up to `timeout`) until the observer has
/// processed all of them. Returns the report.
///
/// Used by correctness tests that compare final states across systems —
/// the committed transaction *set* is identical run-to-run, so state
/// digests are comparable.
///
/// # Panics
///
/// Panics for [`SystemKind::Xov`]: endorsement-phase timing makes an
/// exact count guarantee meaningless there, and the state comparison is
/// invalid anyway because XOV aborts conflicting transactions.
#[must_use]
pub fn run_fixed(spec: &ClusterSpec, count: usize, rate_tps: f64, timeout: Duration) -> RunReport {
    run_fixed_from(spec, 0, count, rate_tps, timeout)
}

/// Like [`run_fixed`], but resumes a recovered cluster: transactions
/// `[0, skip)` of the deterministic workload stream are generated and
/// *discarded* (they are already in the chain the nodes recovered from
/// disk), transactions `[skip, count)` are submitted, and the runner
/// waits until `count - skip` of them are processed at the observer.
///
/// `skip` must equal `watermark × block_size` of the reconciled stores
/// (see `parblock_store::reconcile_cluster`), and the spec must use
/// count-only block cuts so block boundaries are deterministic — the
/// same requirement the recovery test's byte-equality assertions rely on.
///
/// # Panics
///
/// Panics for [`SystemKind::Xov`], like [`run_fixed`].
#[must_use]
pub fn run_fixed_from(
    spec: &ClusterSpec,
    skip: usize,
    count: usize,
    rate_tps: f64,
    timeout: Duration,
) -> RunReport {
    assert!(
        spec.system != SystemKind::Xov,
        "run_fixed supports OX and OXII only"
    );
    let cluster = Cluster::start(spec);
    let shared = &cluster.shared;

    let client_endpoint = cluster.net.endpoint(spec.client_node());
    driver::run_driver_count_from(shared, &client_endpoint, rate_tps, skip, count);

    let expected = count.saturating_sub(skip) as u64;
    let deadline = shared.clock.now() + timeout;
    while shared.metrics.processed() < expected && shared.clock.now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    cluster.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_load(rate: f64) -> LoadSpec {
        LoadSpec {
            rate_tps: rate,
            duration: Duration::from_millis(400),
            drain: Duration::from_millis(400),
            ..LoadSpec::default()
        }
    }

    fn quick_spec(system: SystemKind) -> ClusterSpec {
        let mut spec = ClusterSpec::new(system);
        spec.block_cut = parblock_types::BlockCutConfig {
            max_txns: 20,
            max_bytes: usize::MAX,
            max_wait: Duration::from_millis(10),
        };
        spec.costs = parblock_types::ExecutionCosts::per_tx(Duration::from_micros(20));
        spec.topology.intra = Duration::from_micros(50);
        spec.exec_pool = 4;
        spec
    }

    #[test]
    #[should_panic(expected = "node thread died")]
    fn a_panicking_node_thread_fails_the_run() {
        let spec = quick_spec(SystemKind::Oxii);
        let net: SimNetwork<Msg> = spec.network_builder().build();
        let waker = net.endpoint(spec.orderer_ids()[0]).waker();
        let node = std::thread::spawn(|| panic!("node thread died"));
        let cluster = Cluster {
            shared: Shared::new(spec),
            net,
            nodes: vec![(node, waker)],
        };
        let _ = cluster.finish();
    }

    #[test]
    #[should_panic(expected = "must leave a measured span")]
    fn window_that_leaves_no_measured_span_panics_instead_of_measuring_everything() {
        let mut load = quick_load(500.0);
        load.warmup = load.duration;
        let _ = run(&quick_spec(SystemKind::Oxii), &load);
    }

    #[test]
    fn oxii_end_to_end_commits_transactions() {
        let report = run(&quick_spec(SystemKind::Oxii), &quick_load(500.0));
        assert!(report.committed > 50, "committed = {}", report.committed);
        assert!(report.blocks > 0);
        assert_eq!(report.aborted, 0);
        assert!(!report.latencies_us.is_empty());
    }

    #[test]
    fn ox_end_to_end_commits_transactions() {
        let report = run(&quick_spec(SystemKind::Ox), &quick_load(500.0));
        assert!(report.committed > 50, "committed = {}", report.committed);
        assert_eq!(report.aborted, 0);
    }

    #[test]
    fn xov_end_to_end_commits_transactions() {
        let report = run(&quick_spec(SystemKind::Xov), &quick_load(300.0));
        assert!(report.committed > 30, "committed = {}", report.committed);
    }

    #[test]
    fn xov_aborts_under_full_contention() {
        let mut spec = quick_spec(SystemKind::Xov);
        spec.workload.contention = 1.0;
        let report = run(&spec, &quick_load(300.0));
        assert!(
            report.aborted > report.committed,
            "committed={} aborted={}",
            report.committed,
            report.aborted
        );
    }

    #[test]
    fn oxii_does_not_abort_under_full_contention() {
        let mut spec = quick_spec(SystemKind::Oxii);
        spec.workload.contention = 1.0;
        let report = run(&spec, &quick_load(300.0));
        assert_eq!(report.aborted, 0);
        assert!(report.committed > 30, "committed = {}", report.committed);
    }

    #[test]
    fn oxii_with_pbft_ordering_works() {
        let spec = quick_spec(SystemKind::Oxii).with_pbft();
        let report = run(&spec, &quick_load(300.0));
        assert!(report.committed > 30, "committed = {}", report.committed);
    }
}
