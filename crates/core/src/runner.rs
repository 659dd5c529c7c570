//! The experiment runner: builds a threaded cluster per the spec, applies
//! load, and reports throughput/latency. All three paradigms run the same
//! way: one loop over `node::ids` spawns one thread per node, which
//! builds its node with `node::boot` (the constructor the simulator
//! calls too) and runs it, and one driver submits on the caller's
//! thread.
//!
//! At the end every node thread stops and is joined. The observer's
//! thread hands back its own summary of the run (blocks, ledger head,
//! state digest, durability counters, pipeline gauges), and the report is
//! built from it and the client's books the way `run_sim` builds one
//! (DESIGN.md §17).
//!
//! The driver is the client the simulator steps too (`driver::Client`):
//! [`run`]'s [`LoadSpec`] is `SimConfig::open_loop`'s, and [`run_fixed`]'s
//! count is `SimConfig::new`'s, so a load submits the same arrivals by
//! the same admission rule on either clock. Only the waiting differs:
//! here the caller's thread sleeps toward the client's next instant.
//! Resuming a recovered cluster past its prefix is a simulator run
//! (`SimConfig::with_skip`).
//!
//! # Measurement methodology
//!
//! Load is open-loop: the driver submits at a fixed rate regardless of
//! backpressure, like the paper's "increasing number of clients until
//! the end-to-end throughput is saturated". Throughput is committed
//! transactions over the first-submit→last-commit window; latency is
//! intended arrival at the client (an XOV transaction arrives with its
//! endorsement requests) → commit-at-observer (the first executor), matching
//! §V-C's "when the executors … receive enough number of matching
//! results, the transaction is counted as committed". Points past
//! saturation show queueing-inflated latency — that is the saturation
//! knee the figures look for, not an artifact.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parblock_net::{Endpoint, SimNetwork, Waker};
use parblock_types::ArrivalProcess;

use crate::cluster::ClusterSpec;
use crate::driver::{self, Load};
use crate::metrics::RunReport;
use crate::msg::Msg;
use crate::node::{self, PeerSummary};
use crate::shared::Shared;

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

impl LoadSpec {
    /// The measured span of intended arrivals, as offsets from the start
    /// of submission: `None` (everything measured) without a warm-up or
    /// cool-down.
    ///
    /// # Panics
    ///
    /// Panics when warm-up plus cool-down leaves no measured span.
    pub(crate) fn measurement_window(&self) -> Option<(Duration, Duration)> {
        if self.warmup.is_zero() && self.cooldown.is_zero() {
            return None;
        }
        let phases = self.warmup + self.cooldown;
        assert!(
            phases < self.duration,
            "warm-up + cool-down ({phases:?}) must leave a measured span of {:?}",
            self.duration
        );
        Some((self.warmup, self.duration - self.cooldown))
    }
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

/// A started threaded cluster: the shared context, the network, the
/// endpoint the driver sends on, and one thread per node.
struct Cluster {
    shared: Arc<Shared>,
    net: SimNetwork<Msg>,
    client: Endpoint<Msg>,
    /// Each node's thread, and the waker that ends its wait at stop. The
    /// observer's thread returns its summary; every other returns `None`.
    nodes: Vec<(JoinHandle<Option<PeerSummary>>, Waker<Msg>)>,
}

impl Cluster {
    /// Builds the network and spawns every node of `spec`.
    fn start(spec: &ClusterSpec) -> Self {
        let shared = Shared::new(spec.clone());
        let net: SimNetwork<Msg> = spec.network_builder().build();
        // The XOV client node receives on the driver's endpoint: a second
        // `net.endpoint` would replace the mailbox the driver's endpoint
        // holds.
        let client = net.endpoint(spec.client_node());
        let nodes = node::ids(spec)
            .map(|id| {
                let endpoint = if id == client.id() { client.clone() } else { net.endpoint(id) };
                node::spawn(Arc::clone(&shared), endpoint)
            })
            .collect();
        Cluster { shared, net, client, nodes }
    }

    /// Stops every node, joins the node threads, and builds the report
    /// from the observer's summary.
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
        let mut observer = None;
        for (handle, _) in self.nodes {
            match handle.join() {
                Ok(summary) => observer = observer.or(summary),
                Err(panic) => {
                    first_panic.get_or_insert(panic);
                }
            }
        }
        if let Some(panic) = first_panic {
            std::panic::resume_unwind(panic);
        }
        let messages = self.net.stats().sent();
        self.net.shutdown();
        let trace = self.shared.trace.snapshot();
        RunReport::assemble(&self.shared.metrics, messages, trace, observer)
    }
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
    let _ = load.measurement_window();
    let cluster = Cluster::start(spec);
    let shared = &cluster.shared;
    // The client runs on the caller thread; its schedule ends by
    // `duration`, so the deadline never cuts it short.
    let deadline = shared.clock.now() + load.duration;
    driver::drive(shared, &cluster.client, &Load::Open(load.clone()), deadline);

    // Let in-flight work drain, then stop everything.
    std::thread::sleep(load.drain);
    cluster.finish()
}

/// Runs a *fixed-count* experiment: submits exactly `count` transactions
/// at `rate_tps` (at 0, all at once), at most `COUNT_WINDOW` (8 192)
/// outstanding at a time, and waits until the observer has processed all
/// of them or `timeout` has passed since the first submission. Returns
/// the report.
///
/// Used by correctness tests that compare final states across systems —
/// the committed transaction *set* is identical run-to-run, so state
/// digests are comparable. Under
/// [`SystemKind::Xov`](crate::SystemKind::Xov) the count holds too, but
/// the final state differs from OX's under contention: XOV aborts the
/// transactions whose endorsed reads went stale.
#[must_use]
pub fn run_fixed(spec: &ClusterSpec, count: usize, rate_tps: f64, timeout: Duration) -> RunReport {
    let cluster = Cluster::start(spec);
    let shared = &cluster.shared;
    let deadline = shared.clock.now() + timeout;
    let load = Load::Count { count, rate_tps, skip: 0 };
    driver::drive(shared, &cluster.client, &load, deadline);
    // Polled at the driver's tick: the wait past the last commit falls
    // outside the report's window, into the caller's set-up time.
    while shared.metrics.processed() < count as u64 && shared.clock.now() < deadline {
        std::thread::sleep(driver::TICK);
    }
    cluster.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::SystemKind;

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
            client: net.endpoint(spec.client_node()),
            shared: Shared::new(spec),
            net,
            nodes: vec![(node, waker)],
        };
        let _ = cluster.finish();
    }

    /// Orderers build their consensus replicas on their own threads, so
    /// the spec check is what refuses PBFT below 4 orderers: at once and
    /// on the caller's thread, not when `finish` joins a dead node after
    /// the whole load has run.
    #[test]
    fn pbft_below_four_orderers_is_refused_before_the_load_runs() {
        let mut spec = ClusterSpec::new(SystemKind::Oxii).with_pbft();
        spec.orderers = 3;
        let load = LoadSpec {
            duration: Duration::from_secs(30),
            ..LoadSpec::default()
        };
        let asked = std::time::Instant::now();
        let panic = std::panic::catch_unwind(|| run(&spec, &load)).expect_err("n = 3 must panic");
        let elapsed = asked.elapsed();
        let message = panic
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| panic.downcast_ref::<&str>().copied())
            .unwrap_or_default();
        assert!(message.contains("PBFT needs n ≥ 4"), "{message}");
        assert!(elapsed < Duration::from_secs(1), "refused after {elapsed:?}");
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

    /// Executions wait on the clock in the executor's own thread: a
    /// running OXII cluster has node threads and nothing else (Linux
    /// names a thread in `/proc/self/task/*/comm`; the worker pool this
    /// replaced named its threads `exec-…`).
    #[cfg(target_os = "linux")]
    #[test]
    fn a_running_oxii_cluster_starts_no_execution_threads() {
        let cluster = Cluster::start(&quick_spec(SystemKind::Oxii));
        // Every agent has executed by the time the observer has seen
        // each transaction commit.
        let deadline = cluster.shared.clock.now() + Duration::from_secs(20);
        let load = Load::Count { count: 40, rate_tps: 1_000.0, skip: 0 };
        driver::drive(&cluster.shared, &cluster.client, &load, deadline);
        while cluster.shared.metrics.processed() < 40 && cluster.shared.clock.now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let names: Vec<String> = std::fs::read_dir("/proc/self/task")
            .expect("/proc/self/task")
            .map(|task| {
                let comm = task.expect("task entry").path().join("comm");
                std::fs::read_to_string(comm).unwrap_or_default()
            })
            .collect();
        let _ = cluster.finish();
        let executors: Vec<&String> = names
            .iter()
            .filter(|name| name.starts_with("exec"))
            .collect();
        assert!(executors.is_empty(), "execution threads: {executors:?}");
    }

    /// At rate 0 every arrival is due at the start: the window paces the
    /// run instead of the schedule.
    #[test]
    fn a_fixed_count_run_at_rate_zero_commits_its_count() {
        let report = run_fixed(&quick_spec(SystemKind::Oxii), 200, 0.0, Duration::from_secs(20));
        assert_eq!(report.committed, 200, "{report:?}");
        assert_eq!(report.aborted, 0);
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
