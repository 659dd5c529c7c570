//! Deterministic whole-cluster simulation (DESIGN.md §10).
//!
//! The threaded [`runner`](crate::runner) exercises whatever
//! interleavings the host scheduler happens to produce; this module runs
//! the *same* node set — one table, indexed by id, of the nodes
//! `node::boot` builds for the threaded runner too (the orderers, the
//! OX, XOV or OXII peers and the XOV client node), on the same network
//! engine and the same stores — under a virtual-time cooperative
//! scheduler instead:
//!
//! * one thread: executions complete on the virtual clock, the same
//!   `InlineQueue` rule as on the wall clock (`exec_pool` at a time on
//!   an OXII executor, one after another on each OX peer and XOV
//!   endorser), network messages deliver in `(due, seq)` order
//!   via [`SimNetwork::deliver_due`], and every node takes the threaded
//!   loop's drain-then-tick `node::step` in id order — the network draws
//!   no randomness, so the whole schedule is a pure function of the
//!   spec (its seed drives the workload) and the [`FaultPlan`];
//! * faults — crashes (the node struct is *destroyed*, not just
//!   silenced), restarts (with on-disk recovery and optional WAL-tail
//!   tearing), partitions, link silences — fire at exact virtual
//!   instants, so a failing schedule replays bit-for-bit from its seed;
//! * the outcome exposes every replica's ledger position and state
//!   digest, every orderer's chain position, and the full observer
//!   chain, which is what the serializability / convergence /
//!   exactly-once / recovery oracles in `parblock_sim` consume.
//!
//! All three [`SystemKind`](crate::SystemKind)s run here. What the
//! simulator does not model: handling a message costs no virtual time.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parblock_net::{Endpoint, SimNetwork};
use parblock_types::{Block, BlockNumber, Clock, Hash32, NodeId, TxId};

use crate::cluster::{ClusterSpec, DurabilityMode};
use crate::driver::{self, Load};
use crate::metrics::RunReport;
use crate::msg::Msg;
use crate::node::{self, Node, Peer};
use crate::runner::LoadSpec;
use crate::shared::Shared;

/// Scheduler safety net: the virtual clock never advances by more than
/// this between node housekeeping passes. Every known time-driven
/// deadline (message due times, driver submissions, fault instants, and
/// through `Node::next_deadline` execution completions, orderer timers,
/// batch flushes and cut-marker deadlines) is enumerated explicitly in
/// the time-advance step, so the grain only bounds the cost of anything
/// unenumerated — it is not the scheduler's precision.
const GRAIN: Duration = Duration::from_millis(1);

/// How long the cluster must stay fully quiet (nothing queued, nothing
/// executing, driver done) after the observer processed every
/// transaction before the run is declared drained.
const DRAIN_GRACE: Duration = Duration::from_millis(2);

/// One scheduled fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEvent {
    /// Virtual offset from run start.
    pub at: Duration,
    /// What happens.
    pub kind: FaultKind,
}

/// The fault vocabulary of the simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// Destroy the node: its in-memory state (pipeline, votes, consensus
    /// log, mailbox) is dropped and all its traffic is cut. An on-disk
    /// node keeps its store files, an in-memory node loses everything.
    Crash {
        /// The victim.
        node: NodeId,
    },
    /// Reconnect and reconstruct a crashed node. On-disk nodes run the
    /// full recovery path (checkpoint + WAL replay + chain verification);
    /// in-memory nodes restart from genesis.
    Restart {
        /// The node to bring back.
        node: NodeId,
        /// Bytes to tear off the tail of the node's write-ahead log
        /// before recovery, simulating page-cache writes lost at the
        /// crash (fsync tearing). Zero = clean media; a no-op for
        /// in-memory durability.
        tear_wal_bytes: u64,
    },
    /// Cut every link between the two groups (both directions).
    Partition {
        /// Nodes marked as the faulted side (the minority, by
        /// convention of the plan generators).
        left: Vec<NodeId>,
        /// The other side.
        right: Vec<NodeId>,
    },
    /// Heal exactly the partition installed by the matching
    /// [`FaultKind::Partition`].
    HealPartition {
        /// Left group of the partition being healed.
        left: Vec<NodeId>,
        /// Right group of the partition being healed.
        right: Vec<NodeId>,
    },
    /// Drop every message `from → to` (deterministic link loss).
    SilenceLink {
        /// Sending node (marked faulted).
        from: NodeId,
        /// Receiving node.
        to: NodeId,
    },
    /// Undo the matching [`FaultKind::SilenceLink`].
    HealLink {
        /// Sending node of the silenced link.
        from: NodeId,
        /// Receiving node of the silenced link.
        to: NodeId,
    },
}

/// A schedule of faults, applied at exact virtual instants.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// A fault-free plan.
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// Builds a plan from events (sorted by time; ties keep insertion
    /// order, which keeps plans deterministic).
    #[must_use]
    pub fn new(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| e.at);
        FaultPlan { events }
    }

    /// The scheduled events, in time order.
    #[must_use]
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }
}

/// One deterministic run specification: a cluster, the load its client
/// submits — the same client the threaded runner drives — a deadline
/// and a fault schedule.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// The cluster, of any [`SystemKind`](crate::SystemKind).
    pub spec: ClusterSpec,
    load: Load,
    /// Hard cap on virtual time; a run that has not drained by then is
    /// reported with `completed = false` instead of hanging.
    pub virtual_deadline: Duration,
    /// The fault schedule.
    pub plan: FaultPlan,
}

impl SimConfig {
    /// A fixed-count run, as [`crate::run_fixed`] submits it: exactly
    /// `count` transactions of the seeded workload stream, uniformly
    /// spaced at `rate_tps` (at 0, all at the start), at most 8 192
    /// outstanding. The deadline is 30 virtual seconds.
    #[must_use]
    pub fn new(spec: ClusterSpec, count: usize, rate_tps: f64) -> Self {
        SimConfig {
            spec,
            load: Load::Count { count, rate_tps, skip: 0 },
            virtual_deadline: Duration::from_secs(30),
            plan: FaultPlan::none(),
        }
    }

    /// An open-loop run, as [`crate::run`] submits `load`: its arrival
    /// process and rate for its duration, measured between its warm-up
    /// and cool-down, shed past its `max_outstanding`. The deadline is
    /// the submission span plus the drain.
    ///
    /// # Panics
    ///
    /// Panics when warm-up plus cool-down leaves no measured span.
    #[must_use]
    pub fn open_loop(spec: ClusterSpec, load: &LoadSpec) -> Self {
        let _ = load.measurement_window();
        SimConfig {
            spec,
            load: Load::Open(load.clone()),
            virtual_deadline: load.duration + load.drain,
            plan: FaultPlan::none(),
        }
    }

    /// Resumes a recovered cluster: the first `skip` transactions of the
    /// fixed count are generated and discarded (they are already in the
    /// chain the nodes recover from disk), the rest are submitted.
    /// `skip` must equal `watermark × block_size` of the reconciled
    /// stores (`parblock_store::reconcile_cluster`), and the spec must
    /// cut blocks by count only, so that block boundaries replay.
    ///
    /// # Panics
    ///
    /// Panics on an open-loop config, which has no prefix to skip.
    #[must_use]
    pub fn with_skip(mut self, skip: usize) -> Self {
        let Load::Count { skip: skipped, .. } = &mut self.load else {
            panic!("only a fixed-count run resumes past a prefix");
        };
        *skipped = skip;
        self
    }
}

/// Final position of one executor/non-executor replica.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaOutcome {
    /// The node.
    pub node: NodeId,
    /// Whether any fault ever touched this node.
    pub faulted: bool,
    /// Sealed chain height (number of the last sealed block).
    pub height: u64,
    /// Ledger head hash at that height.
    pub head: Hash32,
    /// State digest at the commit watermark (in-flight later-block
    /// writes excluded).
    pub state_digest: Hash32,
}

/// Final chain position of one orderer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrdererOutcome {
    /// The node.
    pub node: NodeId,
    /// Whether any fault ever touched this node.
    pub faulted: bool,
    /// Whether it was restarted and no fault touched it since.
    pub rejoined: bool,
    /// The next block number it would emit.
    pub next_number: BlockNumber,
    /// Hash of the last block it emitted (genesis hash if none).
    pub head: Hash32,
    /// Sequencer catch-ups it resumed from since its last (re)start: a
    /// state install in memory, a jump to the leader's log start on disk.
    pub catch_ups: u64,
}

/// Everything a deterministic run produces, oracle-ready.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// The usual measurement report (deterministic under the virtual
    /// clock — compare [`RunReport::digest`] across reruns).
    pub report: RunReport,
    /// Whether, before the virtual deadline, the client submitted or
    /// shed its whole load and the observer processed every submitted
    /// transaction.
    pub completed: bool,
    /// Virtual time consumed.
    pub virtual_elapsed: Duration,
    /// Scheduler events handled (messages + completions), a cheap
    /// schedule fingerprint.
    pub events: u64,
    /// Every submitted transaction id, in submission order (shed and
    /// skipped arrivals excluded).
    pub submitted: Vec<TxId>,
    /// The most transactions outstanding at once, read after each round
    /// of submissions: a fixed count's window caps it at 8 192, an open
    /// loop's `max_outstanding` at that cap.
    pub peak_outstanding: u64,
    /// The observer's sealed chain (the reference history the
    /// serializability oracle replays), sharing the observer ledger's
    /// blocks.
    pub observer_chain: Vec<Arc<Block>>,
    /// Per-replica final positions (replicas still crashed at the end of
    /// the run are absent — they have no state to compare).
    pub replicas: Vec<ReplicaOutcome>,
    /// Per-orderer final chain positions (crashed orderers absent).
    pub orderers: Vec<OrdererOutcome>,
}

/// A live node and the mailbox the scheduler drains into it.
struct Slot {
    node: Box<dyn Node>,
    mailbox: Endpoint<Msg>,
}

/// The single-threaded cluster: every node is a plain struct stepped in
/// id order.
struct SimCluster {
    shared: Arc<Shared>,
    net: SimNetwork<Msg>,
    /// The nodes of `node::ids`, indexed by id; `None` marks a
    /// currently-crashed node.
    nodes: Vec<Option<Slot>>,
    /// The endpoint the driver submits on, and the XOV client node's
    /// mailbox.
    client: Endpoint<Msg>,
    ever_faulted: BTreeSet<NodeId>,
    /// Restarted nodes that no fault touched since their last restart.
    rejoined: BTreeSet<NodeId>,
    events: u64,
}

impl SimCluster {
    fn new(spec: &ClusterSpec, clock: &Clock) -> Self {
        let shared = Shared::with_clock(spec.clone(), clock.clone());
        let net: SimNetwork<Msg> = spec
            .network_builder()
            .clock(clock.clone())
            .manual_delivery()
            .build();
        let client = net.endpoint(spec.client_node());
        let mut cluster = SimCluster {
            shared,
            net,
            nodes: node::ids(spec).map(|_| None).collect(),
            client,
            ever_faulted: BTreeSet::new(),
            rejoined: BTreeSet::new(),
            events: 0,
        };
        for id in node::ids(spec) {
            cluster.boot(id);
        }
        cluster
    }

    /// Constructs `id`'s node behind a fresh mailbox (start, restart);
    /// an id that runs no node stays empty.
    fn boot(&mut self, id: NodeId) {
        let Some(slot) = self.nodes.get_mut(id.0 as usize) else {
            return;
        };
        let mailbox = if id == self.client.id() {
            self.client.clone()
        } else {
            self.net.endpoint(id)
        };
        let node = node::boot(Arc::clone(&self.shared), mailbox.clone());
        *slot = Some(Slot { node, mailbox });
    }

    fn fault(&mut self, node: NodeId) {
        self.ever_faulted.insert(node);
        self.rejoined.remove(&node);
    }

    fn crash(&mut self, node: NodeId) {
        self.fault(node);
        self.net.faults().crash(node);
        if let Some(slot) = self.nodes.get_mut(node.0 as usize) {
            *slot = None;
        }
    }

    fn restart(&mut self, node: NodeId, tear_wal_bytes: u64) {
        if tear_wal_bytes > 0 {
            if let DurabilityMode::OnDisk { data_dir, .. } = &self.shared.spec.durability {
                let wal_dir = parblock_store::Store::node_dir(data_dir, node.0).join("wal");
                parblock_store::tear_wal_tail(&wal_dir, tear_wal_bytes)
                    .expect("tearing the WAL tail is a file truncation");
            }
        }
        self.net.faults().restart(node);
        self.boot(node);
        self.rejoined.insert(node);
        if let Some(slot) = self.nodes.get_mut(node.0 as usize).and_then(Option::as_mut) {
            slot.node.rejoin();
        }
    }

    fn apply_fault(&mut self, kind: &FaultKind) {
        let faults = self.net.faults();
        match kind {
            FaultKind::Crash { node } => self.crash(*node),
            FaultKind::Restart {
                node,
                tear_wal_bytes,
            } => self.restart(*node, *tear_wal_bytes),
            FaultKind::Partition { left, right } => {
                faults.partition_groups(left, right);
                for &node in left {
                    self.fault(node);
                }
            }
            FaultKind::HealPartition { left, right } => {
                faults.unpartition_groups(left, right);
            }
            FaultKind::SilenceLink { from, to } => {
                faults.silence(*from, *to);
                self.fault(*from);
            }
            FaultKind::HealLink { from, to } => faults.unsilence(*from, *to),
        }
    }

    /// Steps every live node in id order until none makes progress at
    /// the current instant (zero-latency sends are chased to a
    /// fixpoint). A step drains its whole mailbox: the threaded loop's
    /// cap on one run is about a thread falling behind a producer, and
    /// here nothing is produced while a node steps.
    fn settle(&mut self, now: Instant) {
        loop {
            let mut work = 0;
            for slot in self.nodes.iter_mut().flatten() {
                work += node::step(&mut *slot.node, &slot.mailbox, &self.shared, usize::MAX).0;
            }
            work += self.net.deliver_due(now);
            self.events += work as u64;
            if work == 0 {
                return;
            }
        }
    }

    fn live(&self) -> impl Iterator<Item = (NodeId, &dyn Node)> {
        let slots = self.nodes.iter().flatten();
        slots.map(|slot| (slot.mailbox.id(), &*slot.node))
    }

    fn peers(&self) -> impl Iterator<Item = (NodeId, &dyn Peer)> {
        self.live().filter_map(|(id, node)| node.as_peer().map(|peer| (id, peer)))
    }

    /// The earliest deadline any live node has armed after `now`.
    fn next_deadline(&self, now: Instant) -> Option<Instant> {
        self.live().filter_map(|(_, node)| node.next_deadline(now)).min()
    }

    /// Nothing in flight and, after a settle at `now`, no execution
    /// running (a peer's only deadline is its next completion).
    fn quiet(&self, now: Instant) -> bool {
        self.net.queued() == 0 && self.peers().all(|(_, peer)| peer.next_deadline(now).is_none())
    }
}

/// Runs one deterministic cluster simulation.
///
/// The schedule — message delivery order, execution completion order,
/// block boundaries, fault instants — is a pure function of
/// `config.spec.seed` and `config.plan`: re-running the same config
/// produces a byte-identical [`SimOutcome`] (compare
/// [`RunReport::digest`]).
///
/// # Panics
///
/// Panics on internal invariant violations (the same ones the threaded
/// runner would surface as node panics).
#[must_use]
pub fn run_sim(config: &SimConfig) -> SimOutcome {
    let clock = Clock::simulated();
    let mut cluster = SimCluster::new(&config.spec, &clock);
    let start = clock.now();
    let deadline = start + config.virtual_deadline;
    let mut client = driver::Client::new(&cluster.shared, &config.load, start);

    let mut submitted = Vec::new();
    let mut peak_outstanding = 0u64;
    let mut next_fault = 0usize;
    let mut drained_since: Option<Instant> = None;
    let completed = loop {
        let now = clock.now();

        // 1. Faults due at this instant.
        while next_fault < config.plan.events().len()
            && start + config.plan.events()[next_fault].at <= now
        {
            let kind = config.plan.events()[next_fault].kind.clone();
            cluster.apply_fault(&kind);
            next_fault += 1;
        }

        // 2. Client submissions due and admitted, stamped at their
        // intended arrival (== now unless the window held them back).
        client.submit_due(&cluster.shared, &cluster.client, now, |id| submitted.push(id));
        peak_outstanding = peak_outstanding.max(cluster.shared.metrics.outstanding());

        // 3. Deliver due traffic and step the cluster to a fixpoint
        // (settle's loop starts with a delivery pass of its own, and
        // counts everything it handles into the event fingerprint).
        cluster.settle(now);

        // 4. Termination.
        let processed = cluster.shared.metrics.processed();
        let done = client.exhausted() && processed >= submitted.len() as u64;
        if done && cluster.quiet(now) {
            match drained_since {
                // Quiet must *hold* for the grace window: a block cut
                // marker or retransmission could still be one grain away.
                Some(since) if now.duration_since(since) >= DRAIN_GRACE => break true,
                Some(_) => {}
                None => drained_since = Some(now),
            }
        } else {
            drained_since = None;
        }
        if now >= deadline {
            break done;
        }

        // 5. Advance virtual time to the earliest scheduled event —
        // an arbitrarily long jump when the cluster is idle until a
        // deadline (e.g. a 5 s cut-marker wait costs one iteration, not
        // a polling crawl). The grain is only the fallback when nothing
        // at all is scheduled (the drain-grace countdown).
        let mut next: Option<Instant> = None;
        // Deadlines at or before `now` were already serviced by this
        // iteration's settle pass; only strictly-future instants may
        // drive the advance (`Node::next_deadline` holds its own
        // candidates to the same rule).
        let merge = |next: &mut Option<Instant>, due: Instant| {
            if due > now {
                *next = Some(next.map_or(due, |n| n.min(due)));
            }
        };
        if let Some(due) = cluster.net.next_due() {
            merge(&mut next, due);
        }
        if let Some(due) = cluster.next_deadline(now) {
            merge(&mut next, due);
        }
        // A submission the window held back goes out as soon as the
        // window has room again; while it is full, only the cluster's own
        // events can make room.
        if let Some(due) = client.next_instant(&cluster.shared) {
            merge(&mut next, due.max(now + Duration::from_nanos(1)));
        }
        if next_fault < config.plan.events().len() {
            merge(&mut next, start + config.plan.events()[next_fault].at);
        }
        let next = next.unwrap_or(now + GRAIN);
        clock.advance_to(next.min(deadline).max(now + Duration::from_nanos(1)));
    };
    let virtual_elapsed = clock.now().duration_since(start);

    // The observer's summary and the oracle inputs, read off the live
    // nodes.
    let observer = config.spec.observer();
    let observer_peer = cluster
        .peers()
        .find(|&(id, _)| id == observer)
        .map(|(_, peer)| peer);
    let observer_chain = observer_peer
        .map(|peer| peer.chain().0.blocks().to_vec())
        .unwrap_or_default();
    let summary = observer_peer.map(Peer::summary);
    let replicas: Vec<ReplicaOutcome> = cluster
        .peers()
        .map(|(node, peer)| {
            let (ledger, state) = peer.chain();
            ReplicaOutcome {
                node,
                faulted: cluster.ever_faulted.contains(&node),
                height: ledger.height() as u64,
                head: ledger.head_hash(),
                // Lagging replicas compare prefix against prefix.
                state_digest: node::watermark_digest(ledger, state),
            }
        })
        .collect();
    let orderers: Vec<OrdererOutcome> = cluster
        .live()
        .filter_map(|(node, orderer)| {
            let (next_number, head) = orderer.chain_position()?;
            Some(OrdererOutcome {
                node,
                faulted: cluster.ever_faulted.contains(&node),
                rejoined: cluster.rejoined.contains(&node),
                next_number,
                head,
                catch_ups: orderer.catch_ups(),
            })
        })
        .collect();

    let messages = cluster.net.stats().sent();
    let trace = cluster.shared.trace.snapshot();
    let report = RunReport::assemble(&cluster.shared.metrics, messages, trace, summary);
    let events = cluster.events;
    cluster.net.shutdown();
    SimOutcome {
        report,
        completed,
        virtual_elapsed,
        events,
        submitted,
        peak_outstanding,
        observer_chain,
        replicas,
        orderers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::SystemKind;

    fn sim_spec(seed: u64) -> ClusterSpec {
        paradigm_spec(SystemKind::Oxii, seed)
    }

    fn paradigm_spec(system: SystemKind, seed: u64) -> ClusterSpec {
        let mut spec = ClusterSpec::new(system);
        spec.block_cut = parblock_types::BlockCutConfig {
            max_txns: 25,
            max_bytes: usize::MAX,
            max_wait: Duration::from_secs(5),
        };
        spec.costs = parblock_types::ExecutionCosts::per_tx(Duration::from_micros(50));
        spec.capture_state = true;
        spec.durability = DurabilityMode::InMemory;
        spec.seed = seed;
        spec
    }

    #[test]
    fn a_simulated_cluster_commits_everything_in_virtual_time() {
        let config = SimConfig::new(sim_spec(7), 100, 2_000.0);
        let real_start = std::time::Instant::now();
        let outcome = run_sim(&config);
        assert!(outcome.completed, "{:?}", outcome.report);
        assert_eq!(outcome.report.committed, 100);
        assert_eq!(outcome.report.aborted, 0);
        assert_eq!(outcome.report.blocks, 4);
        assert_eq!(outcome.observer_chain.len(), 4);
        // Virtual time covers the 50 ms submission window; real time must
        // not (the cost model waits are virtual, not slept).
        assert!(outcome.virtual_elapsed >= Duration::from_millis(49));
        assert!(
            real_start.elapsed() < outcome.virtual_elapsed + Duration::from_secs(5),
            "simulation wall time should not track virtual waits"
        );
    }

    /// A fixed-count load offered all at once, larger than the driver's
    /// window: the window fills exactly, never overflows, and every
    /// transaction still commits.
    #[test]
    fn a_fixed_count_run_keeps_at_most_the_window_outstanding() {
        let mut spec = sim_spec(5);
        spec.block_cut = parblock_types::BlockCutConfig::with_max_txns(500);
        spec.costs = parblock_types::ExecutionCosts::zero();
        let count = driver::COUNT_WINDOW as usize + 1_000;
        let outcome = run_sim(&SimConfig::new(spec, count, 0.0));
        assert!(outcome.completed, "{:?}", outcome.report);
        assert_eq!(outcome.peak_outstanding, driver::COUNT_WINDOW);
        assert_eq!(outcome.report.submitted, count as u64);
        assert_eq!(outcome.report.committed, count as u64);
        assert_eq!(outcome.report.aborted, 0);
    }

    /// An open-loop run past saturation under an admission cap: every
    /// arrival of the load is either submitted or shed, and the cap
    /// holds.
    #[test]
    fn an_open_loop_run_sheds_past_its_cap() {
        let mut spec = sim_spec(42);
        spec.costs = parblock_types::ExecutionCosts::per_tx(Duration::from_micros(500));
        spec.workload.contention = 1.0;
        let load = LoadSpec {
            rate_tps: 4_000.0,
            duration: Duration::from_millis(500),
            max_outstanding: Some(50),
            ..LoadSpec::default()
        };
        let outcome = run_sim(&SimConfig::open_loop(spec, &load));
        let report = &outcome.report;
        assert!(report.admission_shed > 0, "{report:?}");
        // Uniform arrivals 250 µs apart in 500 ms.
        assert_eq!(report.submitted + report.admission_shed, 2_000);
        assert_eq!(outcome.submitted.len() as u64, report.submitted);
        assert!(outcome.peak_outstanding <= 50, "{}", outcome.peak_outstanding);
    }

    /// An open loop never waits for the fixed count's window: with more
    /// than [`driver::COUNT_WINDOW`] in flight, every arrival still goes
    /// out at its intended instant.
    #[test]
    fn an_open_loop_run_is_not_held_by_the_count_window() {
        let mut spec = sim_spec(5);
        spec.block_cut = parblock_types::BlockCutConfig::with_max_txns(500);
        spec.costs = parblock_types::ExecutionCosts::zero();
        let load = LoadSpec {
            rate_tps: 10_000_000.0,
            duration: Duration::from_micros(920),
            drain: Duration::from_secs(30),
            ..LoadSpec::default()
        };
        let outcome = run_sim(&SimConfig::open_loop(spec, &load));
        let report = &outcome.report;
        assert!(outcome.completed, "{report:?}");
        assert!(outcome.peak_outstanding > driver::COUNT_WINDOW, "{}", outcome.peak_outstanding);
        assert_eq!(report.submitted, 9_200);
        assert_eq!(report.committed, 9_200);
        assert_eq!(report.driver_overruns, 0);
        assert_eq!(report.driver_max_lag, Duration::ZERO);
    }

    #[test]
    fn same_seed_reruns_are_bit_identical() {
        for system in [SystemKind::Ox, SystemKind::Xov, SystemKind::Oxii] {
            let config = SimConfig::new(paradigm_spec(system, 11), 75, 1_500.0);
            let a = run_sim(&config);
            let b = run_sim(&config);
            assert!(a.completed, "{system}: {:?}", a.report);
            assert_eq!(a.report, b.report, "{system}");
            assert_eq!(a.report.digest(), b.report.digest(), "{system}");
            assert_eq!(a.events, b.events, "{system}: schedules diverged");
            assert_eq!(a.observer_chain, b.observer_chain, "{system}");
        }
    }

    /// A run cut off by its deadline with blocks in flight at depth 2
    /// reports the observer's state at its sealed watermark: the digest
    /// the convergence oracle compares, not one that counts writes of
    /// blocks still executing. (A digest taken at every seal over the
    /// whole state included them, and read differently here.)
    #[test]
    fn a_cut_off_run_reports_the_observer_state_at_its_watermark() {
        let mut spec = sim_spec(7);
        spec.costs = parblock_types::ExecutionCosts::per_tx(Duration::from_micros(500));
        assert_eq!(spec.exec_pipeline_depth, 2);
        let observer = spec.observer();
        let mut config = SimConfig::new(spec, 200, 0.0);
        config.virtual_deadline = Duration::from_micros(3_500);
        let outcome = run_sim(&config);
        assert!(!outcome.completed, "{:?}", outcome.report);
        let replica = outcome
            .replicas
            .iter()
            .find(|r| r.node == observer)
            .expect("observer");
        assert_eq!(outcome.report.blocks, 6);
        assert_eq!(replica.height, 6, "blocks 7 and 8 are still in flight");
        assert_eq!(outcome.report.ledger_head, Some(replica.head));
        assert_eq!(outcome.report.state_digest, Some(replica.state_digest));
    }

    /// On disk the observer times each seal of its store into the trace,
    /// one per block it sealed; in memory there is no seal to time.
    #[test]
    fn the_observer_traces_one_seal_per_block_only_on_disk() {
        for on_disk in [false, true] {
            let tmp = parblock_store::testutil::TempDir::new("sim-seal-trace");
            let mut spec = sim_spec(7);
            spec.trace = parblock_trace::TraceConfig::on();
            if on_disk {
                spec.durability = DurabilityMode::on_disk(tmp.path());
            }
            let report = run_sim(&SimConfig::new(spec, 100, 2_000.0)).report;
            assert_eq!(report.blocks, 4, "on disk: {on_disk}");
            let expected = if on_disk { report.blocks } else { 0 };
            assert_eq!(report.trace.seal.count(), expected, "on disk: {on_disk}");
        }
    }

    #[test]
    fn different_seeds_explore_different_schedules() {
        let a = run_sim(&SimConfig::new(sim_spec(1), 50, 1_500.0));
        let b = run_sim(&SimConfig::new(sim_spec(2), 50, 1_500.0));
        // Different workloads → different histories (heads differ even
        // though both commit 50).
        assert_ne!(a.report.ledger_head, b.report.ledger_head);
    }

    #[test]
    fn all_replicas_converge_without_faults() {
        let outcome = run_sim(&SimConfig::new(sim_spec(3), 100, 2_000.0));
        assert!(outcome.completed);
        let head = outcome.replicas[0].head;
        let digest = outcome.replicas[0].state_digest;
        for replica in &outcome.replicas {
            assert!(!replica.faulted);
            assert_eq!(replica.head, head, "replica {:?}", replica.node);
            assert_eq!(replica.state_digest, digest);
        }
        let orderer_head = outcome.orderers[0].head;
        for orderer in &outcome.orderers {
            assert_eq!(orderer.head, orderer_head);
        }
    }
}
