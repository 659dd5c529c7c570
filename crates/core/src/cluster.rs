//! Cluster specification: node layout, topology, application deployment.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use parblock_contracts::{AccountingContract, AppRegistry};
use parblock_crypto::{KeyRegistry, SignerId};
use parblock_depgraph::DependencyMode;
use parblock_net::{DcId, NetworkBuilder, Topology};
use parblock_store::{Recovered, Store};
use parblock_types::{
    AppId, BlockCutConfig, ClientId, DurabilityConfig, ExecutionCosts, ExecutionMode, NodeId,
};
use parblock_workload::WorkloadConfig;

/// Which of the three systems to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemKind {
    /// Order-execute: sequential execution on every peer.
    Ox,
    /// Execute-order-validate (Fabric-style).
    Xov,
    /// OXII / ParBlockchain.
    Oxii,
}

impl std::fmt::Display for SystemKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            SystemKind::Ox => "OX",
            SystemKind::Xov => "XOV",
            SystemKind::Oxii => "OXII",
        };
        f.write_str(s)
    }
}

/// Which ordering protocol the orderers run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConsensusKind {
    /// Kafka-like CFT sequencer (the paper's evaluation setup).
    Sequencer,
    /// PBFT (the paper's Fig 2 setup).
    Pbft,
}

/// When OXII executors multicast their COMMIT messages (§IV-C). **Not
/// read**: executors have one rule, and the type survives only because
/// `benchmark/` assigns [`ClusterSpec::commit_flush`] by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CommitFlush {
    /// Algorithm 2 as executors run it: each in-flight block's results
    /// finished in one `tick` leave as one COMMIT at the end of that tick
    /// (DESIGN.md §2).
    #[default]
    Cut,
}

/// When OXII orderers compute each block's dependency graph. **Not
/// read**: orderers always build it while transactions stream in, and
/// the type survives only because `benchmark/` assigns
/// [`ClusterSpec::graph_construction`] by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum GraphConstruction {
    /// Incrementally while transactions stream in; cut-time emission is
    /// O(pending).
    #[default]
    Streaming,
}

/// The node group moved to the far datacenter in the Fig 7 experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MovedGroup {
    /// Fig 7(a).
    Clients,
    /// Fig 7(b).
    Orderers,
    /// Fig 7(c).
    Executors,
    /// Fig 7(d).
    NonExecutors,
}

/// Where OXII nodes persist their ledger and state (DESIGN.md §9).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DurabilityMode {
    /// No persistence: the seed behaviour. A crashed node loses its
    /// ledger and state.
    InMemory,
    /// Durable `parblock_store` under `data_dir/node-<id>` per node:
    /// write-ahead log, block store, checkpoints, crash recovery.
    OnDisk {
        /// The cluster data directory.
        data_dir: PathBuf,
        /// When `true`, each run starts from an empty store (existing
        /// node directories are wiped at cluster startup), so repeated
        /// runs of one spec never recover each other's state; explicit
        /// crash-recovery setups clear it.
        fresh: bool,
    },
}

impl DurabilityMode {
    /// Stable on-disk durability under `data_dir` (recovery across
    /// runs: the node directories are reused, never wiped).
    #[must_use]
    pub fn on_disk(data_dir: impl Into<PathBuf>) -> Self {
        DurabilityMode::OnDisk {
            data_dir: data_dir.into(),
            fresh: false,
        }
    }
}

/// Datacenter latency model for an experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopologySpec {
    /// Link latency within a datacenter.
    pub intra: Duration,
    /// Link latency between the two datacenters.
    pub inter: Duration,
    /// The group placed in the far datacenter, if any.
    pub moved: Option<MovedGroup>,
}

impl Default for TopologySpec {
    fn default() -> Self {
        TopologySpec {
            intra: Duration::from_micros(200),
            inter: Duration::from_millis(10),
            moved: None,
        }
    }
}

/// Full specification of a simulated cluster.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// The system under test.
    pub system: SystemKind,
    /// Ordering protocol.
    pub consensus: ConsensusKind,
    /// Number of orderer replicas (3 for the sequencer, 4 for PBFT).
    pub orderers: usize,
    /// Number of applications (the paper uses 3).
    pub apps: usize,
    /// Executor (endorser) nodes per application; τ(A) equals this.
    pub executors_per_app: usize,
    /// Passive peers that execute nothing (Fig 7d).
    pub non_executors: usize,
    /// Block-cutting conditions.
    pub block_cut: BlockCutConfig,
    /// Synthetic execution cost model.
    pub costs: ExecutionCosts,
    /// **Not read.** OXII orderers always build reduced
    /// (last-writer/reader) graphs. The field survives only because
    /// `benchmark/` assigns it by name and hands it to its own
    /// `StreamingBuilder`; it goes with the next `benchmark` PR.
    pub depgraph_mode: DependencyMode,
    /// **Not read.** OXII orderers always build each block's graph while
    /// its transactions stream in ([`GraphConstruction::Streaming`]). The
    /// field survives only because `benchmark/` assigns it by name; it
    /// goes with the next `benchmark` PR.
    pub graph_construction: GraphConstruction,
    /// Workload shape (contention etc.). `block_size` is kept in sync
    /// with `block_cut.max_txns` by [`ClusterSpec::workload_config`].
    pub workload: WorkloadConfig,
    /// Latency topology.
    pub topology: TopologySpec,
    /// How many executions one OXII executor runs at once (the lanes of
    /// its execution queue; values below 1 are treated as 1).
    pub exec_pool: usize,
    /// How many blocks an OXII executor may keep **in flight** at once,
    /// executing block `n + 1` over multi-version snapshots while block
    /// `n`'s tail still commits (§III-A's multi-version adaptation).
    /// `1` reproduces the paper's strict block-at-a-time barrier.
    /// Defaults to 2; values below 1 are treated as 1.
    pub exec_pipeline_depth: usize,
    /// **Not read.** There is one execution engine, the paper's
    /// dependency-graph scheduler (DESIGN.md §11). The field survives
    /// only because `benchmark/` assigns it by name; it goes with the
    /// next `benchmark` PR.
    pub execution_mode: ExecutionMode,
    /// τ(A) override: matching results required to commit a transaction.
    /// `None` (default) requires all of an application's agents; fault
    /// tests lower it so a redundant agent set tolerates a crashed or
    /// silenced agent. Clamped to `1..=executors_per_app`.
    pub commit_quorum: Option<usize>,
    /// Maximum transactions per consensus batch: a cap. The entry orderer
    /// orders its open batch the moment it holds this many admitted
    /// requests, so no consensus payload carries more; a batch that stays
    /// short of it is ordered as soon as none of the entry orderer's
    /// batches is in flight, or 1 ms after the last one at the latest.
    pub batch_max: usize,
    /// Consensus view-change timeout.
    pub consensus_timeout: Duration,
    /// Where OXII nodes (orderers and executor peers) persist their
    /// chain and state. Defaults to in-memory.
    pub durability: DurabilityMode,
    /// Fsync batching and checkpoint cadence for on-disk durability.
    pub durability_config: DurabilityConfig,
    /// When set, the report carries the observer's state digest at its
    /// sealed watermark, taken once when the run ends, as
    /// `RunReport::state_digest` (used by correctness tests; costs one
    /// state hash per run).
    pub capture_state: bool,
    /// **Not read.** Executors always flush COMMITs once per `tick`
    /// ([`CommitFlush::Cut`]). The field survives only because
    /// `benchmark/` assigns it by name; it goes with the next `benchmark`
    /// PR.
    pub commit_flush: CommitFlush,
    /// Per-transaction lifecycle tracing (DESIGN.md §14). Disabled by
    /// default: recording costs one branch per stage and the
    /// `RunReport` digest stays byte-identical to pre-tracing runs.
    pub trace: parblock_trace::TraceConfig,
    /// **Must stay `false`.** The single-queue mailbox engine it used to
    /// select was deleted in PR 17, and `true` panics where the network
    /// is built rather than being silently ignored. The field survives
    /// only because `benchmark/` assigns it by name; it goes with the
    /// next `benchmark` PR.
    pub legacy_mailboxes: bool,
    /// RNG seed.
    pub seed: u64,
}

impl ClusterSpec {
    /// A paper-like default: 3 orderers (sequencer), 3 applications with
    /// one executor each, one non-executor, 200-transaction blocks.
    /// Reads nothing from the environment: a run that wants another
    /// value assigns the field.
    #[must_use]
    pub fn new(system: SystemKind) -> Self {
        ClusterSpec {
            system,
            consensus: ConsensusKind::Sequencer,
            orderers: 3,
            apps: 3,
            executors_per_app: 1,
            non_executors: 1,
            block_cut: BlockCutConfig::default(),
            costs: ExecutionCosts::default(),
            depgraph_mode: DependencyMode::Reduced,
            graph_construction: GraphConstruction::default(),
            workload: WorkloadConfig::default(),
            topology: TopologySpec::default(),
            exec_pool: 16,
            exec_pipeline_depth: 2,
            execution_mode: ExecutionMode::Pessimistic,
            commit_quorum: None,
            batch_max: 64,
            consensus_timeout: Duration::from_secs(5),
            durability: DurabilityMode::InMemory,
            durability_config: DurabilityConfig::default(),
            capture_state: false,
            commit_flush: CommitFlush::default(),
            trace: parblock_trace::TraceConfig::default(),
            legacy_mailboxes: false,
            seed: 42,
        }
    }

    /// Switches to PBFT ordering with 4 orderers.
    #[must_use]
    pub fn with_pbft(mut self) -> Self {
        self.consensus = ConsensusKind::Pbft;
        self.orderers = 4;
        self
    }

    // ---- node layout -----------------------------------------------

    /// Orderer node ids: `0..orderers`.
    #[must_use]
    pub fn orderer_ids(&self) -> Vec<NodeId> {
        (0..self.orderers as u32).map(NodeId).collect()
    }

    /// Whether `node` is an orderer: one of [`ClusterSpec::orderer_ids`],
    /// answered without building the list.
    #[must_use]
    pub(crate) fn is_orderer(&self, node: NodeId) -> bool {
        (node.0 as usize) < self.orderers
    }

    /// Executor node ids, grouped `apps × executors_per_app`, following
    /// the orderers.
    #[must_use]
    pub fn executor_ids(&self) -> Vec<NodeId> {
        let base = self.orderers as u32;
        (0..(self.apps * self.executors_per_app) as u32)
            .map(|i| NodeId(base + i))
            .collect()
    }

    /// Non-executor peer ids, following the executors.
    #[must_use]
    pub fn non_executor_ids(&self) -> Vec<NodeId> {
        let base = (self.orderers + self.apps * self.executors_per_app) as u32;
        (0..self.non_executors as u32).map(|i| NodeId(base + i)).collect()
    }

    /// All peers that receive blocks (executors + non-executors).
    #[must_use]
    pub fn peer_ids(&self) -> Vec<NodeId> {
        let mut ids = self.executor_ids();
        ids.extend(self.non_executor_ids());
        ids
    }

    /// The client driver's node id (one shared endpoint for all clients).
    #[must_use]
    pub fn client_node(&self) -> NodeId {
        NodeId(
            (self.orderers + self.apps * self.executors_per_app + self.non_executors) as u32,
        )
    }

    /// Total number of network nodes.
    fn node_count(&self) -> usize {
        self.orderers + self.apps * self.executors_per_app + self.non_executors + 1
    }

    /// The peer whose commits are measured (the first executor).
    #[must_use]
    pub fn observer(&self) -> NodeId {
        self.executor_ids()[0]
    }

    /// The orderer clients submit to (leader of view/epoch 0).
    #[must_use]
    pub fn entry_orderer(&self) -> NodeId {
        self.orderer_ids()[0]
    }

    // ---- deployment -------------------------------------------------

    /// The agents of application `i`: executors `i·k .. (i+1)·k`.
    #[must_use]
    pub fn agents_of(&self, app: AppId) -> Vec<NodeId> {
        let executors = self.executor_ids();
        let k = self.executors_per_app;
        let start = app.0 as usize * k;
        executors[start..start + k].to_vec()
    }

    /// Builds the application registry: one accounting contract per
    /// application (the paper's §V workload), agents per
    /// [`ClusterSpec::agents_of`].
    #[must_use]
    pub fn registry(&self) -> AppRegistry {
        let mut registry = AppRegistry::new();
        for i in 0..self.apps as u16 {
            let app = AppId(i);
            registry.deploy(
                Arc::new(AccountingContract::new(app)),
                self.agents_of(app),
            );
        }
        registry
    }

    /// τ(A), the matching results required to commit a transaction, the
    /// same for every application: every agent by default, or the
    /// [`ClusterSpec::commit_quorum`] override clamped to
    /// `1..=executors_per_app`.
    #[must_use]
    pub fn tau(&self) -> usize {
        self.commit_quorum
            .unwrap_or(self.executors_per_app)
            .clamp(1, self.executors_per_app.max(1))
    }

    /// The mode orderers build each block's dependency graph in: OXII
    /// blocks carry a graph, OX and XOV blocks none. It is always the
    /// reduced rules: they ship the transitive closure of the §III-A
    /// conflict order in O(accesses) edges, and every schedule consistent
    /// with that order is equivalent, so executors need nothing more.
    pub(crate) fn graph_mode(&self) -> Option<DependencyMode> {
        (self.system == SystemKind::Oxii).then_some(DependencyMode::Reduced)
    }

    /// Opens `node`'s durable store under `data_dir/node-<id>` and
    /// recovers what it holds; `None` in memory. Orderers and OXII
    /// executors are the nodes that persist (DESIGN.md §9).
    ///
    /// # Panics
    ///
    /// Panics if the store cannot be opened or is internally
    /// inconsistent: a node that cannot guarantee durability must not
    /// serve.
    pub(crate) fn open_store(&self, node: NodeId) -> Option<(Store, Recovered)> {
        let DurabilityMode::OnDisk { data_dir, .. } = &self.durability else {
            return None;
        };
        let dir = Store::node_dir(data_dir, node.0);
        let opened = Store::open(&dir, self.durability_config)
            .unwrap_or_else(|e| panic!("open durable store {}: {e}", dir.display()));
        Some(opened)
    }

    /// How many matching NEWBLOCK copies a peer waits for (`f + 1` under
    /// PBFT, 1 under the crash-only sequencer).
    #[must_use]
    pub fn newblock_quorum(&self) -> usize {
        match self.consensus {
            ConsensusKind::Sequencer => 1,
            ConsensusKind::Pbft => (self.orderers - 1) / 3 + 1,
        }
    }

    /// The network topology with the configured group in the far DC.
    #[must_use]
    pub fn build_topology(&self) -> Topology {
        let mut topo = Topology::two_dc(self.topology.intra, self.topology.inter);
        let far: Vec<NodeId> = match self.topology.moved {
            None => Vec::new(),
            Some(MovedGroup::Clients) => vec![self.client_node()],
            Some(MovedGroup::Orderers) => self.orderer_ids(),
            Some(MovedGroup::Executors) => self.executor_ids(),
            Some(MovedGroup::NonExecutors) => self.non_executor_ids(),
        };
        topo.place_all(far, DcId(1));
        topo
    }

    /// The network every runner builds its cluster on: this spec's
    /// topology (callers add the clock and delivery mode). Both runners
    /// call it on the caller's thread before any node starts, so it is
    /// also where a spec no node could run on is refused.
    ///
    /// # Panics
    ///
    /// Panics on PBFT with fewer than 4 orderers, which each orderer
    /// would otherwise find only when it builds its replica on its own
    /// thread. Panics when [`ClusterSpec::legacy_mailboxes`] is set: the
    /// engine it selected no longer exists, and running the sharded
    /// engine in its place would silently measure something else.
    pub(crate) fn network_builder(&self) -> NetworkBuilder {
        assert!(
            self.consensus != ConsensusKind::Pbft || self.orderers >= 4,
            "PBFT needs n ≥ 4 (n = 3f + 1), got {} orderers",
            self.orderers
        );
        assert!(
            !self.legacy_mailboxes,
            "ClusterSpec::legacy_mailboxes = true, but PR 17 deleted the legacy \
             single-queue mailbox engine; the field is inert and must stay false"
        );
        NetworkBuilder::new().topology(self.build_topology())
    }

    /// The workload configuration, with the conflict-shaping window tied
    /// to the block size and app list matching the deployment.
    #[must_use]
    pub fn workload_config(&self) -> WorkloadConfig {
        let mut cfg = self.workload.clone();
        cfg.apps = (0..self.apps as u16).map(AppId).collect();
        cfg.block_size = self.block_cut.max_txns.clamp(1, 4096);
        cfg.seed = self.seed;
        cfg
    }

    // ---- signers ----------------------------------------------------

    /// The signer for a node.
    #[must_use]
    pub fn node_signer(&self, node: NodeId) -> SignerId {
        SignerId(node.0)
    }

    /// The signer for a client.
    #[must_use]
    pub fn client_signer(&self, client: ClientId) -> SignerId {
        SignerId(self.node_count() as u32 + client.0)
    }

    /// A key registry covering every node and client.
    #[must_use]
    pub fn build_keys(&self) -> KeyRegistry {
        KeyRegistry::deterministic(self.node_count() as u32 + self.workload.clients)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_layout_is_contiguous_and_disjoint() {
        let spec = ClusterSpec::new(SystemKind::Oxii);
        assert_eq!(spec.orderer_ids(), vec![NodeId(0), NodeId(1), NodeId(2)]);
        assert_eq!(
            spec.executor_ids(),
            vec![NodeId(3), NodeId(4), NodeId(5)]
        );
        assert_eq!(spec.non_executor_ids(), vec![NodeId(6)]);
        assert_eq!(spec.client_node(), NodeId(7));
        assert_eq!(spec.node_count(), 8);
        assert_eq!(spec.observer(), NodeId(3));
    }

    #[test]
    fn agents_partition_executors() {
        let mut spec = ClusterSpec::new(SystemKind::Oxii);
        spec.executors_per_app = 2;
        assert_eq!(spec.agents_of(AppId(0)), vec![NodeId(3), NodeId(4)]);
        assert_eq!(spec.agents_of(AppId(2)), vec![NodeId(7), NodeId(8)]);
        assert_eq!(spec.tau(), 2);
    }

    #[test]
    fn registry_matches_layout() {
        let spec = ClusterSpec::new(SystemKind::Oxii);
        let registry = spec.registry();
        assert_eq!(registry.len(), 3);
        assert!(registry.is_agent(NodeId(4), AppId(1)));
        assert!(!registry.is_agent(NodeId(4), AppId(0)));
    }

    #[test]
    fn pbft_variant_has_four_orderers_and_quorum_two() {
        let spec = ClusterSpec::new(SystemKind::Oxii).with_pbft();
        assert_eq!(spec.orderers, 4);
        assert_eq!(spec.newblock_quorum(), 2);
        assert_eq!(
            ClusterSpec::new(SystemKind::Oxii).newblock_quorum(),
            1
        );
    }

    #[test]
    fn moved_groups_land_in_far_dc() {
        let mut spec = ClusterSpec::new(SystemKind::Oxii);
        spec.topology.moved = Some(MovedGroup::Executors);
        let topo = spec.build_topology();
        assert_eq!(topo.dc_of(spec.executor_ids()[0]), DcId(1));
        assert_eq!(topo.dc_of(spec.orderer_ids()[0]), DcId(0));
        assert_eq!(topo.dc_of(spec.client_node()), DcId(0));
    }

    #[test]
    fn workload_window_follows_block_size() {
        let mut spec = ClusterSpec::new(SystemKind::Oxii);
        spec.block_cut = BlockCutConfig::with_max_txns(50);
        let cfg = spec.workload_config();
        assert_eq!(cfg.block_size, 50);
        assert_eq!(cfg.apps.len(), 3);
    }

    #[test]
    fn pipeline_depth_defaults_sane_and_quorum_clamps() {
        let mut spec = ClusterSpec::new(SystemKind::Oxii);
        assert!(spec.exec_pipeline_depth >= 1);
        spec.executors_per_app = 2;
        assert_eq!(spec.tau(), 2, "default τ = all");
        spec.commit_quorum = Some(1);
        assert_eq!(spec.tau(), 1);
        spec.commit_quorum = Some(99);
        assert_eq!(spec.tau(), 2, "clamped to agents");
        spec.commit_quorum = Some(0);
        assert_eq!(spec.tau(), 1, "clamped to ≥ 1");
    }

    /// τ(A) is never 0, even with no agents per application.
    #[test]
    fn tau_never_returns_zero() {
        let mut spec = ClusterSpec::new(SystemKind::Oxii);
        spec.executors_per_app = 0;
        assert_eq!(spec.tau(), 1);
        spec.commit_quorum = Some(0);
        assert_eq!(spec.tau(), 1);
    }

    #[test]
    fn durability_mode_constructors() {
        let spec = ClusterSpec::new(SystemKind::Oxii);
        let explicit = DurabilityMode::on_disk("/tmp/x");
        assert_eq!(
            explicit,
            DurabilityMode::OnDisk {
                data_dir: PathBuf::from("/tmp/x"),
                fresh: false
            }
        );
        assert!(spec.durability_config.flush_interval >= 1);
    }

    /// `ClusterSpec::new` is a pure constructor: the four environment
    /// overrides it used to honour (the CI matrix legs set them) no
    /// longer reach it.
    #[test]
    fn new_reads_nothing_from_the_environment() {
        let overrides = [
            ("PARBLOCK_PIPELINE_DEPTH", "4"),
            ("PARBLOCK_EXEC_MODE", "anything-but-the-default"),
            ("PARBLOCK_DATA_DIR", "/tmp/parblock-env-override"),
            ("PARBLOCK_LEGACY_MAILBOXES", "1"),
        ];
        for (name, value) in overrides {
            std::env::set_var(name, value);
        }
        let spec = ClusterSpec::new(SystemKind::Oxii);
        for (name, _) in overrides {
            std::env::remove_var(name);
        }
        assert_eq!(spec.exec_pipeline_depth, 2);
        assert_eq!(spec.execution_mode, ExecutionMode::Pessimistic);
        assert_eq!(spec.durability, DurabilityMode::InMemory);
        assert!(!spec.legacy_mailboxes);
    }

    #[test]
    #[should_panic(expected = "PR 17 deleted the legacy single-queue mailbox engine")]
    fn legacy_mailboxes_is_refused_not_ignored() {
        let mut spec = ClusterSpec::new(SystemKind::Oxii);
        spec.legacy_mailboxes = true;
        let _ = spec.network_builder();
    }

    #[test]
    fn signers_do_not_collide() {
        let spec = ClusterSpec::new(SystemKind::Oxii);
        let node_max = spec.node_signer(spec.client_node());
        let client0 = spec.client_signer(ClientId(0));
        assert!(client0.0 > node_max.0);
        let keys = spec.build_keys();
        assert!(keys.len() >= spec.node_count());
    }

    #[test]
    fn display_names() {
        assert_eq!(SystemKind::Ox.to_string(), "OX");
        assert_eq!(SystemKind::Xov.to_string(), "XOV");
        assert_eq!(SystemKind::Oxii.to_string(), "OXII");
    }
}
