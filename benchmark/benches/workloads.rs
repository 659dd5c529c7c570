//! The four workloads and the one cluster they all run on.
//!
//! Every field of the [`ClusterSpec`] is pinned here: `ClusterSpec::new`
//! reads four environment variables, and a benchmark whose configuration
//! depends on the caller's shell measures nothing repeatable.

use std::path::Path;
use std::time::Duration;

use parblock_depgraph::DependencyMode;
use parblock_types::{BlockCutConfig, DurabilityConfig, ExecutionCosts, ExecutionMode};
use parblockchain::{
    ClusterSpec, CommitFlush, ConsensusKind, DurabilityMode, GraphConstruction, SystemKind,
    TopologySpec, TraceConfig,
};

/// Transactions per block. Drain and verify counts are multiples of it,
/// so with the time cut disabled every block is cut by count and ledger
/// heads are comparable between runs.
pub const BLOCK_TXS: usize = 100;

/// Environment variables `ClusterSpec::new` would inherit defaults from.
pub const FORBIDDEN_ENV: [&str; 4] = [
    "PARBLOCK_PIPELINE_DEPTH",
    "PARBLOCK_EXEC_MODE",
    "PARBLOCK_LEGACY_MAILBOXES",
    "PARBLOCK_DATA_DIR",
];

/// One benchmark workload: the input properties that differ between the
/// four, on an otherwise identical cluster.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// One line for BENCHMARK.json: which layer this workload isolates.
    pub why: &'static str,
    pub contention: f64,
    pub cross_app: bool,
    /// Synthetic execution cost per transaction (a sleep on the worker).
    pub cost: Duration,
    /// Worker threads per executor. With zero cost a worker never blocks,
    /// so more workers than cores would only measure the OS scheduler.
    pub exec_pool: usize,
    pub durable: bool,
    /// Poisson arrival rate of the steady segments: 30–55 % of the seed
    /// commit's peak, where percentiles are stable and can move both ways.
    pub steady_tps: f64,
    /// Drain size per second of `--seconds`, chosen so the five drains
    /// take about a third of the run at the seed commit's peak.
    pub drain_txs_per_second: usize,
    /// Whether BENCHMARK.json lists the workload, so that the driver holds
    /// later PRs to its numbers, and `--repeat` counts its disagreements.
    /// `durable` is measured and reported but not gated: its latency and
    /// throughput follow this sandbox's shared disk, whose fsync latency
    /// has multi-second episodes no repetition averages out (README.md).
    pub gated: bool,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "overhead",
        why: "no conflicts, no synthetic cost: wire, HMAC, consensus, network and MVCC CPU is all there is",
        contention: 0.0,
        cross_app: false,
        cost: Duration::ZERO,
        exec_pool: 2,
        durable: false,
        steady_tps: 10_000.0,
        drain_txs_per_second: 2_400,
        gated: true,
    },
    Workload {
        name: "contended",
        why: "80% in-app conflict chains at 500us per tx: graph release, block pipelining and scheduler loss dominate",
        contention: 0.8,
        cross_app: false,
        cost: Duration::from_micros(500),
        exec_pool: 16,
        durable: false,
        steady_tps: 1_600.0,
        drain_txs_per_second: 240,
        gated: true,
    },
    Workload {
        name: "crossapp",
        why: "the same chains spanning applications: each dependency is released by a COMMIT multicast from another agent",
        contention: 0.8,
        cross_app: true,
        cost: Duration::from_micros(500),
        exec_pool: 16,
        durable: false,
        steady_tps: 800.0,
        drain_txs_per_second: 120,
        gated: true,
    },
    Workload {
        name: "durable",
        why: "overhead plus the on-disk store: the difference between the two is WAL append, fsync seal and checkpoints",
        contention: 0.0,
        cross_app: false,
        cost: Duration::ZERO,
        exec_pool: 2,
        durable: true,
        steady_tps: 4_000.0,
        drain_txs_per_second: 1_000,
        gated: false,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Transactions of one drain for a run of `seconds`: a whole number
    /// of blocks, at least ten.
    pub fn drain_txs(&self, seconds: f64) -> usize {
        let blocks = (self.drain_txs_per_second as f64 * seconds) as usize / BLOCK_TXS;
        blocks.max(10) * BLOCK_TXS
    }

    /// How long a block stays open at the steady rate: until it is full
    /// or the time cut fires, whichever is first. It is configuration, not
    /// system, and part of every steady latency; reported so a reader can
    /// subtract it.
    pub fn fill_wait_ms(&self) -> f64 {
        let time_cut_ms = BlockCutConfig::with_max_txns(BLOCK_TXS)
            .max_wait
            .as_secs_f64()
            * 1e3;
        (1e3 * BLOCK_TXS as f64 / self.steady_tps).min(time_cut_ms)
    }

    /// The OXII cluster for this workload. `data_dir` is where a durable
    /// workload persists (ignored otherwise); `count_only_cuts` disables
    /// the time cut for fixed-count phases.
    pub fn spec(&self, seed: u64, data_dir: &Path, count_only_cuts: bool) -> ClusterSpec {
        let mut spec = ClusterSpec::new(SystemKind::Oxii);
        spec.consensus = ConsensusKind::Sequencer;
        spec.orderers = 3;
        spec.apps = 3;
        spec.executors_per_app = 1;
        spec.non_executors = 1;
        spec.block_cut = BlockCutConfig::with_max_txns(BLOCK_TXS);
        if count_only_cuts {
            spec.block_cut.max_wait = Duration::from_secs(60);
        }
        spec.costs = ExecutionCosts::per_tx(self.cost);
        spec.depgraph_mode = DependencyMode::Reduced;
        spec.graph_construction = GraphConstruction::Streaming;
        spec.workload.contention = self.contention;
        spec.workload.cross_app = self.cross_app;
        spec.workload.hotspot = None;
        spec.workload.seed = seed;
        spec.topology = TopologySpec {
            intra: Duration::from_micros(200),
            inter: Duration::from_millis(10),
            moved: None,
        };
        spec.exec_pool = self.exec_pool;
        spec.exec_pipeline_depth = 2;
        spec.execution_mode = ExecutionMode::Pessimistic;
        spec.commit_quorum = None;
        spec.batch_max = 64;
        spec.consensus_timeout = Duration::from_secs(5);
        spec.durability = if self.durable {
            DurabilityMode::OnDisk {
                data_dir: data_dir.to_path_buf(),
                fresh: true,
            }
        } else {
            DurabilityMode::InMemory
        };
        spec.durability_config = DurabilityConfig {
            flush_interval: 64,
            checkpoint_interval: 8,
        };
        spec.capture_state = false;
        spec.commit_flush = CommitFlush::Cut;
        spec.trace = TraceConfig::default();
        spec.legacy_mailboxes = false;
        spec.seed = seed;
        spec
    }
}
