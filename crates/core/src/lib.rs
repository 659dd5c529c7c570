//! ParBlockchain: a permissioned blockchain in the OXII paradigm (§IV),
//! plus the two baselines the paper evaluates against.
//!
//! Three complete systems share the same substrates (network, crypto,
//! ledger, contracts, workload):
//!
//! * [`oxii`] — **ParBlockchain**: clients → orderers (consensus + block
//!   cutting + dependency-graph generation) → executors running the three
//!   concurrent procedures of §IV-C (execute following the graph,
//!   multicast cut-based COMMIT messages, update state on τ(A) matching
//!   results).
//! * [`ox`] — the classic order-execute paradigm: order first, then every
//!   peer executes sequentially.
//! * [`xov`] — the execute-order-validate paradigm of Hyperledger Fabric:
//!   clients gather endorsements, orderers sequence envelopes, every peer
//!   validates read versions and aborts stale transactions.
//!
//! The [`runner`] module exposes a uniform experiment API used by the
//! examples and the benchmark harness:
//!
//! ```no_run
//! use std::time::Duration;
//! use parblockchain::{run, ClusterSpec, LoadSpec, SystemKind};
//!
//! let spec = ClusterSpec::new(SystemKind::Oxii);
//! let load = LoadSpec {
//!     rate_tps: 2_000.0,
//!     duration: Duration::from_secs(2),
//!     ..LoadSpec::default()
//! };
//! let report = run(&spec, &load);
//! println!("{} tx/s at {:?} avg latency", report.throughput_tps(), report.avg_latency());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Unit tests may read the wall clock, spawn threads and touch files;
// product code answers to `clippy.toml` (DESIGN.md §12).
#![cfg_attr(test, allow(clippy::disallowed_methods))]

pub mod batch;
pub mod cluster;
pub mod cutter;
mod driver;
mod metrics;
pub mod msg;
mod node;
mod orderer;
pub mod ox;
pub mod oxii;
mod pool;
mod quorum;
pub mod runner;
pub mod saturate;
mod shared;
pub mod sim;
pub mod xov;

pub use cluster::{
    ClusterSpec, CommitFlush, ConsensusKind, DurabilityMode, GraphConstruction, MovedGroup,
    SystemKind, TopologySpec,
};
pub use parblock_types::ExecutionMode;
pub use metrics::RunReport;
pub use parblock_trace::{
    Histogram, Stage, StagePair, TraceConfig, TraceRecorder, TraceReport, TxTimeline, STAGE_COUNT,
};
pub use parblock_types::ArrivalProcess;
pub use runner::{run, run_fixed, LoadSpec};
pub use saturate::{
    saturate, saturate_sim, SaturateConfig, SaturateOutcome, SaturatePoint, StageSummary,
};
pub use sim::{
    run_sim, FaultEvent, FaultKind, FaultPlan, OrdererOutcome, ReplicaOutcome, SimConfig,
    SimOutcome,
};
