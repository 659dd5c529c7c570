//! Seed → (cluster shape, fault schedule) derivation.
//!
//! One `u64` seed fixes *everything* about a run: the workload stream
//! (through `ClusterSpec::seed`; the network draws no randomness), the cluster shape
//! (contention level, pipeline depth, durability backend), and the fault
//! schedule (which nodes fail, how, and at which virtual instants). The
//! explorer sweeps seeds; a failing seed is a complete repro.
//!
//! Fault plans are constrained to *survivable* schedules so the oracles
//! stay sharp (an unsurvivable plan fails liveness trivially and proves
//! nothing):
//!
//! * the entry orderer (the sequencer leader clients submit to) is never
//!   faulted — client REQUESTs are fire-and-forget, so losing it loses
//!   transactions by design;
//! * at most one of the two follower orderers is faulted, keeping the
//!   ordering majority intact;
//! * executor victims are always the *second* agent of an application
//!   (the observer is the first agent of app 0 and every app keeps
//!   τ(A) = 1 satisfiable through its first agent).

use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use parblock_store::testutil::TempDir;
use parblock_types::{AppId, NodeId};
use parblockchain::{
    ClusterSpec, DurabilityMode, FaultEvent, FaultKind, FaultPlan, SimConfig, SystemKind,
};

/// Explorer-wide knobs (per-seed variation happens inside
/// [`plan_for_seed`]).
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Transactions per run.
    pub count: usize,
    /// Open-loop virtual submission rate.
    pub rate_tps: f64,
    /// Whether fault schedules are generated at all (`false` = pure
    /// schedule exploration over fault-free runs).
    pub faults: bool,
    /// Block size (count cuts only: recovery equivalence compares chains
    /// byte-for-byte, which needs schedule-independent boundaries).
    pub block_txns: usize,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            count: 150,
            rate_tps: 2_000.0,
            faults: true,
            block_txns: 25,
        }
    }
}

/// A fully derived per-seed run: the simulation config, a human-readable
/// description of what the seed explores, and (for on-disk seeds) the
/// guard keeping the store directory alive for the run's duration.
#[derive(Debug)]
pub struct SeedPlan {
    /// The run specification handed to `run_sim`.
    pub config: SimConfig,
    /// What this seed varies, for failure reports.
    pub description: String,
    /// Tempdir guard for on-disk durability (`None` = in-memory).
    pub data_dir: Option<TempDir>,
}

fn ms(rng: &mut StdRng, lo: u64, hi: u64) -> Duration {
    Duration::from_millis(rng.gen_range(lo..hi))
}

/// Derives the complete run plan for `seed`.
#[must_use]
pub fn plan_for_seed(seed: u64, explore: &ExploreConfig) -> SeedPlan {
    // Independent streams for shape and faults so toggling faults never
    // changes the cluster shape a seed explores.
    let mut shape_rng = StdRng::seed_from_u64(seed ^ 0x5157_4A5F_5348_4150);
    let mut fault_rng = StdRng::seed_from_u64(seed ^ 0x5157_4A5F_464C_5453);

    let mut spec = ClusterSpec::new(SystemKind::Oxii);
    spec.seed = seed;
    spec.block_cut = parblock_types::BlockCutConfig {
        max_txns: explore.block_txns,
        max_bytes: usize::MAX,
        max_wait: Duration::from_secs(5),
    };
    spec.costs = parblock_types::ExecutionCosts::per_tx(Duration::from_micros(50));
    spec.capture_state = true;
    spec.executors_per_app = 2;
    spec.commit_quorum = Some(1);
    let contention = [0.0, 0.5, 0.9][shape_rng.gen_range(0usize..3)];
    spec.workload.contention = contention;
    spec.workload.cross_app = shape_rng.gen_bool(0.3);
    let depth = [1usize, 2, 4][shape_rng.gen_range(0usize..3)];
    spec.exec_pipeline_depth = depth;

    let on_disk = shape_rng.gen_bool(1.0 / 3.0);
    let data_dir = if on_disk {
        let dir = TempDir::new(&format!("simexplore-{seed}"));
        spec.durability = DurabilityMode::OnDisk {
            data_dir: dir.path().to_path_buf(),
            fresh: true,
        };
        spec.durability_config = parblock_types::DurabilityConfig {
            flush_interval: [1usize, 8, 64][shape_rng.gen_range(0usize..3)],
            checkpoint_interval: 4,
        };
        Some(dir)
    } else {
        spec.durability = DurabilityMode::InMemory;
        None
    };

    // Fault window: while load is flowing plus a little drain margin.
    let window_ms = ((explore.count as f64 / explore.rate_tps) * 1_000.0) as u64 + 20;
    let mut events = Vec::new();
    let mut kinds = Vec::new();
    if explore.faults {
        let peer_ids = spec.peer_ids();
        let all_nodes: Vec<NodeId> = {
            let mut nodes = spec.orderer_ids();
            nodes.extend(spec.peer_ids());
            nodes.push(spec.client_node());
            nodes
        };

        // Per application: maybe fault its *second* agent (crash+restart
        // or a COMMIT-silence window).
        for app in 0..spec.apps as u16 {
            if !fault_rng.gen_bool(0.55) {
                continue;
            }
            let victim = spec.agents_of(AppId(app))[1];
            let start = ms(&mut fault_rng, 2, window_ms.max(3));
            let heal = start + ms(&mut fault_rng, 5, 45);
            if fault_rng.gen_bool(0.5) {
                let tear = if on_disk && fault_rng.gen_bool(0.5) {
                    fault_rng.gen_range(1u64..160)
                } else {
                    0
                };
                events.push(FaultEvent {
                    at: start,
                    kind: FaultKind::Crash { node: victim },
                });
                events.push(FaultEvent {
                    at: heal,
                    kind: FaultKind::Restart {
                        node: victim,
                        tear_wal_bytes: tear,
                    },
                });
                kinds.push(format!("crash(exec {victim})"));
            } else {
                for &to in &peer_ids {
                    if to == victim {
                        continue;
                    }
                    events.push(FaultEvent {
                        at: start,
                        kind: FaultKind::SilenceLink { from: victim, to },
                    });
                    events.push(FaultEvent {
                        at: heal,
                        kind: FaultKind::HealLink { from: victim, to },
                    });
                }
                kinds.push(format!("silence(exec {victim})"));
            }
        }

        // Maybe fault ONE follower orderer (crash+restart or partition).
        if fault_rng.gen_bool(0.6) {
            let follower = spec.orderer_ids()[fault_rng.gen_range(1usize..3)];
            let start = ms(&mut fault_rng, 2, window_ms.max(3));
            let heal = start + ms(&mut fault_rng, 5, 45);
            if fault_rng.gen_bool(0.5) {
                events.push(FaultEvent {
                    at: start,
                    kind: FaultKind::Crash { node: follower },
                });
                events.push(FaultEvent {
                    at: heal,
                    kind: FaultKind::Restart {
                        node: follower,
                        tear_wal_bytes: 0,
                    },
                });
                kinds.push(format!("crash(orderer {follower})"));
            } else {
                let others: Vec<NodeId> =
                    all_nodes.iter().copied().filter(|&n| n != follower).collect();
                events.push(FaultEvent {
                    at: start,
                    kind: FaultKind::Partition {
                        left: vec![follower],
                        right: others.clone(),
                    },
                });
                events.push(FaultEvent {
                    at: heal,
                    kind: FaultKind::HealPartition {
                        left: vec![follower],
                        right: others,
                    },
                });
                kinds.push(format!("partition(orderer {follower})"));
            }
        }

        // Maybe crash+restart the passive (non-executor) peer.
        if spec.non_executors > 0 && fault_rng.gen_bool(0.3) {
            let passive = spec.non_executor_ids()[0];
            let start = ms(&mut fault_rng, 2, window_ms.max(3));
            events.push(FaultEvent {
                at: start,
                kind: FaultKind::Crash { node: passive },
            });
            events.push(FaultEvent {
                at: start + ms(&mut fault_rng, 5, 45),
                kind: FaultKind::Restart {
                    node: passive,
                    tear_wal_bytes: 0,
                },
            });
            kinds.push(format!("crash(passive {passive})"));
        }
    }

    let mut config = SimConfig::new(spec, explore.count, explore.rate_tps);
    config.plan = FaultPlan::new(events);
    let description = format!(
        "contention={contention} depth={depth} durability={} faults=[{}]",
        if on_disk { "on-disk" } else { "in-memory" },
        kinds.join(", ")
    );
    SeedPlan {
        config,
        description,
        data_dir,
    }
}
