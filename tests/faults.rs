//! Fault injection against the pipelined OXII executor (DESIGN.md §7):
//! executor crash/restart, dropped COMMIT messages and a follower-orderer
//! crash mid-pipeline must never commit a block out of order or apply a
//! write twice. The faults fire at exact instants of the simulator's
//! virtual clock, and every faulted run must pass the four oracles
//! (`parblock_sim::check_oracles`) against one fault-free run; the
//! recovery oracle holds its ledger head (the hash chain covers block
//! contents *and* order) and state digest to the reference's. Every
//! scenario runs on a grid: the block-at-a-time barrier (depth 1) and a
//! deep pipeline (depth 4), each in memory and on the durable store.
//! The reference is the fault-free in-memory depth-1 cell, so the grid
//! also pins that depth and durability do not change the chain.

use std::time::Duration;

use parblock_sim::check_oracles;
use parblock_store::testutil::TempDir;
use parblock_types::NodeId;
use parblockchain::{
    run_sim, ClusterSpec, DurabilityMode, FaultEvent, FaultKind, FaultPlan, SimConfig, SimOutcome,
    SystemKind,
};

const COUNT: usize = 200;
const RATE_TPS: f64 = 2_000.0;

/// Two agents per application with τ(A) = 1: every transaction is
/// executed (and multicast) redundantly, so one silenced or crashed
/// agent costs liveness nothing — and every peer constantly receives
/// duplicate votes for already-committed transactions, exercising the
/// double-apply guards.
fn redundant_spec(depth: usize) -> ClusterSpec {
    let mut spec = ClusterSpec::new(SystemKind::Oxii);
    // Count cuts only (COUNT is a multiple of 25), so block boundaries —
    // and hence the ledger head compared against the reference run — do
    // not depend on how long a fault delays a time cut.
    spec.block_cut = parblock_types::BlockCutConfig {
        max_txns: 25,
        max_bytes: usize::MAX,
        max_wait: Duration::from_secs(5),
    };
    spec.costs = parblock_types::ExecutionCosts::per_tx(Duration::from_micros(50));
    spec.topology.intra = Duration::from_micros(50);
    spec.exec_pipeline_depth = depth;
    spec.executors_per_app = 2;
    spec.commit_quorum = Some(1);
    spec.workload.contention = 0.5;
    spec.capture_state = true;
    spec
}

/// The second agent of each application (executors are grouped
/// app-major: [a0, a0, a1, a1, a2, a2]). The first agent carries
/// τ(A) = 1 alone.
fn second_agents(spec: &ClusterSpec) -> Vec<NodeId> {
    spec.executor_ids()
        .chunks(2)
        .map(|agents| agents[1])
        .collect()
}

/// `kind`, `ms` virtual milliseconds into the run.
fn at(ms: u64, kind: FaultKind) -> FaultEvent {
    FaultEvent {
        at: Duration::from_millis(ms),
        kind,
    }
}

/// Silences every link from a victim to another peer (its COMMIT
/// traffic) at `from_ms`, and heals each at `heal_ms` if given.
fn silence_commits(
    spec: &ClusterSpec,
    victims: &[NodeId],
    from_ms: u64,
    heal_ms: Option<u64>,
) -> Vec<FaultEvent> {
    let mut events = Vec::new();
    for &from in victims {
        for to in spec.peer_ids().into_iter().filter(|&to| to != from) {
            events.push(at(from_ms, FaultKind::SilenceLink { from, to }));
            if let Some(heal_ms) = heal_ms {
                events.push(at(heal_ms, FaultKind::HealLink { from, to }));
            }
        }
    }
    events
}

/// Crashes every victim at `crash_ms` and restarts it at `restart_ms`.
fn crash_restart(victims: &[NodeId], crash_ms: u64, restart_ms: u64) -> Vec<FaultEvent> {
    victims
        .iter()
        .flat_map(|&node| {
            [
                at(crash_ms, FaultKind::Crash { node }),
                at(
                    restart_ms,
                    FaultKind::Restart {
                        node,
                        tear_wal_bytes: 0,
                    },
                ),
            ]
        })
        .collect()
}

/// The nodes `outcome` reports as touched by a fault, replicas first.
fn faulted_nodes(outcome: &SimOutcome) -> Vec<NodeId> {
    let replicas = outcome
        .replicas
        .iter()
        .filter(|r| r.faulted)
        .map(|r| r.node);
    let orderers = outcome
        .orderers
        .iter()
        .filter(|o| o.faulted)
        .map(|o| o.node);
    replicas.chain(orderers).collect()
}

/// Runs `scenario` — a cell spec's victims and fault events — on every
/// grid cell. Each faulted run must pass the four oracles against the
/// test's one fault-free reference, commit every transaction, and
/// report exactly the victims as faulted, so a plan that missed its
/// targets cannot pass vacuously.
fn for_each_cell(what: &str, scenario: impl Fn(&ClusterSpec) -> (Vec<NodeId>, Vec<FaultEvent>)) {
    let reference = run_sim(&SimConfig::new(redundant_spec(1), COUNT, RATE_TPS));
    for depth in [1usize, 4] {
        for on_disk in [false, true] {
            let mut spec = redundant_spec(depth);
            // The guard keeps the store directory alive for the cell.
            let data_dir = on_disk.then(|| TempDir::new("faults"));
            if let Some(dir) = &data_dir {
                spec.durability = DurabilityMode::OnDisk {
                    data_dir: dir.path().to_path_buf(),
                    fresh: true,
                };
            }
            let durability = if on_disk { "on-disk" } else { "in-memory" };
            let cell = format!("{what} (depth {depth}, {durability})");
            let (victims, events) = scenario(&spec);
            let mut config = SimConfig::new(spec, COUNT, RATE_TPS);
            config.plan = FaultPlan::new(events);
            let faulted = run_sim(&config);

            let failures = check_oracles(&config.spec, &faulted, &reference);
            assert!(failures.is_empty(), "{cell}: {failures:#?}");
            assert_eq!(faulted.report.committed, COUNT as u64, "{cell}");
            assert_eq!(
                faulted_nodes(&faulted),
                victims,
                "{cell}: victims not faulted"
            );
        }
    }
}

/// Every COMMIT message from one agent of each application is dropped for
/// the whole run (deterministic link-level loss). The redundant agents
/// carry the quorum; the observer's ledger and state must be identical
/// to the fault-free run.
#[test]
fn dropped_commit_messages_never_reorder_or_double_apply() {
    for_each_cell("dropped COMMITs", |spec| {
        let silenced = second_agents(spec);
        let plan = silence_commits(spec, &silenced, 0, None);
        (silenced, plan)
    });
}

/// One agent of each application crashes mid-pipeline (30 ms) and
/// restarts 60 ms later, from its store on disk or from genesis in
/// memory. It never catches up on the blocks it missed (executors have
/// no block sync) — the survivors must keep committing in order,
/// without losing or double-applying any write.
#[test]
fn crashed_and_restarted_executor_does_not_corrupt_survivors() {
    for_each_cell("crash/restart", |spec| {
        let victims = second_agents(spec);
        let plan = crash_restart(&victims, 30, 90);
        (victims, plan)
    });
}

/// A transient COMMIT-loss window mid-run (20 ms to 100 ms): messages
/// lost during the window are gone for good, but the redundant agents
/// cover them; afterwards the healed agent's late duplicate votes for
/// long-committed transactions must all be ignored.
#[test]
fn transient_commit_loss_window_heals_without_divergence() {
    for_each_cell("transient COMMIT loss", |spec| {
        let silenced = second_agents(spec);
        let plan = silence_commits(spec, &silenced, 20, Some(100));
        (silenced, plan)
    });
}

/// A crashed-then-restarted *follower orderer* (25 ms to 75 ms) loses a
/// window of NEWBLOCK duplicates; with a sequencer quorum of 1 the
/// leader's copies carry every peer, and the executor pipeline must stay
/// byte-identical.
#[test]
fn follower_orderer_crash_mid_pipeline_is_invisible_to_executors() {
    for_each_cell("follower orderer crash", |spec| {
        let follower = vec![spec.orderer_ids()[2]];
        let plan = crash_restart(&follower, 25, 75);
        (follower, plan)
    });
}
