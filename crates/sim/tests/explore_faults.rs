//! End-to-end checks of the deterministic simulator and its oracles
//! under targeted fault schedules.

use std::time::Duration;

use parblock_store::testutil::TempDir;
use parblock_sim::{explore, plan_for_seed, run_seed, ExploreConfig};
use parblock_types::{BlockCutConfig, ExecutionCosts, NodeId};
use parblockchain::{
    run_sim, ClusterSpec, DurabilityMode, FaultEvent, FaultKind, FaultPlan, SimConfig,
    SystemKind,
};

fn base_spec(seed: u64) -> ClusterSpec {
    let mut spec = ClusterSpec::new(SystemKind::Oxii);
    spec.seed = seed;
    spec.block_cut = BlockCutConfig {
        max_txns: 25,
        max_bytes: usize::MAX,
        max_wait: Duration::from_secs(5),
    };
    spec.costs = ExecutionCosts::per_tx(Duration::from_micros(50));
    spec.capture_state = true;
    spec.durability = DurabilityMode::InMemory;
    spec
}

fn all_nodes_except(spec: &ClusterSpec, node: NodeId) -> Vec<NodeId> {
    let mut nodes = spec.orderer_ids();
    nodes.extend(spec.peer_ids());
    nodes.push(spec.client_node());
    nodes.retain(|&n| n != node);
    nodes
}

/// Satellite: a partitioned minority orderer must catch up to the
/// byte-equal chain after the partition heals (the sequencer's gap-fetch
/// path, driven through the whole cluster).
#[test]
fn partitioned_minority_orderer_catches_up_after_heal() {
    let spec = base_spec(21);
    let victim = spec.orderer_ids()[2];
    let others = all_nodes_except(&spec, victim);
    let mut config = SimConfig::new(spec, 150, 2_000.0);
    config.plan = FaultPlan::new(vec![
        FaultEvent {
            at: Duration::from_millis(10),
            kind: FaultKind::Partition {
                left: vec![victim],
                right: others.clone(),
            },
        },
        FaultEvent {
            at: Duration::from_millis(45),
            kind: FaultKind::HealPartition {
                left: vec![victim],
                right: others,
            },
        },
    ]);
    let outcome = run_sim(&config);
    assert!(outcome.completed, "{:?}", outcome.report);
    assert_eq!(outcome.report.committed, 150);
    let full_height = outcome.observer_chain.len() as u64;
    assert!(full_height >= 6);
    assert_eq!(outcome.orderers.len(), 3, "all orderers alive at the end");
    let reference = outcome
        .orderers
        .iter()
        .find(|o| !o.faulted)
        .expect("an unfaulted orderer");
    for orderer in &outcome.orderers {
        assert_eq!(
            (orderer.next_number, orderer.head),
            (reference.next_number, reference.head),
            "orderer {:?} (faulted={}) did not catch up to the byte-equal chain",
            orderer.node,
            orderer.faulted
        );
    }
    assert_eq!(reference.next_number.0, full_height + 1);
}

/// A follower orderer crashed mid-run and restarted once the leader has
/// trimmed its log past offset 0 fetches below the log start: it must
/// resume from the leader's catch-up and reach the byte-equal chain.
fn restarted_orderer_catches_up_below_the_log_start(durability: DurabilityMode) {
    let mut spec = base_spec(21);
    spec.durability = durability;
    let victim = spec.orderer_ids()[2];
    let mut config = SimConfig::new(spec, 300, 2_000.0);
    config.plan = FaultPlan::new(vec![
        FaultEvent {
            at: Duration::from_millis(40),
            kind: FaultKind::Crash { node: victim },
        },
        FaultEvent {
            at: Duration::from_millis(70),
            kind: FaultKind::Restart {
                node: victim,
                tear_wal_bytes: 0,
            },
        },
    ]);
    let outcome = run_sim(&config);
    assert!(outcome.completed, "{:?}", outcome.report);
    assert_eq!(outcome.report.committed, 300);
    let full_height = outcome.observer_chain.len() as u64;
    assert!(full_height >= 12);
    assert_eq!(outcome.orderers.len(), 3, "all orderers alive at the end");
    let restarted = outcome
        .orderers
        .iter()
        .find(|o| o.node == victim)
        .expect("the victim restarted");
    assert_eq!(restarted.catch_ups, 1, "the victim resumed from one catch-up");
    for orderer in &outcome.orderers {
        assert_eq!(
            (orderer.next_number, orderer.head),
            (restarted.next_number, restarted.head),
            "orderer {:?} (faulted={}) disagrees with the restarted one",
            orderer.node,
            orderer.faulted
        );
    }
    assert_eq!(restarted.next_number.0, full_height + 1);
}

#[test]
fn restarted_in_memory_orderer_installs_the_leaders_state() {
    restarted_orderer_catches_up_below_the_log_start(DurabilityMode::InMemory);
}

#[test]
fn restarted_durable_orderer_jumps_to_the_leaders_log_start() {
    let dir = TempDir::new("sim-orderer-catch-up");
    restarted_orderer_catches_up_below_the_log_start(DurabilityMode::OnDisk {
        data_dir: dir.path().to_path_buf(),
        fresh: true,
    });
}

/// True crash + recovery of a durable executor mid-run, with a torn WAL
/// tail: the survivors stay byte-equal to the uninterrupted reference,
/// and the recovered node holds a verified prefix.
#[test]
fn durable_executor_crash_with_torn_wal_recovers_a_prefix() {
    let dir = TempDir::new("sim-torn");
    let mut spec = base_spec(33);
    spec.executors_per_app = 2;
    spec.commit_quorum = Some(1);
    spec.durability = DurabilityMode::OnDisk {
        data_dir: dir.path().to_path_buf(),
        fresh: true,
    };
    spec.durability_config = parblock_types::DurabilityConfig {
        flush_interval: 8,
        checkpoint_interval: 2,
    };
    let victim = spec.agents_of(parblock_types::AppId(1))[1];
    let mut config = SimConfig::new(spec, 150, 2_000.0);
    config.plan = FaultPlan::new(vec![
        FaultEvent {
            at: Duration::from_millis(30),
            kind: FaultKind::Crash { node: victim },
        },
        FaultEvent {
            at: Duration::from_millis(55),
            kind: FaultKind::Restart {
                node: victim,
                tear_wal_bytes: 64,
            },
        },
    ]);
    let outcome = run_sim(&config);
    assert!(outcome.completed, "{:?}", outcome.report);

    let mut reference_config = config.clone();
    reference_config.plan = FaultPlan::none();
    let reference = run_sim(&reference_config);
    assert_eq!(outcome.report.ledger_head, reference.report.ledger_head);
    assert_eq!(outcome.report.state_digest, reference.report.state_digest);

    // The victim survived with a verified prefix of the chain.
    let victim_outcome = outcome
        .replicas
        .iter()
        .find(|r| r.node == victim)
        .expect("victim restarted");
    assert!(victim_outcome.faulted);
    let heads = parblock_sim::chain_heads(&outcome.observer_chain);
    assert_eq!(
        victim_outcome.head,
        heads[victim_outcome.height as usize],
        "recovered chain is not a byte-equal prefix"
    );
}

/// A small always-on sweep: every oracle passes across a band of seeds
/// with generated crash + partition + silence schedules. (CI runs the
/// full 200-seed corpus via `repro explore`.)
#[test]
fn seed_band_passes_all_oracles() {
    let config = ExploreConfig::default();
    let summary = explore(100..116u64, &config);
    assert!(
        summary.all_passed(),
        "failing seeds: {:#?}",
        summary
            .failed()
            .iter()
            .map(|r| (r.seed, &r.failures))
            .collect::<Vec<_>>()
    );
}

/// Re-running a seed reproduces the run bit-for-bit (the repro-command
/// contract), and the derived plan itself is a pure function of the
/// seed.
#[test]
fn seeds_replay_bit_for_bit() {
    let config = ExploreConfig::default();
    for seed in [3u64, 4, 9] {
        let plan_a = plan_for_seed(seed, &config);
        let plan_b = plan_for_seed(seed, &config);
        assert_eq!(plan_a.config.plan, plan_b.config.plan, "plan drift at {seed}");
        let a = run_seed(seed, &config);
        let b = run_seed(seed, &config);
        assert_eq!(a.report_digest, b.report_digest, "seed {seed} diverged");
        assert_eq!(a.events, b.events);
        assert!(a.passed(), "seed {seed}: {:?}", a.failures);
        assert!(
            b.repro_command().contains(&format!("--seed {seed}")),
            "repro line must pin the seed"
        );
    }
}

/// The oracles are not vacuous at the system level: a run whose fault
/// plan loses client requests (entry-orderer partition — deliberately
/// outside the generator's survivable menu) is flagged by the
/// exactly-once/recovery oracles rather than silently passing.
#[test]
fn unsurvivable_plans_are_flagged_not_masked() {
    let spec = base_spec(55);
    let entry = spec.entry_orderer();
    let others = all_nodes_except(&spec, entry);
    let mut config = SimConfig::new(spec, 100, 2_000.0);
    // Short deadline: the run cannot drain (lost REQUESTs are gone).
    config.virtual_deadline = Duration::from_secs(2);
    config.plan = FaultPlan::new(vec![FaultEvent {
        at: Duration::from_millis(10),
        kind: FaultKind::Partition {
            left: vec![entry],
            right: others,
        },
    }]);
    let outcome = run_sim(&config);
    assert!(
        !outcome.completed,
        "partitioning the entry orderer must lose transactions"
    );
    let mut reference_config = config.clone();
    reference_config.plan = FaultPlan::none();
    reference_config.virtual_deadline = Duration::from_secs(30);
    let reference = run_sim(&reference_config);
    assert!(
        parblock_sim::check_recovery_equivalence(&outcome, &reference).is_err(),
        "the recovery oracle must flag the incomplete run"
    );
}
