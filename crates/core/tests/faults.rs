//! Fault injection against the pipelined OXII executor (DESIGN.md §7):
//! executor crash/restart and dropped COMMIT messages mid-pipeline must
//! never commit a block out of order or apply a write twice. Order and
//! write-once are asserted through the observer's ledger head hash (the
//! hash chain covers block contents *and* order) and final state digest,
//! both compared against an identical fault-free run. Every scenario
//! runs on a grid: the block-at-a-time barrier (depth 1) and a deep
//! pipeline (depth 4), each in memory and on the durable store.

use std::time::Duration;

use parblock_store::testutil::TempDir;
use parblockchain::{
    run_fixed, run_fixed_with_faults, ClusterSpec, DurabilityMode, RunReport, SystemKind,
};

const COUNT: usize = 200;

/// Two agents per application with τ(A) = 1: every transaction is
/// executed (and multicast) redundantly, so one silenced or crashed
/// agent costs liveness nothing — and every peer constantly receives
/// duplicate votes for already-committed transactions, exercising the
/// double-apply guards.
fn redundant_spec(depth: usize) -> ClusterSpec {
    let mut spec = ClusterSpec::new(SystemKind::Oxii);
    // Count cuts only (COUNT is a multiple of 25), so block boundaries —
    // and hence the ledger head compared against the reference run — are
    // deterministic; wall-clock time cuts would vary run-to-run.
    spec.block_cut = parblock_types::BlockCutConfig {
        max_txns: 25,
        max_bytes: usize::MAX,
        max_wait: Duration::from_secs(5),
    };
    spec.costs = parblock_types::ExecutionCosts::per_tx(Duration::from_micros(50));
    spec.topology.intra = Duration::from_micros(50);
    spec.exec_pool = 4;
    spec.exec_pipeline_depth = depth;
    spec.executors_per_app = 2;
    spec.commit_quorum = Some(1);
    spec.workload.contention = 0.5;
    spec.capture_state = true;
    spec
}

/// Runs `scenario` once per grid cell, with the cell's spec and a label
/// for assertion messages.
fn for_each_cell(scenario: impl Fn(&ClusterSpec, &str)) {
    for depth in [1usize, 4] {
        for on_disk in [false, true] {
            let mut spec = redundant_spec(depth);
            // The guard keeps the store directory alive for the cell;
            // `fresh` wipes it between the reference and the faulted run.
            let data_dir = on_disk.then(|| TempDir::new("faults"));
            if let Some(dir) = &data_dir {
                spec.durability = DurabilityMode::OnDisk {
                    data_dir: dir.path().to_path_buf(),
                    fresh: true,
                };
            }
            let durability = if on_disk { "on-disk" } else { "in-memory" };
            scenario(&spec, &format!("depth {depth}, {durability}"));
        }
    }
}

fn reference(spec: &ClusterSpec) -> RunReport {
    let report = run_fixed(spec, COUNT, 2_000.0, Duration::from_secs(30));
    assert_eq!(report.committed, COUNT as u64, "fault-free reference: {report:?}");
    report
}

fn assert_matches_reference(report: &RunReport, reference: &RunReport, what: &str) {
    assert_eq!(report.committed, COUNT as u64, "{what}: {report:?}");
    assert_eq!(report.aborted, 0, "{what}");
    assert_eq!(
        report.ledger_head, reference.ledger_head,
        "{what}: blocks committed out of order or with different contents"
    );
    assert_eq!(
        report.state_digest, reference.state_digest,
        "{what}: a write was lost or applied twice"
    );
}

/// Every COMMIT message from one agent of each application is dropped for
/// the whole run (deterministic link-level loss). The redundant agents
/// carry the quorum; the observer's ledger and state must be identical
/// to the fault-free run.
#[test]
fn dropped_commit_messages_never_reorder_or_double_apply() {
    for_each_cell(|spec, cell| {
        let clean = reference(spec);

        let peers = spec.peer_ids();
        // The second agent of each application (executors are grouped
        // app-major: [a0, a0, a1, a1, a2, a2]).
        let silenced: Vec<_> = spec
            .executor_ids()
            .chunks(2)
            .map(|agents| agents[1])
            .collect();
        let faulty = run_fixed_with_faults(
            spec,
            COUNT,
            2_000.0,
            Duration::from_secs(30),
            move |faults| {
                for &from in &silenced {
                    for &to in &peers {
                        if from != to {
                            faults.set_drop(from, to, 1.0);
                        }
                    }
                }
            },
        );
        assert_matches_reference(&faulty, &clean, &format!("dropped COMMITs ({cell})"));
    });
}

/// One agent of each application crashes mid-pipeline and restarts
/// shortly after. It misses blocks (no retransmission protocol) and
/// simply stalls — the survivors must keep committing in order, without
/// losing or double-applying any write.
#[test]
fn crashed_and_restarted_executor_does_not_corrupt_survivors() {
    for_each_cell(|spec, cell| {
        let clean = reference(spec);

        let victims: Vec<_> = spec
            .executor_ids()
            .chunks(2)
            .map(|agents| agents[1])
            .collect();
        let faulty = run_fixed_with_faults(
            spec,
            COUNT,
            2_000.0,
            Duration::from_secs(30),
            move |faults| {
                std::thread::sleep(Duration::from_millis(30));
                for &victim in &victims {
                    faults.crash(victim);
                }
                std::thread::sleep(Duration::from_millis(60));
                for &victim in &victims {
                    faults.restart(victim);
                }
            },
        );
        assert_matches_reference(&faulty, &clean, &format!("crash/restart ({cell})"));
    });
}

/// A transient COMMIT-loss window mid-run (drops healed after 80 ms):
/// messages lost during the window are gone for good, but the redundant
/// agents cover them; afterwards the healed agent's late duplicate votes
/// for long-committed transactions must all be ignored.
#[test]
fn transient_commit_loss_window_heals_without_divergence() {
    for_each_cell(|spec, cell| {
        let clean = reference(spec);

        let peers = spec.peer_ids();
        let silenced: Vec<_> = spec
            .executor_ids()
            .chunks(2)
            .map(|agents| agents[1])
            .collect();
        let faulty = run_fixed_with_faults(
            spec,
            COUNT,
            2_000.0,
            Duration::from_secs(30),
            move |faults| {
                std::thread::sleep(Duration::from_millis(20));
                for &from in &silenced {
                    for &to in &peers {
                        if from != to {
                            faults.set_drop(from, to, 1.0);
                        }
                    }
                }
                std::thread::sleep(Duration::from_millis(80));
                faults.heal();
            },
        );
        assert_matches_reference(&faulty, &clean, &format!("transient COMMIT loss ({cell})"));
    });
}

/// A crashed-then-restarted *follower orderer* loses a window of NEWBLOCK
/// duplicates; with a sequencer quorum of 1 the leader's copies carry
/// every peer, and the executor pipeline must stay byte-identical.
#[test]
fn follower_orderer_crash_mid_pipeline_is_invisible_to_executors() {
    for_each_cell(|spec, cell| {
        let clean = reference(spec);

        let follower = spec.orderer_ids()[2];
        let faulty = run_fixed_with_faults(
            spec,
            COUNT,
            2_000.0,
            Duration::from_secs(30),
            move |faults| {
                std::thread::sleep(Duration::from_millis(25));
                faults.crash(follower);
                std::thread::sleep(Duration::from_millis(50));
                faults.restart(follower);
            },
        );
        assert_matches_reference(&faulty, &clean, &format!("follower orderer crash ({cell})"));
    });
}
