//! Crash/recovery integration (DESIGN.md §9).
//!
//! A simulated cluster running a fixed deterministic workload is killed
//! mid-block (every node crashes at one virtual instant), its per-node
//! stores are reconciled to one consistent watermark
//! (`parblock_store::reconcile_cluster` — the file-level startup state
//! transfer), and a fresh simulated cluster recovers from disk via
//! `Store::recover` inside each node's startup, resuming the workload
//! past the recovered watermark (`SimConfig::with_skip`). The resumed
//! run's ledger head hash and state digest must be **byte-equal** to an
//! uninterrupted reference run: recovery loses nothing sealed and
//! re-executes exactly the unsealed suffix.
//!
//! The reference run and the idle restart run threaded, so recovery
//! inside a node thread keeps a test too.

use std::path::Path;
use std::time::Duration;

use parblock_store::Store;
use parblockchain::{
    run_fixed, run_sim, ClusterSpec, DurabilityMode, FaultEvent, FaultKind,
    FaultPlan, SimConfig, SystemKind,
};

const COUNT: usize = 200;
const BLOCK_TXNS: usize = 25;

/// Count-cut-only OXII spec (deterministic block boundaries, which the
/// byte-equality assertions need) with an aggressive checkpoint cadence
/// so the killed run exercises checkpoint + WAL-truncation recovery too.
fn recovery_spec(data_dir: &Path) -> ClusterSpec {
    let mut spec = ClusterSpec::new(SystemKind::Oxii);
    spec.block_cut = parblock_types::BlockCutConfig {
        max_txns: BLOCK_TXNS,
        max_bytes: usize::MAX,
        max_wait: Duration::from_secs(5),
    };
    spec.costs = parblock_types::ExecutionCosts::per_tx(Duration::from_micros(50));
    spec.topology.intra = Duration::from_micros(50);
    spec.exec_pool = 4;
    spec.exec_pipeline_depth = 2;
    spec.workload.contention = 0.5;
    spec.capture_state = true;
    spec.durability = DurabilityMode::on_disk(data_dir);
    spec.durability_config = parblock_types::DurabilityConfig {
        flush_interval: 8,
        checkpoint_interval: 2,
    };
    spec
}

#[test]
fn killed_cluster_recovers_to_byte_equal_ledger_and_state() {
    // Uninterrupted reference (durability mode does not affect the
    // chain; default spec durability keeps it comparable under the CI
    // on-disk matrix too).
    let tmp = parblock_store::testutil::TempDir::new("core-recovery");
    let reference = {
        let spec = recovery_spec(&tmp.path().join("reference"));
        let report = run_fixed(&spec, COUNT, 2_000.0, Duration::from_secs(30));
        assert_eq!(report.committed, COUNT as u64, "reference run: {report:?}");
        report
    };

    // Phase 1: run the same workload on the simulator and crash every
    // node at one virtual instant, mid-block.
    let data_dir = tmp.path().join("cluster");
    let spec = recovery_spec(&data_dir);
    let mut kill = SimConfig::new(spec.clone(), COUNT, 2_000.0);
    kill.plan = FaultPlan::new(
        spec.orderer_ids()
            .into_iter()
            .chain(spec.peer_ids())
            .map(|node| FaultEvent {
                at: Duration::from_millis(60),
                kind: FaultKind::Crash { node },
            })
            .collect(),
    );
    let killed = run_sim(&kill);
    assert!(!killed.completed, "the kill came after the run drained");
    assert!(
        killed.replicas.is_empty() && killed.orderers.is_empty(),
        "a node outlived the kill"
    );

    // Phase 2: startup state transfer — reconcile every store to the
    // most advanced *peer* watermark (orderer stores carry no effects).
    let orderers: Vec<u32> = spec.orderer_ids().iter().map(|n| n.0).collect();
    let peers: Vec<u32> = spec.peer_ids().iter().map(|n| n.0).collect();
    let watermark =
        parblock_store::reconcile_cluster(&data_dir, &peers, &orderers, spec.durability_config)
            .expect("reconcile");
    assert_eq!(watermark.0, 4, "blocks sealed before the kill");

    // Phase 3: a fresh cluster recovers from disk and resumes the
    // deterministic workload past the recovered prefix.
    let skip = watermark.0 as usize * BLOCK_TXNS;
    let resume = run_sim(&SimConfig::new(spec.clone(), COUNT, 2_000.0).with_skip(skip));
    assert!(resume.completed, "resumed run did not drain: {:?}", resume.report);
    assert_eq!(resume.submitted.len(), COUNT - skip);
    let resumed = resume.report;
    assert_eq!(
        resumed.committed,
        (COUNT - skip) as u64,
        "resumed run did not commit the suffix: {resumed:?}"
    );
    assert_eq!(resumed.aborted, 0);
    assert_eq!(
        resumed.ledger_head, reference.ledger_head,
        "recovered chain diverged from the uninterrupted run"
    );
    assert_eq!(
        resumed.state_digest, reference.state_digest,
        "recovered state diverged: a write was lost or applied twice"
    );

    // The resumed observer recovered a non-empty store and kept
    // persisting: its durability counters surface in the report.
    assert!(resumed.wal_bytes_written > 0, "{resumed:?}");
    assert!(resumed.fsync_count > 0);

    // End cap: the observer's store now holds the full chain, and a
    // cold `Store::open` recovery agrees with the reference head.
    let observer_dir = Store::node_dir(&data_dir, spec.observer().0);
    let (_, recovered) =
        Store::open(&observer_dir, spec.durability_config).expect("open observer store");
    assert_eq!(recovered.watermark.0 as usize, COUNT / BLOCK_TXNS);
    assert_eq!(Some(recovered.head), reference.ledger_head);
}

/// Recovery is idempotent: recovering and resuming with *zero* missing
/// transactions (the cluster finished, then restarted) emits no new
/// blocks and leaves chain and state untouched.
#[test]
fn restart_after_clean_finish_changes_nothing() {
    let tmp = parblock_store::testutil::TempDir::new("core-restart");
    let data_dir = tmp.path().join("cluster");
    let spec = recovery_spec(&data_dir);
    let first = run_fixed(&spec, COUNT, 2_000.0, Duration::from_secs(30));
    assert_eq!(first.committed, COUNT as u64, "{first:?}");

    let restarted = run_fixed(&spec, 0, 2_000.0, Duration::from_secs(10));
    assert_eq!(restarted.committed, 0, "{restarted:?}");
    assert_eq!(restarted.blocks, 0, "a restarted idle cluster re-sealed blocks");

    let observer_dir = Store::node_dir(&data_dir, spec.observer().0);
    let (_, recovered) =
        Store::open(&observer_dir, spec.durability_config).expect("open observer store");
    assert_eq!(Some(recovered.head), first.ledger_head);
    assert_eq!(recovered.watermark.0 as usize, COUNT / BLOCK_TXNS);
}
