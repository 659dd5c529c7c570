//! Crash/recovery integration (ISSUE 4, satellite 2; DESIGN.md §9).
//!
//! A cluster running a fixed deterministic workload is killed mid-block
//! (every node crash-faulted), its per-node stores are reconciled to one
//! consistent watermark (`parblock_store::reconcile_cluster` — the
//! file-level startup state transfer), and a fresh cluster recovers from
//! disk via `Store::recover` inside each node's startup, resuming the
//! workload from the recovered watermark. The resumed run's ledger head
//! hash and state digest must be **byte-equal** to an uninterrupted
//! reference run: recovery loses nothing sealed and re-executes exactly
//! the unsealed suffix.

// The kill polls the stores on disk against a wall-clock deadline.
#![allow(clippy::disallowed_methods)]

use std::fs;
use std::path::Path;
use std::time::{Duration, Instant};

use parblock_store::Store;
use parblock_types::DurabilityConfig;
use parblockchain::{
    run_fixed, run_fixed_from, run_fixed_with_faults, ClusterSpec, DurabilityMode, SystemKind,
};

const COUNT: usize = 200;
const BLOCK_TXNS: usize = 25;

/// Count-cut-only OXII spec (deterministic block boundaries, as the
/// fault suite requires) with an aggressive checkpoint cadence so the
/// killed run exercises checkpoint + WAL-truncation recovery too.
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

/// The sealed watermark `reconcile_cluster` would read from the store
/// under `node_dir`, or `None` while the copy races a write. Opening a
/// store truncates torn tails, so this opens a copy in `probe`. The WAL
/// goes first: a body is appended before its seal record, so every seal
/// copied has its body. Checkpoints are skipped: the WAL keeps the seal
/// record of the newest checkpoint's block.
fn sealed_watermark(node_dir: &Path, probe: &Path, config: DurabilityConfig) -> Option<u64> {
    let _ = fs::remove_dir_all(probe);
    fs::create_dir_all(probe.join("wal")).ok()?;
    for entry in fs::read_dir(node_dir.join("wal")).ok()? {
        let from = entry.ok()?.path();
        fs::copy(&from, probe.join("wal").join(from.file_name()?)).ok()?;
    }
    fs::copy(node_dir.join("blocks.log"), probe.join("blocks.log")).ok()?;
    let (store, _) = Store::open(probe, config).ok()?;
    Some(store.watermark().0)
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

    // Phase 1: run the same workload and kill every node as soon as some
    // peer has sealed a block. The run cannot finish; the short timeout
    // just bounds the wait.
    let data_dir = tmp.path().join("cluster");
    let probe = tmp.path().join("probe");
    let spec = recovery_spec(&data_dir);
    let config = spec.durability_config;
    let orderers: Vec<u32> = spec.orderer_ids().iter().map(|n| n.0).collect();
    let peers: Vec<u32> = spec.peer_ids().iter().map(|n| n.0).collect();
    let all: Vec<_> = spec
        .orderer_ids()
        .into_iter()
        .chain(spec.peer_ids())
        .collect();
    let peer_dirs: Vec<_> = peers
        .iter()
        .map(|&peer| Store::node_dir(&data_dir, peer))
        .collect();
    let killed = run_fixed_with_faults(
        &spec,
        COUNT,
        2_000.0,
        Duration::from_secs(3),
        move |faults| {
            let sealed = || {
                peer_dirs
                    .iter()
                    .any(|dir| sealed_watermark(dir, &probe, config).is_some_and(|w| w >= 1))
            };
            let deadline = Instant::now() + Duration::from_secs(5);
            while !sealed() && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            for &node in &all {
                faults.crash(node);
            }
        },
    );
    assert!(
        killed.committed < COUNT as u64,
        "crash landed too late to interrupt the run: {killed:?}"
    );

    // Phase 2: startup state transfer — reconcile every store to the
    // most advanced *peer* watermark (orderer stores carry no effects).
    let watermark =
        parblock_store::reconcile_cluster(&data_dir, &peers, &orderers, spec.durability_config)
            .expect("reconcile");
    assert!(
        watermark.0 >= 1,
        "no block sealed within the kill's deadline"
    );
    assert!(
        (watermark.0 as usize) < COUNT / BLOCK_TXNS,
        "cluster finished before the crash; move the kill earlier"
    );

    // Phase 3: a fresh cluster recovers from disk and resumes the
    // deterministic workload past the recovered prefix.
    let skip = watermark.0 as usize * BLOCK_TXNS;
    let resumed = run_fixed_from(&spec, skip, COUNT, 2_000.0, Duration::from_secs(30));
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

    let restarted = run_fixed_from(&spec, COUNT, COUNT, 2_000.0, Duration::from_secs(10));
    assert_eq!(restarted.committed, 0, "{restarted:?}");
    assert_eq!(restarted.blocks, 0, "a restarted idle cluster re-sealed blocks");

    let observer_dir = Store::node_dir(&data_dir, spec.observer().0);
    let (_, recovered) =
        Store::open(&observer_dir, spec.durability_config).expect("open observer store");
    assert_eq!(Some(recovered.head), first.ledger_head);
    assert_eq!(recovered.watermark.0 as usize, COUNT / BLOCK_TXNS);
}
