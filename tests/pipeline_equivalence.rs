//! End-to-end determinism suite for the execution pipeline
//! (DESIGN.md §7): the same seeded cluster, run at
//! `exec_pipeline_depth` 1, 2 and 4 under the accounting workload at
//! several contention levels, must commit the **same blocks in the same
//! order** (equal ledger head hashes) and converge to the **byte-equal
//! final state** (equal state digests). Depth 1 is the paper-faithful
//! barrier, so equality to it proves the pipeline is a pure
//! optimization. Every depth runs both in memory and on the durable
//! store: persisting effects and sealing blocks must not change what
//! is committed either.
//!
//! The grid runs threaded because the simulator cannot reorder what it
//! checks: there, executions complete inline at virtual instants and
//! an fsync costs no virtual time, while here executions finish in
//! whatever order the host schedules their threads and a seal waits on
//! a real disk. Two more cells per contention run the same cluster
//! under the simulator (depth 2, in memory and on disk): both clocks
//! boot one node set, so the virtual-time runs must commit the same
//! chain and state.

use std::time::Duration;

use parblockchain::{run_fixed, run_sim, ClusterSpec, DurabilityMode, SimConfig, SystemKind};
use parblockchain_repro::store::testutil::TempDir;

fn pipelined_spec(contention: f64, depth: usize) -> ClusterSpec {
    let mut spec = ClusterSpec::new(SystemKind::Oxii);
    // Count cuts only (transaction counts are multiples of 25): under the
    // free-running threaded runner, wall-clock time cuts make block
    // boundaries — and hence ledger hashes — nondeterministic run-to-run.
    // The restriction is specific to *this* runner: under the simulated
    // clock, time-cut boundaries are deterministic and the same
    // depth-invariance property is asserted for time-driven cuts in
    // `tests/sim_determinism.rs::pipeline_depths_agree_under_time_cuts_in_simulation`.
    spec.block_cut = parblockchain_repro::types::BlockCutConfig {
        max_txns: 25,
        max_bytes: usize::MAX,
        max_wait: Duration::from_secs(5),
    };
    spec.costs = parblockchain_repro::types::ExecutionCosts::per_tx(Duration::from_micros(50));
    spec.topology.intra = Duration::from_micros(50);
    spec.exec_pool = 4;
    spec.exec_pipeline_depth = depth;
    spec.workload.contention = contention;
    spec.capture_state = true;
    spec
}

/// Puts `spec` on a fresh durable store when `on_disk`. The returned
/// guard keeps the store directory alive for the run.
fn on_disk_if(spec: &mut ClusterSpec, on_disk: bool) -> Option<TempDir> {
    let data_dir = on_disk.then(|| TempDir::new("pipeline-eq"));
    if let Some(dir) = &data_dir {
        spec.durability = DurabilityMode::OnDisk {
            data_dir: dir.path().to_path_buf(),
            fresh: true,
        };
    }
    data_dir
}

fn cell_name(prefix: &str, on_disk: bool, contention: f64) -> String {
    let store = if on_disk { "on-disk" } else { "in-memory" };
    format!("{prefix}, {store}, contention {contention}")
}

/// Ledger hashes and final state digests are identical across pipeline
/// depths 1, 2 and 4, in memory and on disk, and under the simulator, at
/// contention 0.0, 0.5 and 0.9.
#[test]
fn depths_1_2_4_produce_identical_ledger_and_state() {
    for contention in [0.0, 0.5, 0.9] {
        let mut results = Vec::new();
        for depth in [1usize, 2, 4] {
            for on_disk in [false, true] {
                let cell = cell_name(&format!("depth {depth}"), on_disk, contention);
                let mut spec = pipelined_spec(contention, depth);
                let _data_dir = on_disk_if(&mut spec, on_disk);
                let report = run_fixed(&spec, 200, 2_000.0, Duration::from_secs(30));
                assert_eq!(report.committed, 200, "{cell}: {report:?}");
                assert_eq!(report.aborted, 0, "{cell}");
                assert_eq!(
                    report.fsync_count > 0,
                    on_disk,
                    "{cell}: the durability axis is not live: {report:?}"
                );
                results.push((
                    cell,
                    report.state_digest.expect("digest captured"),
                    report.ledger_head.expect("ledger head recorded"),
                ));
            }
        }
        for on_disk in [false, true] {
            let cell = cell_name("simulated, depth 2", on_disk, contention);
            let mut spec = pipelined_spec(contention, 2);
            let _data_dir = on_disk_if(&mut spec, on_disk);
            let outcome = run_sim(&SimConfig::new(spec, 200, 2_000.0));
            let report = &outcome.report;
            assert!(outcome.completed, "{cell}: {report:?}");
            assert_eq!(report.committed, 200, "{cell}: {report:?}");
            assert_eq!(
                report.fsync_count > 0,
                on_disk,
                "{cell}: the durability axis is not live: {report:?}"
            );
            results.push((
                cell,
                report.state_digest.expect("digest captured"),
                report.ledger_head.expect("ledger head recorded"),
            ));
        }
        let (_, base_digest, base_head) = &results[0];
        for (cell, digest, head) in &results[1..] {
            assert_eq!(
                digest, base_digest,
                "state diverged from in-memory depth 1 at {cell}"
            );
            assert_eq!(
                head, base_head,
                "ledger/commit order diverged from in-memory depth 1 at {cell}"
            );
        }
    }
}

/// Cross-application contention forces mid-block COMMIT exchanges between
/// agents; the pipeline must stay byte-equal to the barrier there too.
#[test]
fn cross_app_contention_is_depth_invariant() {
    let mut results = Vec::new();
    for depth in [1usize, 4] {
        let mut spec = pipelined_spec(0.8, depth);
        spec.workload.cross_app = true;
        let report = run_fixed(&spec, 150, 1_500.0, Duration::from_secs(30));
        assert_eq!(report.committed, 150, "depth {depth}: {report:?}");
        results.push((report.state_digest.unwrap(), report.ledger_head.unwrap()));
    }
    assert_eq!(results[0], results[1], "cross-app pipeline diverged");
}

/// τ(A) = 2 (two agents per application must agree) under a deep
/// pipeline: quorum voting and version-stamped write application stay
/// depth-invariant.
#[test]
fn two_agents_per_app_is_depth_invariant() {
    let mut results = Vec::new();
    for depth in [1usize, 4] {
        let mut spec = pipelined_spec(0.5, depth);
        spec.executors_per_app = 2;
        let report = run_fixed(&spec, 150, 1_500.0, Duration::from_secs(30));
        assert_eq!(report.committed, 150, "depth {depth}: {report:?}");
        results.push((report.state_digest.unwrap(), report.ledger_head.unwrap()));
    }
    assert_eq!(results[0], results[1], "τ = 2 pipeline diverged");
}

/// The observer actually pipelines: at depth 4 under pressure, some
/// block must start while another is still in flight (occupancy ≥ 2),
/// while depth 1 only ever records occupancy 1.
#[test]
fn occupancy_metrics_reflect_configured_depth() {
    let run_at = |depth: usize| {
        let mut spec = pipelined_spec(0.0, depth);
        // Heavier execution + non-trivial commit tail so blocks genuinely
        // overlap at the executor.
        spec.costs =
            parblockchain_repro::types::ExecutionCosts::per_tx(Duration::from_micros(400));
        spec.topology.intra = Duration::from_micros(500);
        run_fixed(&spec, 300, 20_000.0, Duration::from_secs(30))
    };
    let deep = run_at(4);
    assert_eq!(deep.committed, 300, "{deep:?}");
    assert!(
        deep.max_occupancy() >= 2,
        "depth 4 never overlapped blocks: occupancy {:?}",
        deep.pipeline_occupancy
    );
    assert!(
        deep.max_occupancy() <= 4,
        "depth 4 exceeded its bound: occupancy {:?}",
        deep.pipeline_occupancy
    );

    let shallow = run_at(1);
    assert_eq!(shallow.committed, 300, "{shallow:?}");
    assert_eq!(
        shallow.max_occupancy(),
        1,
        "depth 1 must be strictly block-at-a-time: occupancy {:?}",
        shallow.pipeline_occupancy
    );
}
