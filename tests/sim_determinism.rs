//! Determinism regression suite for the simulated clock (DESIGN.md §10).
//!
//! Wall-clock block cuts (`BlockCutConfig::max_wait`) were the known
//! nondeterminism source in the free-running cluster: the leader's
//! decision to order a cut marker depended on real elapsed time, so the
//! same spec produced different block boundaries run to run (which is
//! why `tests/pipeline_equivalence.rs` restricts itself to count cuts).
//! Under the deterministic scheduler the marker decision reads the
//! *virtual* clock, making time-cut boundaries — and therefore ledger
//! heads, state digests, and the entire `RunReport` — a pure function of
//! the seed.

use std::time::Duration;

use parblockchain::{run_sim, ClusterSpec, DurabilityMode, SimConfig, SystemKind};
use parblockchain_repro as _;

fn time_cut_spec(seed: u64, max_wait_ms: u64) -> ClusterSpec {
    let mut spec = ClusterSpec::new(SystemKind::Oxii);
    spec.seed = seed;
    // Deliberately wall-clock-dominated cutting: the count condition is
    // unreachable at these submission rates (pending never gets near 250
    // before a marker fires), so *every* block boundary comes from an
    // ordered cut marker driven by `max_wait`. (250 rather than
    // `usize::MAX` because `workload_config()` sizes the key pool from
    // `max_txns` — an unbounded block would inflate genesis to ~400k
    // keys for no test value.)
    spec.block_cut = parblock_types::BlockCutConfig {
        max_txns: 250,
        max_bytes: usize::MAX,
        max_wait: Duration::from_millis(max_wait_ms),
    };
    spec.costs = parblock_types::ExecutionCosts::per_tx(Duration::from_micros(50));
    spec.capture_state = true;
    spec.durability = DurabilityMode::InMemory;
    spec
}

/// A wall-clock (`max_wait`) cut config is deterministic under the
/// simulated clock: two runs of the same seed produce bit-identical
/// reports, block boundaries included.
#[test]
fn time_cut_blocks_are_deterministic_under_the_simulated_clock() {
    let config = SimConfig::new(time_cut_spec(17, 10), 120, 2_000.0);
    let a = run_sim(&config);
    let b = run_sim(&config);
    assert!(a.completed, "{:?}", a.report);
    assert_eq!(a.report.committed, 120);
    assert!(
        a.report.blocks >= 2,
        "the marker path must actually cut several blocks: {:?}",
        a.report
    );
    assert_eq!(a.report.ledger_head, b.report.ledger_head, "boundaries drifted");
    assert_eq!(a.report.state_digest, b.report.state_digest);
    assert_eq!(a.report, b.report);
    assert_eq!(a.report.digest(), b.report.digest());
    assert_eq!(a.observer_chain, b.observer_chain);
}

/// Mixed count + time cutting stays deterministic too, and different
/// `max_wait` values genuinely change the block boundaries (the time
/// condition is live, not vestigial).
#[test]
fn time_cut_condition_is_live_and_seed_pure() {
    let fast = SimConfig::new(time_cut_spec(23, 5), 100, 2_000.0);
    let slow = SimConfig::new(time_cut_spec(23, 40), 100, 2_000.0);
    let fast_a = run_sim(&fast);
    let fast_b = run_sim(&fast);
    let slow_run = run_sim(&slow);
    assert!(fast_a.completed && slow_run.completed);
    assert_eq!(fast_a.report.digest(), fast_b.report.digest());
    assert!(
        fast_a.report.blocks > slow_run.report.blocks,
        "shorter max_wait must cut more blocks: {} vs {}",
        fast_a.report.blocks,
        slow_run.report.blocks
    );
}

/// The pipeline-equivalence property extends to wall-clock cuts under
/// simulation: with time-driven boundaries, depths 1 and 4 still commit
/// the same blocks in the same order with the same final state. (The
/// threaded suite in `tests/pipeline_equivalence.rs` cannot test this —
/// real-time cut markers make its boundaries nondeterministic.)
#[test]
fn pipeline_depths_agree_under_time_cuts_in_simulation() {
    let mut results = Vec::new();
    for depth in [1usize, 4] {
        let mut spec = time_cut_spec(29, 10);
        spec.exec_pipeline_depth = depth;
        let outcome = run_sim(&SimConfig::new(spec, 100, 2_000.0));
        assert!(outcome.completed, "depth {depth}: {:?}", outcome.report);
        assert_eq!(outcome.report.committed, 100, "depth {depth}");
        results.push((
            outcome.report.ledger_head.expect("head recorded"),
            outcome.report.state_digest.expect("digest captured"),
        ));
    }
    assert_eq!(
        results[0], results[1],
        "pipeline diverged from the barrier under time-driven cuts"
    );
}

/// Golden `RunReport` digests of the three pinned-corpus seeds, captured
/// before the single-queue mailbox engine and the second execution
/// engine were deleted (PR 17). The whole report is hashed — commit counts,
/// latencies, block boundaries, ledger head, state digest, message and
/// WAL counters — so any drift in the network's global `(due, seq)`
/// delivery order or in the executor's scheduling decisions moves these.
/// They replace the cross-engine comparisons that used to guard both.
///
/// Re-pinned once, on purpose, when executors began multicasting one
/// COMMIT per tick: seed 14's message counts and latencies moved, its
/// blocks did not (seeds 4 and 17 kept their digests).
///
/// Re-pinned once more, on purpose, when both preimages gained a version
/// tag: the state digest now hashes `Value`'s canonical encoding instead
/// of its `Debug` rendering, and the report digest encodes every field
/// unconditionally. Only the preimages moved: every seed's blocks, event
/// count and verdict stayed as they were.
///
/// Re-pinned once more, on purpose, when the entry orderer began
/// ordering a partial batch as soon as none of its batches was in
/// flight: more, smaller batches move the consensus message counts, the
/// event counts (4: 2 068 → 2 968; 14: 5 070 → 6 500; 17: 1 942 →
/// 2 846) and the latencies. Every seed's blocks and verdict stayed.
///
/// Re-pinned once more, on purpose, for seed 14 only, when a restarted
/// orderer began resuming from the leader's log start instead of a
/// replay from offset 0: seed 14 restarts a durable follower orderer, so
/// its consensus message count and events moved (6 500 → 6 254). Its
/// blocks and verdict stayed, and seeds 4 and 17 kept their digests.
///
/// Re-pinned once more, on purpose, for seed 14 only, when a restarted
/// orderer began asking the other replicas for its missed deliveries
/// as soon as it restarts instead of on the leader's next message: its
/// events moved (6 254 → 6 252), its blocks and verdict stayed, and
/// seeds 4 and 17 kept their digests. Packing each block's transactions
/// into one table moved none of the three.
///
/// * seed 4: on-disk, depth 2, orderer partition;
/// * seed 14: on-disk, depth 4, contention 0.9, orderer crash;
/// * seed 17: in-memory, five concurrent faults.
#[test]
fn pinned_seeds_replay_to_their_golden_report_digests() {
    let golden = [
        (4u64, "0e69d385eabac41cfbcf44a60eba8bc95ba4d3dabcb300595cf73d5b78c22ad4"),
        (14, "bcd15de46cce8f5bc71e7ed4559ee0f4788aa8a2f7527e60559dfc81cf84bc6e"),
        (17, "9e9e8876ad772c648a032d217dcd0da4ab8af3554ee0135b3389d80fc9c7bc1a"),
    ];
    for (seed, digest) in golden {
        let report = parblock_sim::run_seed(seed, &parblock_sim::ExploreConfig::default());
        assert!(report.passed(), "seed {seed}: {:?}", report.failures);
        assert_eq!(
            report.report_digest.to_hex(),
            digest,
            "seed {seed} ({}) no longer replays to its golden digest",
            report.description
        );
    }
}
