//! Cross-crate integration tests: full clusters, all three paradigms.
//!
//! The paradigm comparisons and the cross-datacenter latency check run
//! on the simulator, on the injected clock, so their verdicts are exact
//! and deterministic. The threaded tests left check what the simulator
//! cannot show: it runs on one thread and handling a message costs no
//! time, so the node threads' real interleavings exist only there.

use std::time::Duration;

use parblock_sim::check_oracles;
use parblockchain::{
    run_fixed, run_sim, ClusterSpec, FaultEvent, FaultKind, FaultPlan, LoadSpec, MovedGroup,
    SimConfig, SimOutcome, SystemKind,
};
use parblockchain_repro as _;

fn quick_spec(system: SystemKind) -> ClusterSpec {
    let mut spec = ClusterSpec::new(system);
    spec.block_cut = parblockchain_repro::types::BlockCutConfig {
        max_txns: 25,
        max_bytes: usize::MAX,
        max_wait: Duration::from_millis(10),
    };
    spec.costs =
        parblockchain_repro::types::ExecutionCosts::per_tx(Duration::from_micros(20));
    spec.topology.intra = Duration::from_micros(50);
    spec.exec_pool = 4;
    spec
}

fn quick_load(rate: f64) -> LoadSpec {
    LoadSpec {
        rate_tps: rate,
        duration: Duration::from_millis(500),
        drain: Duration::from_millis(500),
        ..LoadSpec::default()
    }
}

/// One simulated run of `count` transactions of `system`'s quick
/// cluster at `contention`, with the state digest captured.
fn sim_run(system: SystemKind, contention: f64, count: usize, rate_tps: f64) -> SimOutcome {
    let mut spec = quick_spec(system);
    spec.workload.contention = contention;
    spec.capture_state = true;
    let outcome = run_sim(&SimConfig::new(spec, count, rate_tps));
    assert!(
        outcome.completed,
        "{system} at {contention}: {:?}",
        outcome.report
    );
    outcome
}

/// OX and OXII must commit exactly the same transaction set on a fixed
/// workload and converge to the same chain and final state (no lost or
/// duplicated writes despite OXII's parallel, out-of-order commit
/// application).
#[test]
fn ox_and_oxii_agree_on_final_state() {
    for contention in [0.0, 0.5, 1.0] {
        let [ox, oxii] = [SystemKind::Ox, SystemKind::Oxii]
            .map(|system| sim_run(system, contention, 200, 2_000.0));
        for (system, outcome) in [("OX", &ox), ("OXII", &oxii)] {
            let report = &outcome.report;
            assert_eq!(
                (report.committed, report.aborted),
                (200, 0),
                "{system} at {contention}"
            );
        }
        assert_eq!(
            ox.report.ledger_head, oxii.report.ledger_head,
            "OX and OXII chains diverge at contention {contention}"
        );
        assert_eq!(
            ox.report.state_digest, oxii.report.state_digest,
            "OX and OXII final states diverge at contention {contention}"
        );
    }
}

/// OX passes the four oracles the simulator holds OXII to, with the
/// OXII run of the same seed as the recovery reference: count-only cuts
/// give both the same blocks.
#[test]
fn ox_passes_the_four_oracles() {
    for contention in [0.0, 0.8] {
        let config = |system| {
            let mut spec = quick_spec(system);
            spec.block_cut.max_wait = Duration::from_secs(5);
            spec.workload.contention = contention;
            spec.capture_state = true;
            SimConfig::new(spec, 200, 2_000.0)
        };
        let ox = config(SystemKind::Ox);
        let failures = check_oracles(&ox.spec, &run_sim(&ox), &run_sim(&config(SystemKind::Oxii)));
        assert!(
            failures.is_empty(),
            "contention {contention}: {failures:#?}"
        );
    }
}

/// OXII under cross-application contention (the OXII* dashed line):
/// commit-message exchanges between agents must still commit everything.
#[test]
fn oxii_cross_app_contention_commits_everything() {
    let mut spec = quick_spec(SystemKind::Oxii);
    spec.workload.contention = 0.8;
    spec.workload.cross_app = true;
    let report = run_fixed(&spec, 150, 1_500.0, Duration::from_secs(20));
    assert_eq!(report.committed, 150, "{report:?}");
    assert_eq!(report.aborted, 0);
}

/// 300 transactions at 500 µs each, all arriving at once, with
/// count-only cuts: the virtual makespan is the time to work off the
/// burst, the inverse of the peak throughput Figs 5 and 6 plot.
fn burst(system: SystemKind, contention: f64) -> SimOutcome {
    burst_on(quick_spec(system), contention)
}

/// [`burst`] on `spec`.
fn burst_on(mut spec: ClusterSpec, contention: f64) -> SimOutcome {
    let system = spec.system;
    spec.costs = parblockchain_repro::types::ExecutionCosts::per_tx(Duration::from_micros(500));
    spec.block_cut.max_wait = Duration::from_secs(5);
    spec.workload.contention = contention;
    let outcome = run_sim(&SimConfig::new(spec, 300, 0.0));
    assert!(
        outcome.completed,
        "{system} at {contention}: {:?}",
        outcome.report
    );
    outcome
}

/// Fig 5's ordering without contention: OXII finishes first, then XOV,
/// then OX. XOV's three endorsers (one per application) simulate in
/// parallel where every OX peer executes everything in turn, which is
/// about 3× (Fig 5's XOV-over-OX gap).
#[test]
fn fig5_makespan_orders_oxii_before_xov_before_ox() {
    let [ox, xov, oxii] = [SystemKind::Ox, SystemKind::Xov, SystemKind::Oxii]
        .map(|system| burst(system, 0.0).virtual_elapsed);
    assert!(
        oxii < xov && xov < ox,
        "Fig 5: OXII {oxii:?} < XOV {xov:?} < OX {ox:?}"
    );
    let speedup = ox.as_secs_f64() / xov.as_secs_f64();
    assert!(
        (2.5..3.5).contains(&speedup),
        "Fig 5: XOV is {speedup:.2}× OX"
    );
}

/// `exec_pool` is how many executions one executor runs at once: the
/// uncontended burst (100 transactions per agent) works off in about
/// 100 / `exec_pool` costs, until the 25-transaction blocks and their
/// message rounds bound it.
#[test]
fn oxii_makespan_honours_exec_pool() {
    let makespans = [1, 2, 4, 16].map(|exec_pool| {
        let mut spec = quick_spec(SystemKind::Oxii);
        spec.exec_pool = exec_pool;
        burst_on(spec, 0.0).virtual_elapsed
    });
    assert_eq!(
        makespans,
        [56_250, 29_250, 15_750, 6_450].map(Duration::from_micros),
        "makespans at 1, 2, 4 and 16 lanes"
    );
}

/// Fig 6's abort column: XOV aborts nothing without contention and a
/// rising share with it, while OX and OXII abort nothing at any
/// contention.
#[test]
fn fig6_only_xov_aborts_and_more_with_contention() {
    let mut last_aborted = None;
    for contention in [0.0, 0.2, 0.8, 1.0] {
        for system in [SystemKind::Ox, SystemKind::Oxii] {
            let report = burst(system, contention).report;
            assert_eq!(
                (report.committed, report.aborted),
                (300, 0),
                "Fig 6: {system}"
            );
        }
        let xov = burst(SystemKind::Xov, contention).report;
        assert_eq!(xov.committed + xov.aborted, 300);
        assert!(
            last_aborted.map_or(xov.aborted == 0, |last| xov.aborted > last),
            "Fig 6: XOV aborts {} at contention {contention}, after {last_aborted:?}",
            xov.aborted
        );
        last_aborted = Some(xov.aborted);
    }
}

/// The XOV paradigm must abort stale transactions under contention but
/// commit cleanly without contention.
#[test]
fn xov_abort_behaviour_tracks_contention() {
    let clean = sim_run(SystemKind::Xov, 0.0, 200, 400.0).report;
    assert_eq!(
        (clean.committed, clean.aborted),
        (200, 0),
        "no contention → no aborts"
    );

    let contended = sim_run(SystemKind::Xov, 0.8, 200, 400.0).report;
    assert_eq!(contended.committed + contended.aborted, 200);
    assert!(
        contended.aborted > 0,
        "80 % contention must produce validation aborts: {contended:?}"
    );
}

/// Moving non-executors to a far datacenter must not hurt OXII commit
/// latency (the paper's Fig 7d claim) — compare against moving orderers,
/// which must hurt. It runs on the simulator: on the wall clock, a busy
/// two-core host put the far non-executors' mean 22 ms above the local one.
#[test]
fn oxii_latency_immune_to_far_non_executors() {
    let open_loop = |spec: &ClusterSpec| {
        let outcome = run_sim(&SimConfig::open_loop(spec.clone(), &quick_load(300.0)));
        assert!(outcome.completed, "{:?}", outcome.report);
        outcome.report
    };
    let mut base = quick_spec(SystemKind::Oxii);
    base.topology.inter = Duration::from_millis(20);
    let local = open_loop(&base);

    let mut far_nonexec = base.clone();
    far_nonexec.topology.moved = Some(MovedGroup::NonExecutors);
    let nonexec = open_loop(&far_nonexec);

    let mut far_orderers = base.clone();
    far_orderers.topology.moved = Some(MovedGroup::Orderers);
    let orderers = open_loop(&far_orderers);

    let base_ms = local.avg_latency().as_secs_f64() * 1e3;
    let nonexec_ms = nonexec.avg_latency().as_secs_f64() * 1e3;
    let orderers_ms = orderers.avg_latency().as_secs_f64() * 1e3;
    assert!(
        nonexec_ms < base_ms + 15.0,
        "non-executors far should not add inter-DC latency: {base_ms:.2} → {nonexec_ms:.2}"
    );
    assert!(
        orderers_ms > base_ms + 15.0,
        "orderers far must add inter-DC latency: {base_ms:.2} → {orderers_ms:.2}"
    );
}

/// With two agents per application, τ(A) = 2: every commit needs
/// *matching* results from both executors (Algorithm 3's quorum), and
/// passive peers collect them too.
#[test]
fn oxii_with_two_agents_per_app_reaches_tau_two() {
    let mut spec = quick_spec(SystemKind::Oxii);
    spec.executors_per_app = 2;
    spec.workload.contention = 0.5;
    spec.capture_state = true;
    let report = run_fixed(&spec, 150, 1_500.0, Duration::from_secs(20));
    assert_eq!(report.committed, 150, "{report:?}");
    assert_eq!(report.aborted, 0);
    assert!(report.state_digest.is_some());
}

/// Same with XOV: the endorsement policy requires two matching
/// endorsements before an envelope is ordered.
#[test]
fn xov_with_two_endorsers_per_app_commits() {
    let mut spec = quick_spec(SystemKind::Xov);
    spec.executors_per_app = 2;
    let outcome = run_sim(&SimConfig::new(spec, 150, 300.0));
    assert!(outcome.completed, "{:?}", outcome.report);
    assert_eq!((outcome.report.committed, outcome.report.aborted), (150, 0));
}

/// PBFT-ordered OXII commits everything under a crashed backup orderer
/// (f = 1), and the chain and state match the crash-free run's. It runs
/// on the simulator, where the crash lands at an exact instant.
#[test]
fn oxii_pbft_tolerates_one_orderer_crash() {
    let mut spec = quick_spec(SystemKind::Oxii).with_pbft();
    spec.capture_state = true;
    let backup = spec.orderer_ids()[3];
    let clean = SimConfig::new(spec, 200, 2_000.0);
    let mut crashed = clean.clone();
    crashed.plan = FaultPlan::new(vec![FaultEvent {
        at: Duration::from_millis(10),
        kind: FaultKind::Crash { node: backup },
    }]);
    let outcome = run_sim(&crashed);
    assert!(outcome.completed, "{:?}", outcome.report);
    assert!(
        outcome.orderers.iter().all(|o| o.node != backup),
        "the backup outlived its crash"
    );
    let failures = check_oracles(&crashed.spec, &outcome, &run_sim(&clean));
    assert!(failures.is_empty(), "{failures:#?}");
}
