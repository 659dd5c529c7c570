//! Cross-crate integration tests: full clusters, all three paradigms.
//!
//! All but the PBFT crash test run the threaded cluster, because the
//! simulator cannot show what they check: it runs only OXII, on one
//! thread with executions completing inline, so OX and XOV, the
//! executor pool's real parallelism and wall-clock latency across
//! datacenters exist only here.

use std::time::Duration;

use parblock_sim::check_oracles;
use parblockchain::{
    run, run_fixed, run_sim, ClusterSpec, FaultEvent, FaultKind, FaultPlan, LoadSpec, MovedGroup,
    SimConfig, SystemKind,
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

/// OX and OXII must commit exactly the same transaction set on a fixed
/// workload and converge to the same final state (no lost or duplicated
/// writes despite OXII's parallel, out-of-order commit application).
#[test]
fn ox_and_oxii_agree_on_final_state() {
    for contention in [0.0, 0.5, 1.0] {
        let mut digests = Vec::new();
        for system in [SystemKind::Ox, SystemKind::Oxii] {
            let mut spec = quick_spec(system);
            spec.workload.contention = contention;
            spec.capture_state = true;
            let report = run_fixed(&spec, 200, 2_000.0, Duration::from_secs(20));
            assert_eq!(
                report.committed, 200,
                "{system} at {contention}: {report:?}"
            );
            assert_eq!(report.aborted, 0);
            digests.push(report.state_digest.expect("digest captured"));
        }
        assert_eq!(
            digests[0], digests[1],
            "OX and OXII final states diverge at contention {contention}"
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

/// The XOV paradigm must abort stale transactions under contention but
/// commit cleanly without contention.
#[test]
fn xov_abort_behaviour_tracks_contention() {
    let mut clean = quick_spec(SystemKind::Xov);
    clean.workload.contention = 0.0;
    let clean_report = run(&clean, &quick_load(400.0));
    assert!(clean_report.committed > 50, "{clean_report:?}");
    assert_eq!(clean_report.aborted, 0, "no contention → no aborts");

    let mut contended = quick_spec(SystemKind::Xov);
    contended.workload.contention = 0.8;
    let contended_report = run(&contended, &quick_load(400.0));
    assert!(
        contended_report.aborted > 0,
        "80 % contention must produce validation aborts: {contended_report:?}"
    );
}

/// Moving non-executors to a far datacenter must not hurt OXII commit
/// latency (the paper's Fig 7d claim) — compare against moving orderers,
/// which must hurt.
#[test]
fn oxii_latency_immune_to_far_non_executors() {
    let mut base = quick_spec(SystemKind::Oxii);
    base.topology.inter = Duration::from_millis(20);
    let local = run(&base, &quick_load(300.0));

    let mut far_nonexec = base.clone();
    far_nonexec.topology.moved = Some(MovedGroup::NonExecutors);
    let nonexec = run(&far_nonexec, &quick_load(300.0));

    let mut far_orderers = base.clone();
    far_orderers.topology.moved = Some(MovedGroup::Orderers);
    let orderers = run(&far_orderers, &quick_load(300.0));

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
    let report = run(&spec, &quick_load(300.0));
    assert!(report.committed > 30, "{report:?}");
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
