//! Virtual-time leg of the saturation harness: the whole rate-vs-latency
//! curve — achieved rates, every percentile, the knee — must be a pure
//! function of the cluster seed, and the virtual driver must be *exactly*
//! on schedule (zero overruns), which is what makes the threaded leg's
//! overrun counter meaningful: any lateness there is host noise, not
//! harness logic.

use std::time::Duration;

use parblock_types::{ArrivalProcess, BlockCutConfig, ExecutionCosts};
use parblockchain::{saturate_sim, ClusterSpec, SaturateConfig, SystemKind};

fn sweep_spec(seed: u64) -> ClusterSpec {
    let mut spec = ClusterSpec::new(SystemKind::Oxii);
    spec.seed = seed;
    spec.block_cut = BlockCutConfig {
        max_txns: 25,
        max_bytes: usize::MAX,
        max_wait: Duration::from_millis(10),
    };
    // Full contention chains each block, so virtual execution is
    // serialized at 500 µs/tx — a hard 2 000 tps capacity for the knee
    // to find.
    spec.costs = ExecutionCosts::per_tx(Duration::from_micros(500));
    spec.workload.contention = 1.0;
    spec
}

fn sweep_config(seed: u64, arrival: ArrivalProcess, rates: Vec<f64>) -> SaturateConfig {
    let mut config = SaturateConfig::new(sweep_spec(seed), rates);
    config.load.arrival = arrival;
    config.load.duration = Duration::from_millis(800);
    config.load.warmup = Duration::from_millis(200);
    config.load.cooldown = Duration::from_millis(100);
    config.load.drain = Duration::from_millis(400);
    config
}

/// A cheap two-point schedule for the determinism legs (reproducibility
/// does not need a knee).
fn light_rates() -> Vec<f64> {
    vec![400.0, 1_600.0]
}

#[test]
fn same_seed_sweeps_are_bit_identical_across_arrival_processes() {
    for arrival in [
        ArrivalProcess::Uniform,
        ArrivalProcess::Poisson,
        ArrivalProcess::default_burst(),
    ] {
        let config = sweep_config(9, arrival, light_rates());
        let a = saturate_sim(&config);
        let b = saturate_sim(&config);
        assert_eq!(
            a, b,
            "{arrival}: same seed must reproduce the full curve bit-for-bit"
        );
        assert!(!a.points.is_empty());
    }
}

#[test]
fn different_seeds_change_poisson_curves_but_not_the_knee_region() {
    let a = saturate_sim(&sweep_config(1, ArrivalProcess::Poisson, light_rates()));
    let b = saturate_sim(&sweep_config(2, ArrivalProcess::Poisson, light_rates()));
    // Different seeds draw different exponential gaps: some measured
    // quantity must differ…
    assert_ne!(a.points, b.points, "seed must steer the Poisson schedule");
    // …but capacity is a property of the cluster, not the seed.
    assert_eq!(a.knee_tps.is_some(), b.knee_tps.is_some());
    if let (Some(ka), Some(kb)) = (a.knee_tps, b.knee_tps) {
        assert_eq!(ka, kb, "knee rate is set by the cost model");
    }
}

#[test]
fn virtual_driver_is_exactly_on_schedule() {
    // In virtual time submissions happen *at* their intended instants:
    // zero overruns, zero lag — deterministically. (The threaded leg
    // can't promise this on a busy host; this is the leg that proves
    // the harness itself adds no lateness.)
    let outcome = saturate_sim(&sweep_config(5, ArrivalProcess::Uniform, light_rates()));
    for point in &outcome.points {
        assert_eq!(
            point.driver_overruns, 0,
            "virtual driver overran at {} tps",
            point.offered_tps
        );
        assert_eq!(point.driver_max_lag, Duration::ZERO);
    }
}

#[test]
fn sweep_detects_the_cost_model_knee_and_inflates_the_tail() {
    // Block-pipelining overlaps the per-block chains, so the cluster's
    // capacity sits a few multiples above the single-chain 2 000 tps;
    // 8 000 tps overloads it, 24 000 collapses it outright.
    let config = sweep_config(
        7,
        ArrivalProcess::Uniform,
        vec![400.0, 1_000.0, 1_600.0, 8_000.0, 24_000.0],
    );
    let outcome = saturate_sim(&config);
    let knee = outcome.knee_tps.expect("sub-capacity rates must keep up");
    assert!(
        (1_000.0..8_000.0).contains(&knee),
        "knee must sit below the overloaded step, got {knee}"
    );
    let below = &outcome.points[0];
    assert!(below.keeps_up(0.99), "{below:?}");
    // The first overloaded step that still commits measured traffic must
    // show the queueing in its tail.
    let past = outcome
        .points
        .iter()
        .find(|p| !p.keeps_up(SaturateConfig::KNEE_TOLERANCE) && p.measured_committed > 0)
        .expect("an overloaded step with surviving samples");
    assert!(
        past.p99 > below.p99,
        "queueing past the knee must inflate the tail: {:?} vs {:?}",
        past.p99,
        below.p99
    );
    // Survivor-bias guard: overloaded steps must disclose their
    // unresolved population next to the percentiles — the final,
    // fully-collapsed step may have *no* samples at all (p99 of nothing
    // is zero) and `outstanding` is what tells the reader why.
    let last = outcome.points.last().unwrap();
    assert!(
        last.outstanding > 0,
        "a collapsed step with no outstanding txs is implausible: {last:?}"
    );
}
