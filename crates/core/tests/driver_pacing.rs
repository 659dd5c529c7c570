//! Pacing-accuracy regression tests for the open-loop driver.
//!
//! The old driver accrued submission budget per loop iteration
//! (`acc += per_tick`), so any tick that overran its 1 ms budget
//! silently stretched the schedule: the achieved rate drifted below the
//! offered rate with nothing reporting the loss. The rewritten driver
//! paces against an absolute intended-arrival schedule and catches up
//! after stalls, so below saturation the achieved rate must track the
//! offered rate within 1 % — the bound the saturation harness's knee
//! detection relies on.
//!
//! These run threaded because only a real clock can be late: the
//! simulator submits every arrival exactly at its virtual instant.

use std::time::Duration;

use parblockchain::{run, ArrivalProcess, ClusterSpec, LoadSpec, SystemKind};

fn pacing_spec() -> ClusterSpec {
    let mut spec = ClusterSpec::new(SystemKind::Oxii);
    spec.block_cut = parblock_types::BlockCutConfig {
        max_txns: 20,
        max_bytes: usize::MAX,
        max_wait: Duration::from_millis(10),
    };
    spec.costs = parblock_types::ExecutionCosts::per_tx(Duration::from_micros(20));
    spec.topology.intra = Duration::from_micros(50);
    spec.exec_pool = 4;
    spec
}

/// Below saturation, the achieved rate over the measured window stays
/// within 1 % of the offered rate, and the driver's own lateness
/// counters confirm the driver (not the system) kept the schedule.
#[test]
fn achieved_rate_tracks_offered_within_one_percent() {
    let rate = 2_000.0;
    let load = LoadSpec {
        rate_tps: rate,
        duration: Duration::from_millis(1_200),
        drain: Duration::from_millis(800),
        arrival: ArrivalProcess::Uniform,
        warmup: Duration::from_millis(300),
        cooldown: Duration::from_millis(200),
        max_outstanding: None,
    };
    let report = run(&pacing_spec(), &load);

    // The measured window is [300 ms, 1000 ms) on intended arrivals:
    // exactly 1400 uniform arrivals at 500 µs spacing. Intended times
    // are schedule-determined, so this count is exact — a shortfall
    // means the driver quit early or dropped arrivals.
    assert_eq!(
        report.measured_submitted, 1_400,
        "driver must submit the full measured schedule"
    );
    let achieved = report.achieved_tps();
    assert!(
        (achieved - rate).abs() / rate < 0.01,
        "achieved {achieved:.1} tps vs offered {rate} tps — pacing drift \
         or incomplete drain (measured_committed = {}, outstanding = {})",
        report.measured_committed,
        report.outstanding
    );
    // Driver self-check. On a loaded or single-core host the driver
    // thread *will* be descheduled for milliseconds at a time, so the
    // overrun count is allowed to be nonzero — the point of the counter
    // is that the lateness is visible, not absent. What must hold is
    // that catch-up keeps lag bounded (no unbounded schedule stretch:
    // the old accrual bug showed up as lag growing with run length).
    assert!(
        report.driver_max_lag < Duration::from_millis(500),
        "driver lag {:?} approaches the run length — catch-up is broken \
         ({} overruns / {} submissions)",
        report.driver_max_lag,
        report.driver_overruns,
        report.submitted
    );
    assert_eq!(report.admission_shed, 0, "no cap configured, nothing shed");
}

/// The admission cap sheds arrivals instead of submitting them, and the
/// shed count is reported — offered minus (submitted + shed) stays zero.
#[test]
fn admission_cap_sheds_and_accounts_for_every_arrival() {
    let mut spec = pacing_spec();
    // Slow the system down so a tiny cap actually binds.
    spec.costs = parblock_types::ExecutionCosts::per_tx(Duration::from_millis(2));
    spec.workload.contention = 1.0;
    let load = LoadSpec {
        rate_tps: 2_000.0,
        duration: Duration::from_millis(500),
        drain: Duration::from_millis(300),
        arrival: ArrivalProcess::Uniform,
        warmup: Duration::ZERO,
        cooldown: Duration::ZERO,
        max_outstanding: Some(50),
    };
    let report = run(&spec, &load);
    assert!(report.admission_shed > 0, "a binding cap must shed");
    // Every intended arrival is accounted for exactly once: submitted or
    // shed. The uniform schedule over 500 ms at 2k tps has 1000 arrivals.
    assert_eq!(
        report.submitted + report.admission_shed,
        1_000,
        "arrivals lost without a trace: {report:?}"
    );
}
