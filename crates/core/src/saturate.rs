//! Open-loop saturation sweeps (DESIGN.md §13): rate-vs-latency curves
//! with honest percentiles and a detected knee.
//!
//! A sweep drives the cluster at each offered rate of a schedule for a
//! fixed window — explicit warm-up and cool-down phases excluded from
//! measurement — and records, per step, the achieved rate alongside
//! p50/p99/p999 commit latency. Because the driver is open-loop with
//! intended-arrival-time stamping (see the `driver` module), a step past
//! the system's capacity shows queueing-inflated percentiles instead of
//! the flat, survivor-biased curve a closed-loop driver would report.
//!
//! The **knee** is the highest offered rate the system still keeps up
//! with, and a step keeps up only when all three hold (DESIGN.md §13):
//!
//! * achieved ≥ [`SaturateConfig::KNEE_TOLERANCE`] × offered (0.99,
//!   matching the pacing-accuracy bound the driver regression test
//!   enforces below saturation);
//! * nothing is outstanding when the step ends: every submission, the
//!   cool-down's included, resolved within the drain;
//! * its p99 is at most [`SaturateConfig::KNEE_P99_FACTOR`] × the p99 of
//!   the lowest offered rate: a backlog that drains during cool-down
//!   still commits every measured arrival, and shows only in the tail.
//!
//! The sweep stops early once achieved collapses below
//! [`SaturateConfig::STOP_RATIO`] × offered; further points would only
//! measure queue growth.
//!
//! Both legs are one sweep over each step's [`LoadSpec`]: [`saturate`]
//! hands it to the threaded cluster in real time, [`saturate_sim`] to the
//! deterministic virtual-time simulator, where a repeated seed reproduces
//! the curve bit-for-bit (the property
//! `crates/sim/tests/saturate_determinism.rs` pins). The same client
//! submits it on either clock, so the two legs admit, shed and measure
//! by one rule.

use std::time::Duration;

use crate::cluster::ClusterSpec;
use crate::metrics::RunReport;
use crate::runner::{run, LoadSpec};
use crate::sim::{run_sim, SimConfig};

/// One saturation sweep: a rate schedule plus the per-step load shape.
#[derive(Debug, Clone)]
pub struct SaturateConfig {
    /// The cluster under test.
    pub spec: ClusterSpec,
    /// Offered rates to sweep, in order (transactions per second).
    pub rates: Vec<f64>,
    /// Every step's load but its rate: arrival process, duration,
    /// warm-up, cool-down, drain and admission cap. Each step replaces
    /// `rate_tps` with its own.
    pub load: LoadSpec,
}

impl SaturateConfig {
    /// Achieved/offered ratio that still counts as keeping up (knee
    /// detection).
    pub const KNEE_TOLERANCE: f64 = 0.99;
    /// How many times the lowest offered rate's p99 a step's p99 may
    /// reach and still count as keeping up: past it, the tail waits in a
    /// queue for longer than the whole unloaded path takes (DESIGN.md
    /// §13).
    pub const KNEE_P99_FACTOR: f64 = 2.0;
    /// The sweep stops once achieved/offered falls below this — the
    /// system is past saturation and later points only measure queues.
    pub const STOP_RATIO: f64 = 0.7;

    /// A sweep over `rates` with the default step shape: 2 s per step
    /// (400 ms warm-up, 200 ms cool-down), uniform arrivals, no
    /// admission cap.
    #[must_use]
    pub fn new(spec: ClusterSpec, rates: Vec<f64>) -> Self {
        SaturateConfig {
            spec,
            rates,
            load: LoadSpec {
                duration: Duration::from_secs(2),
                warmup: Duration::from_millis(400),
                cooldown: Duration::from_millis(200),
                ..LoadSpec::default()
            },
        }
    }
}

/// Per-stage-pair latency summary of one sweep step: which lifecycle
/// gap (DESIGN.md §14) holds how much of the commit latency at this
/// offered rate. Empty unless the swept spec enables tracing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageSummary {
    /// Gap start stage.
    pub from: parblock_trace::Stage,
    /// Gap end stage.
    pub to: parblock_trace::Stage,
    /// Transactions that passed through both stages.
    pub count: u64,
    /// Median gap latency.
    pub p50: Duration,
    /// 99th-percentile gap latency.
    pub p99: Duration,
}

/// One step of a saturation sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SaturatePoint {
    /// Target arrival rate (tps).
    pub offered_tps: f64,
    /// Commits of measured arrivals over the measured span (tps).
    pub achieved_tps: f64,
    /// Arrivals whose intended time fell in the measured span.
    pub measured_submitted: u64,
    /// Commits of those arrivals — the latency-sample population.
    pub measured_committed: u64,
    /// Submissions still unresolved when the step ended. Reported next
    /// to the percentiles on purpose: samples only exist for commits, so
    /// a large `outstanding` means the true tail is *worse* than p999
    /// (survivor bias) and the step is past saturation.
    pub outstanding: u64,
    /// Median commit latency (intended-arrival → commit).
    pub p50: Duration,
    /// 99th-percentile commit latency.
    pub p99: Duration,
    /// 99.9th-percentile commit latency.
    pub p999: Duration,
    /// Driver self-check: submissions sent ≥ 1 ms late. Nonzero here
    /// with achieved ≈ offered is harmless catch-up; large values mean
    /// the *driver* saturated, not the system.
    pub driver_overruns: u64,
    /// Worst driver send lag behind the intended schedule.
    pub driver_max_lag: Duration,
    /// Arrivals shed by the admission cap (zero without one).
    pub admission_shed: u64,
    /// Per-stage latency breakdown (populated when the spec traces):
    /// shows which lifecycle stage saturates first as the rate climbs.
    pub stages: Vec<StageSummary>,
}

impl SaturatePoint {
    /// Derives a sweep point from one run's report.
    #[must_use]
    pub fn from_report(offered_tps: f64, report: &RunReport) -> Self {
        let stages = report
            .trace
            .pairs
            .iter()
            .map(|pair| StageSummary {
                from: pair.from,
                to: pair.to,
                count: pair.hist.count(),
                p50: Duration::from_nanos(pair.hist.percentile(0.50)),
                p99: Duration::from_nanos(pair.hist.percentile(0.99)),
            })
            .collect();
        SaturatePoint {
            offered_tps,
            achieved_tps: report.achieved_tps(),
            measured_submitted: report.measured_submitted,
            measured_committed: report.measured_committed,
            outstanding: report.outstanding,
            p50: report.latency_percentile(0.50),
            p99: report.latency_percentile(0.99),
            p999: report.latency_percentile(0.999),
            driver_overruns: report.driver_overruns,
            driver_max_lag: report.driver_max_lag,
            admission_shed: report.admission_shed,
            stages,
        }
    }

    /// Whether this step's achieved rate kept up with its offered rate.
    #[must_use]
    pub fn keeps_up(&self, tolerance: f64) -> bool {
        self.achieved_tps >= tolerance * self.offered_tps
    }

    /// Whether this step counts toward the knee, against the p99 of the
    /// lowest offered rate: it kept up, left nothing outstanding, and
    /// its tail did not queue.
    fn below_knee(&self, base_p99: Duration) -> bool {
        self.keeps_up(SaturateConfig::KNEE_TOLERANCE)
            && self.outstanding == 0
            && self.p99 <= base_p99.mul_f64(SaturateConfig::KNEE_P99_FACTOR)
    }
}

/// A completed sweep: the curve plus the detected knee.
#[derive(Debug, Clone, PartialEq)]
pub struct SaturateOutcome {
    /// One point per swept rate, in schedule order (the sweep may have
    /// stopped early past saturation — compare against the configured
    /// rates to see how far it got).
    pub points: Vec<SaturatePoint>,
    /// The saturation knee: the highest offered rate whose step kept up
    /// by the module's three-part rule. `None` when no step kept up — the
    /// schedule started past saturation.
    pub knee_tps: Option<f64>,
}

impl SaturateOutcome {
    fn from_points(points: Vec<SaturatePoint>) -> Self {
        let lowest = points
            .iter()
            .min_by(|a, b| a.offered_tps.total_cmp(&b.offered_tps));
        let base_p99 = lowest.map_or(Duration::ZERO, |p| p.p99);
        let knee_tps = points
            .iter()
            .filter(|p| p.below_knee(base_p99))
            .map(|p| p.offered_tps)
            .fold(None, |acc: Option<f64>, r| {
                Some(acc.map_or(r, |a| a.max(r)))
            });
        SaturateOutcome { points, knee_tps }
    }
}

/// Runs the sweep on the threaded cluster in real time. One fresh
/// cluster per step — no state leaks across rates.
///
/// # Panics
///
/// Panics when the step's warm-up plus cool-down leaves no measured
/// span, or on inconsistent cluster specs.
#[must_use]
pub fn saturate(config: &SaturateConfig) -> SaturateOutcome {
    sweep(config, |load| run(&config.spec, load))
}

/// Runs the same sweep on the deterministic virtual-time simulator:
/// every step is a [`run_sim`] of the step's load, so the whole curve —
/// achieved rates, every percentile — is a pure function of the spec's
/// seed and reproduces bit-for-bit.
///
/// # Panics
///
/// Panics when the step's warm-up plus cool-down leaves no measured
/// span.
#[must_use]
pub fn saturate_sim(config: &SaturateConfig) -> SaturateOutcome {
    sweep(config, |load| run_sim(&SimConfig::open_loop(config.spec.clone(), load)).report)
}

/// Runs `step` on each rate's load in schedule order, stopping after the
/// first step that collapses below [`SaturateConfig::STOP_RATIO`].
fn sweep(config: &SaturateConfig, step: impl Fn(&LoadSpec) -> RunReport) -> SaturateOutcome {
    let mut points = Vec::with_capacity(config.rates.len());
    for &rate_tps in &config.rates {
        let load = LoadSpec { rate_tps, ..config.load.clone() };
        let point = SaturatePoint::from_report(rate_tps, &step(&load));
        let stop = !point.keeps_up(SaturateConfig::STOP_RATIO);
        points.push(point);
        if stop {
            break;
        }
    }
    SaturateOutcome::from_points(points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{DurabilityMode, SystemKind};

    fn sweep_spec() -> ClusterSpec {
        let mut spec = ClusterSpec::new(SystemKind::Oxii);
        spec.block_cut = parblock_types::BlockCutConfig {
            max_txns: 25,
            max_bytes: usize::MAX,
            max_wait: Duration::from_millis(10),
        };
        spec.costs = parblock_types::ExecutionCosts::per_tx(Duration::from_micros(500));
        // Full contention makes each block's dependency graph a chain, so
        // virtual execution is serialized at 500 µs/tx — a hard capacity
        // of 2 000 tps per block the sweep must find.
        spec.workload.contention = 1.0;
        spec.durability = DurabilityMode::InMemory;
        spec.seed = 42;
        spec
    }

    fn quick_config(rates: Vec<f64>) -> SaturateConfig {
        let mut config = SaturateConfig::new(sweep_spec(), rates);
        config.load.duration = Duration::from_millis(600);
        config.load.warmup = Duration::from_millis(150);
        config.load.cooldown = Duration::from_millis(100);
        config.load.drain = Duration::from_millis(300);
        config
    }

    #[test]
    fn sim_sweep_finds_a_knee_and_stops_past_saturation() {
        // Chained execution at 500 µs/tx caps the cluster at 2 000 tps;
        // the sweep must keep up well below that and collapse well
        // above it.
        let config = quick_config(vec![500.0, 1_000.0, 20_000.0, 40_000.0]);
        let outcome = saturate_sim(&config);
        assert!(outcome.points.len() >= 3, "{outcome:?}");
        assert!(outcome.points[0].keeps_up(0.99), "{:?}", outcome.points[0]);
        assert!(outcome.points[1].keeps_up(0.99), "{:?}", outcome.points[1]);
        let knee = outcome.knee_tps.expect("two rates kept up");
        assert!((1_000.0..20_000.0).contains(&knee), "knee {knee}");
        let last = outcome.points.last().unwrap();
        assert!(
            !last.keeps_up(SaturateConfig::STOP_RATIO),
            "sweep should stop on collapse: {last:?}"
        );
        assert!(
            outcome.points.len() < config.rates.len()
                || !outcome.points.last().unwrap().keeps_up(SaturateConfig::KNEE_TOLERANCE),
            "past-saturation points after a collapse"
        );
        // Past the knee the queueing delay must show up in the tail.
        assert!(
            last.p99 > outcome.points[0].p99,
            "saturated p99 {:?} vs idle p99 {:?}",
            last.p99,
            outcome.points[0].p99
        );
    }

    #[test]
    fn sim_sweep_is_bit_reproducible() {
        let config = quick_config(vec![800.0, 2_000.0]);
        let a = saturate_sim(&config);
        let b = saturate_sim(&config);
        assert_eq!(a, b, "same seed must reproduce the curve bit-for-bit");
    }

    #[test]
    fn knee_is_none_when_nothing_keeps_up() {
        let outcome = SaturateOutcome::from_points(vec![SaturatePoint {
            offered_tps: 1_000.0,
            achieved_tps: 100.0,
            measured_submitted: 1_000,
            measured_committed: 100,
            outstanding: 900,
            p50: Duration::ZERO,
            p99: Duration::ZERO,
            p999: Duration::ZERO,
            driver_overruns: 0,
            driver_max_lag: Duration::ZERO,
            admission_shed: 0,
            stages: Vec::new(),
        }]);
        assert_eq!(outcome.knee_tps, None);
    }

    #[test]
    #[should_panic(expected = "must leave a measured span")]
    fn degenerate_window_panics() {
        let mut config = SaturateConfig::new(sweep_spec(), vec![100.0]);
        config.load.warmup = config.load.duration;
        let _ = saturate(&config);
    }
}
