//! The untraced run: five rounds of verify → steady → drain, and the
//! end-to-end metrics taken from them as medians.

use std::time::Instant;

use parblockchain::TraceConfig;

use crate::phases::{self, Ctx, Drain, Gate, Steady, SteadyShape};
use crate::procfs;

/// Rounds in a full run. Every end-to-end metric is the median of its
/// five per-round values, so two scheduler hiccups on a shared host move
/// nothing.
pub const ROUNDS: usize = 5;

/// Share of `--seconds` one steady segment takes: three fifths of the run
/// in all. The five drains take roughly another third (see
/// `Workload::drain_txs_per_second`) and set-up the rest.
pub const STEADY_SHARE: f64 = 0.12;

/// How a run of `seconds` is cut into phases.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub rounds: usize,
    pub verify_txs: usize,
    pub steady: SteadyShape,
    pub drain_txs: usize,
}

impl Plan {
    pub fn full(ctx: &Ctx, seconds: f64) -> Self {
        Plan {
            rounds: ROUNDS,
            verify_txs: 2_000,
            steady: SteadyShape::of(seconds * STEADY_SHARE),
            drain_txs: ctx.workload.drain_txs(seconds),
        }
    }

    /// One short round: a syntax-and-correctness pass, not a measurement.
    pub fn smoke(ctx: &Ctx) -> Self {
        Plan {
            rounds: 1,
            verify_txs: 500,
            steady: SteadyShape::of(0.9),
            drain_txs: ctx.workload.drain_txs(1.0),
        }
    }
}

/// The outcome of an untraced run.
#[derive(Debug, Clone)]
pub struct EndToEnd {
    pub setup_s: f64,
    pub commit_p50_ms: f64,
    pub commit_p99_ms: f64,
    pub rss_peak_mib: f64,
    /// Transactions submitted over all steady and drain phases, and those
    /// of them that did not commit (outstanding, aborted or shed).
    pub attempted: u64,
    pub failed: u64,
}

pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

fn median_of<T>(items: &[T], value: impl Fn(&T) -> f64) -> f64 {
    median(&mut items.iter().map(value).collect::<Vec<f64>>())
}

/// Runs the plan's rounds and applies every correctness gate.
pub fn run(ctx: &Ctx, plan: &Plan) -> Gate<EndToEnd> {
    let mut setups = Vec::new();
    let mut peaks_mib = Vec::new();
    let mut steadies: Vec<Steady> = Vec::new();
    let mut drains: Vec<Drain> = Vec::new();
    for round in 0..plan.rounds {
        let round_started = Instant::now();
        procfs::reset_peak_rss();
        phases::verify(ctx, plan.verify_txs)?;
        let steady = phases::steady(ctx, plan.steady, TraceConfig::default());
        let drain = phases::drain(ctx, plan.drain_txs)?;
        if ctx.workload.durable && round + 1 == plan.rounds {
            phases::recovered_matches(ctx, &drain)?;
        }
        ctx.wipe_data_dir();
        // Set-up is everything in the round that is not a scheduled
        // submit or drain span: verify, cluster spawn and join, workload
        // materialisation, store directory creation and removal.
        let measured = steady.scheduled + drain.report.window;
        setups.push(
            round_started
                .elapsed()
                .saturating_sub(measured)
                .as_secs_f64(),
        );
        peaks_mib.push(procfs::peak_rss_mib());
        eprintln!(
            "  round {}: p50 {:.2} ms  p99 {:.2} ms ({} samples, {:.1}% late)  cpu {:.1} us/tx  peak {:.0} tx/s (cpu {:.1} us/tx)",
            round + 1,
            steady.p50_ms,
            steady.p99_ms,
            steady.samples,
            steady.late_share * 100.0,
            steady.cpu_us_per_tx,
            drain.tps,
            drain.cpu_us_per_tx,
        );
        steadies.push(steady);
        drains.push(drain);
    }
    phases::same_ledger_head(&drains)?;

    let attempted: u64 = steadies.iter().map(|s| s.report.submitted).sum::<u64>()
        + drains.iter().map(|d| d.report.submitted).sum::<u64>();
    let committed: u64 = steadies.iter().map(|s| s.report.committed).sum::<u64>()
        + drains.iter().map(|d| d.report.committed).sum::<u64>();
    Ok(EndToEnd {
        setup_s: median(&mut setups),
        commit_p50_ms: median_of(&steadies, |s| s.p50_ms),
        commit_p99_ms: median_of(&steadies, |s| s.p99_ms),
        rss_peak_mib: median(&mut peaks_mib),
        attempted,
        failed: attempted - committed,
    })
}
