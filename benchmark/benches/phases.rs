//! The three phases every workload runs, each on a fresh cluster, and
//! the correctness gates on their outputs. Only `parblockchain::{run,
//! run_fixed}` touch the system under test.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use parblock_store::Store;
use parblock_types::{ArrivalProcess, Hash32};
use parblockchain::{run, run_fixed, LoadSpec, RunReport, SystemKind, TraceConfig};

use crate::procfs;
use crate::workloads::{Workload, BLOCK_TXS};

/// A failed correctness gate: the message names what disagreed.
pub type Gate<T> = Result<T, String>;

/// Longest a fixed-count phase may take before its commit count is
/// compared (and found short).
const FIXED_TIMEOUT: Duration = Duration::from_secs(60);

/// Share of sends at least 1 ms late above which a steady segment says
/// more about the generator than about the system.
const MAX_LATE_SHARE: f64 = 0.15;

/// What one invocation runs on: the workload, its seed, and where a
/// durable cluster keeps its files.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub workload: &'static Workload,
    pub seed: u64,
    pub data_dir: PathBuf,
}

impl Ctx {
    pub fn new(workload: &'static Workload, seed: u64, out_dir: &Path) -> Self {
        let data_dir = out_dir.join(format!("data-{}-{}", workload.name, std::process::id()));
        Ctx {
            workload,
            seed,
            data_dir,
        }
    }

    pub fn wipe_data_dir(&self) {
        let _ = std::fs::remove_dir_all(&self.data_dir);
    }
}

/// Split of one steady segment of `segment` wall seconds.
#[derive(Debug, Clone, Copy)]
pub struct SteadyShape {
    pub submit: Duration,
    pub warmup: Duration,
    pub cooldown: Duration,
    pub drain: Duration,
}

impl SteadyShape {
    /// A fifth of the segment warms up, a twentieth cools down, and the
    /// cluster gets an eighth (at least 300 ms) to commit what is in
    /// flight, so that nothing is left outstanding at these rates.
    pub fn of(segment: f64) -> Self {
        let drain = (segment * 0.125).max(0.3);
        SteadyShape {
            submit: Duration::from_secs_f64(segment - drain),
            warmup: Duration::from_secs_f64(segment * 0.2),
            cooldown: Duration::from_secs_f64(segment * 0.05),
            drain: Duration::from_secs_f64(drain),
        }
    }

    fn scheduled(&self) -> Duration {
        self.submit + self.drain
    }
}

/// One steady segment's measurements.
#[derive(Debug, Clone)]
pub struct Steady {
    pub report: RunReport,
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub samples: u64,
    pub late_share: f64,
    /// The scheduled submit + drain spans this segment occupied (twice
    /// that if it was re-run); the rest of its wall time is set-up.
    pub scheduled: Duration,
    /// Process CPU over the segment's wall time, generator included.
    pub cpu_cores: f64,
    /// Process CPU minus the calling (generator) thread, per commit.
    pub cpu_us_per_tx: f64,
}

/// One drain's measurements.
#[derive(Debug, Clone)]
pub struct Drain {
    pub report: RunReport,
    pub txs: usize,
    /// First submit to last commit.
    pub tps: f64,
    /// Process CPU minus the calling (generator) thread, per commit.
    pub cpu_us_per_tx: f64,
}

/// `verify`: the same fixed input through OXII and through sequential OX
/// must leave the same state. Runs at zero cost and in memory, since
/// neither changes the state a transaction set produces. Returns the
/// wall time, which is all set-up.
pub fn verify(ctx: &Ctx, txs: usize) -> Gate<Duration> {
    let started = Instant::now();
    let mut spec = ctx.workload.spec(ctx.seed, &ctx.data_dir, true);
    spec.costs = parblock_types::ExecutionCosts::zero();
    spec.durability = parblockchain::DurabilityMode::InMemory;
    spec.capture_state = true;
    let mut digests: Vec<Hash32> = Vec::new();
    for system in [SystemKind::Oxii, SystemKind::Ox] {
        spec.system = system;
        let report = run_fixed(&spec, txs, 1e9, FIXED_TIMEOUT);
        if report.committed != txs as u64 || report.aborted != 0 {
            return Err(format!(
                "verify: {system} committed {} of {txs}, aborted {}",
                report.committed, report.aborted
            ));
        }
        digests.push(
            report
                .state_digest
                .ok_or_else(|| format!("verify: {system} captured no state digest"))?,
        );
    }
    if digests[0] != digests[1] {
        return Err(format!(
            "verify: OXII state {} differs from OX state {}",
            digests[0], digests[1]
        ));
    }
    Ok(started.elapsed())
}

/// One open-loop steady segment at the workload's rate, latency stamped
/// from intended arrival. A segment whose generator ran late is re-run
/// once and the less late of the two is kept: lateness is charged to the
/// latency samples either way, and `workload.late_share` reports it.
pub fn steady(ctx: &Ctx, shape: SteadyShape, trace: TraceConfig) -> Steady {
    let first = steady_once(ctx, shape, trace);
    if first.late_share <= MAX_LATE_SHARE {
        return first;
    }
    eprintln!(
        "  steady segment re-run: {:.0}% of sends were at least 1 ms late",
        first.late_share * 100.0
    );
    let mut second = steady_once(ctx, shape, trace);
    if second.late_share > first.late_share {
        second = first.clone();
    }
    second.scheduled = first.scheduled * 2;
    second
}

fn steady_once(ctx: &Ctx, shape: SteadyShape, trace: TraceConfig) -> Steady {
    let mut spec = ctx.workload.spec(ctx.seed, &ctx.data_dir, false);
    spec.trace = trace;
    let load = LoadSpec {
        rate_tps: ctx.workload.steady_tps,
        duration: shape.submit,
        drain: shape.drain,
        arrival: ArrivalProcess::Poisson,
        warmup: shape.warmup,
        cooldown: shape.cooldown,
        max_outstanding: None,
    };
    let cpu_before = procfs::process_cpu();
    let thread_before = procfs::thread_cpu();
    let started = Instant::now();
    let report = run(&spec, &load);
    let wall = started.elapsed();
    let cpu = procfs::process_cpu() - cpu_before;
    let cluster_cpu = cpu.saturating_sub(procfs::thread_cpu() - thread_before);
    Steady {
        p50_ms: report.latency_percentile(0.50).as_secs_f64() * 1e3,
        p99_ms: report.latency_percentile(0.99).as_secs_f64() * 1e3,
        samples: report.measured_committed,
        late_share: report.driver_overruns as f64 / report.submitted.max(1) as f64,
        scheduled: shape.scheduled(),
        cpu_cores: cpu.as_secs_f64() / wall.as_secs_f64(),
        cpu_us_per_tx: cluster_cpu.as_secs_f64() * 1e6 / report.committed.max(1) as f64,
        report,
    }
}

/// One drain: the whole input handed over at once; throughput is first
/// submit to last commit. Every transaction must commit.
pub fn drain(ctx: &Ctx, txs: usize) -> Gate<Drain> {
    let spec = ctx.workload.spec(ctx.seed, &ctx.data_dir, true);
    let process_before = procfs::process_cpu();
    let thread_before = procfs::thread_cpu();
    let report = run_fixed(&spec, txs, 1e9, FIXED_TIMEOUT);
    let cluster_cpu = (procfs::process_cpu() - process_before)
        .saturating_sub(procfs::thread_cpu() - thread_before);
    if report.committed != txs as u64 || report.aborted != 0 {
        return Err(format!(
            "drain: committed {} of {txs}, aborted {}",
            report.committed, report.aborted
        ));
    }
    Ok(Drain {
        txs,
        tps: report.throughput_tps(),
        cpu_us_per_tx: cluster_cpu.as_secs_f64() * 1e6 / txs as f64,
        report,
    })
}

/// Same input, count-only cuts: every drain of a workload must end on
/// the same ledger head.
pub fn same_ledger_head(drains: &[Drain]) -> Gate<()> {
    let heads: Vec<Option<Hash32>> = drains.iter().map(|d| d.report.ledger_head).collect();
    if heads.iter().any(Option::is_none) || heads.windows(2).any(|pair| pair[0] != pair[1]) {
        return Err(format!("drains disagree on the ledger head: {heads:?}"));
    }
    Ok(())
}

/// Acknowledged writes survive a restart: reopen the observer's store
/// left by the last durable drain and compare what it recovers with what
/// the run reported.
pub fn recovered_matches(ctx: &Ctx, last: &Drain) -> Gate<()> {
    let spec = ctx.workload.spec(ctx.seed, &ctx.data_dir, true);
    let dir = Store::node_dir(&ctx.data_dir, spec.observer().0);
    let (store, _recovered) = Store::open(&dir, spec.durability_config)
        .map_err(|e| format!("reopen {}: {e}", dir.display()))?;
    let blocks = (last.txs / BLOCK_TXS) as u64;
    if store.watermark().0 != blocks || Some(store.head()) != last.report.ledger_head {
        return Err(format!(
            "recovered watermark {} head {} but the run sealed {blocks} blocks with head {:?}",
            store.watermark().0,
            store.head(),
            last.report.ledger_head
        ));
    }
    Ok(())
}
