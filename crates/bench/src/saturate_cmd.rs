//! The `repro saturate` subcommand: open-loop saturation sweeps
//! (DESIGN.md §13) rendered as a rate-vs-latency table, CSV, and a
//! machine-readable JSON artifact for CI trend tracking.
//!
//! The threaded leg measures the real cluster on this host; the `--sim`
//! leg runs the identical sweep in virtual time, where the curve is a
//! pure function of the seed (the CI smoke job uses that leg so the
//! artifact is stable across runners).

// Experiment artifacts are measurement plumbing, not replicated
// durability, so they stay outside parblock_store (DESIGN.md §12).
#![expect(
    clippy::disallowed_methods,
    reason = "writes BENCH_saturate.json and wipes the on-disk sweep's scratch dir"
)]

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Duration;

use parblock_types::{ArrivalProcess, BlockCutConfig, ExecutionCosts};
use parblockchain::{
    saturate, saturate_sim, ClusterSpec, DurabilityMode, SaturateConfig, SaturateOutcome,
    SystemKind,
};

use crate::experiments::ExperimentScale;
use crate::table::Table;

/// Where the JSON artifact lands (next to the CSVs).
pub const JSON_ARTIFACT: &str = "bench_results/BENCH_saturate.json";

/// CLI-shaped options for one saturation sweep.
#[derive(Debug, Clone)]
pub struct SaturateOptions {
    /// Offered rates (tps), in sweep order.
    pub rates: Vec<f64>,
    /// Arrival process of every step.
    pub arrival: ArrivalProcess,
    /// Run the deterministic virtual-time leg instead of the threaded
    /// cluster.
    pub sim: bool,
    /// Persist every node through `parblock_store` into a scratch
    /// directory (wiped afterwards) instead of in-memory.
    pub on_disk: bool,
    /// Workload contention in `[0, 1]` (the fig 6 axis). Full contention
    /// chains each block, which is what gives the sim leg a hard
    /// cost-model capacity to find.
    pub contention: f64,
    /// Cluster seed — the sim leg's curve is a pure function of it.
    pub seed: u64,
    /// Optional admission cap on in-flight transactions.
    pub max_outstanding: Option<u64>,
    /// Step length: `Quick` is a 1 s step, `Full` the 2 s default.
    pub scale: ExperimentScale,
}

impl Default for SaturateOptions {
    fn default() -> Self {
        SaturateOptions {
            rates: vec![250.0, 500.0, 1_000.0, 2_000.0, 4_000.0, 8_000.0, 16_000.0],
            arrival: ArrivalProcess::Uniform,
            sim: false,
            on_disk: false,
            contention: 0.2,
            seed: 42,
            max_outstanding: None,
            scale: ExperimentScale::Quick,
        }
    }
}

impl SaturateOptions {
    fn config(&self, data_dir: Option<&Path>) -> SaturateConfig {
        let mut spec = ClusterSpec::new(SystemKind::Oxii);
        spec.block_cut = BlockCutConfig::with_max_txns(100);
        spec.costs = ExecutionCosts::per_tx(Duration::from_micros(500));
        spec.workload.contention = self.contention;
        spec.seed = self.seed;
        // Lifecycle tracing rides along on every sweep step, so each
        // point of the JSON artifact carries the per-stage breakdown —
        // which stage saturates first as the offered rate climbs.
        spec.trace = parblockchain::TraceConfig::on();
        spec.durability = match data_dir {
            Some(dir) => DurabilityMode::OnDisk {
                data_dir: dir.to_path_buf(),
                fresh: true,
            },
            None => DurabilityMode::InMemory,
        };
        let mut config = SaturateConfig::new(spec, self.rates.clone());
        config.load.arrival = self.arrival;
        config.load.max_outstanding = self.max_outstanding;
        if matches!(self.scale, ExperimentScale::Quick) {
            config.load.duration = Duration::from_millis(1_000);
            config.load.warmup = Duration::from_millis(250);
            config.load.cooldown = Duration::from_millis(150);
            config.load.drain = Duration::from_millis(500);
        }
        config
    }
}

/// Runs the sweep the options describe and returns the outcome.
///
/// # Panics
///
/// Panics when the step shape leaves no measured span (not reachable
/// from the CLI, which only picks between the two built-in shapes).
#[must_use]
pub fn run_saturate(options: &SaturateOptions) -> SaturateOutcome {
    let scratch: Option<PathBuf> = options.on_disk.then(|| {
        std::env::temp_dir().join(format!("parblock-saturate-{}", std::process::id()))
    });
    let config = options.config(scratch.as_deref());
    let outcome = if options.sim {
        saturate_sim(&config)
    } else {
        saturate(&config)
    };
    if let Some(dir) = scratch {
        let _ = std::fs::remove_dir_all(dir);
    }
    outcome
}

/// Renders the sweep as the `repro` table/CSV shape: one row per step,
/// percentiles in milliseconds, the driver self-checks alongside.
#[must_use]
pub fn saturate_table(outcome: &SaturateOutcome) -> Table {
    let mut table = Table::new([
        "offered_tps",
        "achieved_tps",
        "measured_submitted",
        "measured_committed",
        "outstanding",
        "p50_ms",
        "p99_ms",
        "p999_ms",
        "driver_overruns",
        "driver_max_lag_ms",
        "admission_shed",
    ]);
    let ms = |d: Duration| format!("{:.3}", d.as_secs_f64() * 1e3);
    for point in &outcome.points {
        table.row([
            format!("{:.0}", point.offered_tps),
            format!("{:.1}", point.achieved_tps),
            point.measured_submitted.to_string(),
            point.measured_committed.to_string(),
            point.outstanding.to_string(),
            ms(point.p50),
            ms(point.p99),
            ms(point.p999),
            point.driver_overruns.to_string(),
            ms(point.driver_max_lag),
            point.admission_shed.to_string(),
        ]);
    }
    table
}

/// One line summarising the detected knee.
#[must_use]
pub fn knee_summary(outcome: &SaturateOutcome, options: &SaturateOptions) -> String {
    match outcome.knee_tps {
        Some(knee) => format!(
            "knee: {knee:.0} tps ({} leg, {} arrivals, seed {})",
            if options.sim { "virtual-time" } else { "threaded" },
            options.arrival,
            options.seed
        ),
        None => "knee: none — every step was past saturation".to_string(),
    }
}

/// Serializes the sweep as the `BENCH_saturate.json` artifact: sweep
/// metadata, the knee, and every point with integral-microsecond
/// percentiles (no float round-tripping in CI diffs).
#[must_use]
pub fn saturate_json(outcome: &SaturateOutcome, options: &SaturateOptions) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"bench\": \"saturate\",");
    let _ = writeln!(
        out,
        "  \"leg\": \"{}\",",
        if options.sim { "sim" } else { "threaded" }
    );
    let _ = writeln!(out, "  \"arrival\": \"{}\",", options.arrival);
    let _ = writeln!(out, "  \"seed\": {},", options.seed);
    let _ = writeln!(out, "  \"contention\": {:.2},", options.contention);
    let _ = writeln!(
        out,
        "  \"durability\": \"{}\",",
        if options.on_disk { "on-disk" } else { "in-memory" }
    );
    match outcome.knee_tps {
        Some(knee) => {
            let _ = writeln!(out, "  \"knee_tps\": {knee:.1},");
        }
        None => {
            let _ = writeln!(out, "  \"knee_tps\": null,");
        }
    }
    out.push_str("  \"points\": [\n");
    for (i, p) in outcome.points.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"offered_tps\": {:.1}, \"achieved_tps\": {:.1}, \
             \"measured_submitted\": {}, \"measured_committed\": {}, \
             \"outstanding\": {}, \"p50_us\": {}, \"p99_us\": {}, \
             \"p999_us\": {}, \"driver_overruns\": {}, \
             \"driver_max_lag_us\": {}, \"admission_shed\": {}, \
             \"stages\": [",
            p.offered_tps,
            p.achieved_tps,
            p.measured_submitted,
            p.measured_committed,
            p.outstanding,
            p.p50.as_micros(),
            p.p99.as_micros(),
            p.p999.as_micros(),
            p.driver_overruns,
            p.driver_max_lag.as_micros(),
            p.admission_shed,
        );
        for (j, s) in p.stages.iter().enumerate() {
            let _ = write!(
                out,
                "{}{{\"from\": \"{}\", \"to\": \"{}\", \"count\": {}, \
                 \"p50_us\": {}, \"p99_us\": {}}}",
                if j == 0 { "" } else { ", " },
                s.from,
                s.to,
                s.count,
                s.p50.as_micros(),
                s.p99.as_micros(),
            );
        }
        out.push_str("]}");
        out.push_str(if i + 1 < outcome.points.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Writes the JSON artifact to [`JSON_ARTIFACT`].
///
/// # Errors
///
/// Propagates I/O errors from creating `bench_results/` or the file.
pub fn write_saturate_json(outcome: &SaturateOutcome, options: &SaturateOptions) -> std::io::Result<PathBuf> {
    let path = PathBuf::from(JSON_ARTIFACT);
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(&path, saturate_json(outcome, options))?;
    Ok(path)
}

/// Extracts the `"knee_tps"` field from a saturate JSON artifact.
/// Returns `None` when the field is `null` or absent.
#[must_use]
pub fn parse_knee_tps(json: &str) -> Option<f64> {
    let rest = json.split("\"knee_tps\":").nth(1)?;
    let raw = rest
        .trim_start()
        .split([',', '\n', '}'])
        .next()?
        .trim();
    raw.parse::<f64>().ok()
}

/// Maximum tolerated knee regression against the committed baseline.
pub const KNEE_REGRESSION_TOLERANCE: f64 = 0.10;

/// Diffs the sweep's detected knee against a committed baseline
/// artifact (the `saturate-smoke` CI gate): the run fails when the knee
/// drops more than [`KNEE_REGRESSION_TOLERANCE`] below the baseline's.
/// The sim leg is a pure function of the seed, so on CI this is an
/// exact performance ratchet, not a noisy threshold.
///
/// # Errors
///
/// Returns a human-readable failure when the baseline is unusable, the
/// sweep found no knee while the baseline has one, or the knee
/// regressed beyond tolerance.
pub fn check_knee_baseline(
    outcome: &SaturateOutcome,
    baseline_json: &str,
) -> Result<String, String> {
    let Some(baseline) = parse_knee_tps(baseline_json) else {
        return Err("baseline artifact has no knee_tps to compare against".into());
    };
    let Some(current) = outcome.knee_tps else {
        return Err(format!(
            "sweep detected no knee (every step past saturation) — baseline expects {baseline:.0} tps"
        ));
    };
    let floor = baseline * (1.0 - KNEE_REGRESSION_TOLERANCE);
    if current < floor {
        return Err(format!(
            "knee regressed: {current:.0} tps vs baseline {baseline:.0} tps \
             (floor {floor:.0}, tolerance {:.0}%)",
            KNEE_REGRESSION_TOLERANCE * 100.0
        ));
    }
    Ok(format!(
        "knee {current:.0} tps vs baseline {baseline:.0} tps — within tolerance{}",
        if current > baseline {
            " (improved: consider refreshing the baseline)"
        } else {
            ""
        }
    ))
}

/// Parses the `--rates` CLI spelling: comma-separated positive tps
/// values, e.g. `--rates 500,1000,4000`.
#[must_use]
pub fn parse_rates(raw: &str) -> Option<Vec<f64>> {
    let rates: Option<Vec<f64>> = raw
        .split(',')
        .map(|s| s.trim().parse::<f64>().ok().filter(|r| *r > 0.0))
        .collect();
    rates.filter(|r| !r.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_outcome() -> (SaturateOutcome, SaturateOptions) {
        let options = SaturateOptions {
            rates: vec![400.0, 1_600.0],
            sim: true,
            contention: 1.0,
            scale: ExperimentScale::Quick,
            ..SaturateOptions::default()
        };
        (run_saturate(&options), options)
    }

    #[test]
    fn sim_sweep_renders_table_and_json() {
        let (outcome, options) = tiny_outcome();
        let table = saturate_table(&outcome);
        assert_eq!(table.len(), outcome.points.len());
        assert!(!table.is_empty());
        let json = saturate_json(&outcome, &options);
        assert!(json.contains("\"bench\": \"saturate\""));
        assert!(json.contains("\"leg\": \"sim\""));
        assert!(json.contains("\"offered_tps\": 400.0"));
        // Tracing rides along: every point embeds its stage breakdown.
        assert!(outcome.points.iter().all(|p| !p.stages.is_empty()));
        assert!(json.contains("\"stages\": ["));
        assert!(json.contains("\"from\": \"submitted\""));
        // Balanced braces/brackets — the artifact must stay parseable.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(knee_summary(&outcome, &options).starts_with("knee:"));
    }

    #[test]
    fn sim_leg_is_reproducible_end_to_end() {
        let (a, options) = tiny_outcome();
        let b = run_saturate(&options);
        assert_eq!(
            saturate_json(&a, &options),
            saturate_json(&b, &options),
            "the JSON artifact of a seeded sim sweep must be bit-stable"
        );
    }

    /// At full contention the 6 000 tps step commits every measured
    /// arrival, so its achieved rate keeps up; but it ends with
    /// transactions outstanding and a p99 many times the 400 tps step's.
    /// It is past the knee.
    #[test]
    fn a_step_that_queues_is_past_the_knee() {
        let options = SaturateOptions {
            rates: vec![400.0, 1_600.0, 6_000.0],
            sim: true,
            contention: 1.0,
            scale: ExperimentScale::Quick,
            ..SaturateOptions::default()
        };
        let outcome = run_saturate(&options);
        let [lowest, _, queued] = &outcome.points[..] else {
            panic!("three steps: {outcome:?}");
        };
        assert!(
            queued.keeps_up(SaturateConfig::KNEE_TOLERANCE),
            "{queued:?}"
        );
        assert!(queued.outstanding > 0, "{queued:?}");
        assert!(queued.p99 > lowest.p99.mul_f64(SaturateConfig::KNEE_P99_FACTOR));
        assert_eq!(outcome.knee_tps, Some(1_600.0));
    }

    #[test]
    fn knee_parses_from_artifact_json() {
        assert_eq!(parse_knee_tps("{\n  \"knee_tps\": 1600.0,\n}"), Some(1600.0));
        assert_eq!(parse_knee_tps("{\"knee_tps\": null,}"), None);
        assert_eq!(parse_knee_tps("{\"bench\": \"saturate\"}"), None);
    }

    #[test]
    fn knee_baseline_gate_passes_and_fails() {
        let (outcome, _) = tiny_outcome();
        let knee = outcome.knee_tps.expect("contention-1.0 sweep has a knee");

        // Equal baseline: pass.
        let same = format!("{{\"knee_tps\": {knee:.1}}}");
        assert!(check_knee_baseline(&outcome, &same).is_ok());

        // Knee just inside tolerance of a slightly better baseline: pass.
        let above = format!("{{\"knee_tps\": {:.1}}}", knee * 1.05);
        assert!(check_knee_baseline(&outcome, &above).is_ok());

        // Baseline >10% above the detected knee: fail.
        let far_above = format!("{{\"knee_tps\": {:.1}}}", knee * 1.2);
        let err = check_knee_baseline(&outcome, &far_above).unwrap_err();
        assert!(err.contains("regressed"), "{err}");

        // Unusable baseline: fail loudly, not silently pass.
        assert!(check_knee_baseline(&outcome, "{\"knee_tps\": null}").is_err());
        assert!(check_knee_baseline(&outcome, "{}").is_err());
    }

    #[test]
    fn rates_parse_and_reject_garbage() {
        assert_eq!(parse_rates("500,1000"), Some(vec![500.0, 1_000.0]));
        assert_eq!(parse_rates(" 250 , 4000 "), Some(vec![250.0, 4_000.0]));
        assert_eq!(parse_rates(""), None);
        assert_eq!(parse_rates("abc"), None);
        assert_eq!(parse_rates("100,-5"), None);
    }
}
