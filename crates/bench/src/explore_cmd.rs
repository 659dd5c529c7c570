//! The `repro explore` command: seeded schedule exploration with fault
//! injection and the four serializability/convergence/exactly-once/
//! recovery oracles (DESIGN.md §10).
//!
//! * `repro explore --seeds N` sweeps seeds `0..N` **plus** every pinned
//!   regression seed from `crates/bench/seeds/regression-seeds.txt`.
//! * `repro explore --seed K` replays one seed twice and asserts the two
//!   runs are bit-identical (`RunReport` digests), then prints the
//!   oracle verdicts — the one-line repro the sweep prints on failure.
//!
//! Exit status is non-zero when any oracle fails, which is what the CI
//! `explore-seeds` job gates on.

// Experiment artifacts are measurement plumbing, not replicated
// durability, so they stay outside parblock_store (DESIGN.md §12).
#![expect(
    clippy::disallowed_methods,
    reason = "reads the pinned regression-seed file"
)]

use std::path::Path;

use parblock_sim::{run_seed, run_seed_twice, CatchUps, ExploreConfig, SeedReport};

use crate::table::Table;

/// Loads pinned regression seeds (one integer per line, `#` comments).
/// A missing file is an empty pin set, so the command works from any
/// working directory.
#[must_use]
pub fn load_seed_file(path: &Path) -> Vec<u64> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| l.parse().ok())
        .collect()
}

/// The default pinned-seed file location: repo-relative when run from
/// the repo root, otherwise resolved against this crate's source tree
/// (`CARGO_MANIFEST_DIR`), so invoking the binary from elsewhere never
/// silently skips the pinned regression corpus.
#[must_use]
pub fn default_seed_file() -> std::path::PathBuf {
    let relative = std::path::PathBuf::from("crates/bench/seeds/regression-seeds.txt");
    if relative.exists() {
        return relative;
    }
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("seeds/regression-seeds.txt")
}

fn verdict_row(table: &mut Table, report: &SeedReport) {
    table.row([
        report.seed.to_string(),
        if report.passed() { "PASS".into() } else { "FAIL".into() },
        report.blocks.to_string(),
        report.events.to_string(),
        report.report_digest.to_hex()[..12].to_string(),
        report.description.clone(),
    ]);
}

/// Runs the sweep: seeds `0..seeds` plus `pinned`, deduplicated,
/// checking all four oracles per seed. Returns `(table, all_passed,
/// catch-ups summed over the seeds)`, and prints the catch-ups (they are
/// not a column, so the table stays comparable across changes to them).
#[must_use]
pub fn explore_sweep(
    seeds: u64,
    pinned: &[u64],
    config: &ExploreConfig,
) -> (Table, bool, CatchUps) {
    let mut all: Vec<u64> = (0..seeds).collect();
    for &pin in pinned {
        if !all.contains(&pin) {
            all.push(pin);
        }
    }
    let mut table = Table::new(["seed", "verdict", "blocks", "events", "report_digest", "schedule"]);
    let mut failures = Vec::new();
    let mut catch_ups = CatchUps::default();
    for seed in all {
        let report = run_seed(seed, config);
        catch_ups.add(report.catch_ups);
        if !report.passed() {
            failures.push((report.seed, report.failures.clone(), report.repro_command()));
        }
        verdict_row(&mut table, &report);
    }
    for (seed, why, repro) in &failures {
        eprintln!("seed {seed} FAILED:");
        for failure in why {
            eprintln!("  {failure}");
        }
        eprintln!("  reproduce: {repro}");
    }
    println!(
        "orderer catch-ups: {} state installs (in memory), {} log-start jumps (on disk)",
        catch_ups.state_installs, catch_ups.log_start_jumps
    );
    (table, failures.is_empty(), catch_ups)
}

/// Replays one seed twice, asserting bit-reproducibility, and prints the
/// oracle verdicts. Returns `(table, passed)`.
///
/// # Panics
///
/// Panics when the two runs of the same seed are not bit-identical —
/// that is a determinism bug in the simulator itself, which everything
/// else here rests on.
#[must_use]
pub fn explore_one(seed: u64, config: &ExploreConfig) -> (Table, bool) {
    let (report, first, second) = run_seed_twice(seed, config);
    assert_eq!(
        first.report.digest(),
        second.report.digest(),
        "seed {seed} is not bit-reproducible: the scheduler leaked \
         nondeterminism (events {} vs {})",
        first.events,
        second.events
    );
    let mut table = Table::new(["seed", "verdict", "blocks", "events", "report_digest", "schedule"]);
    verdict_row(&mut table, &report);
    if report.passed() {
        println!(
            "seed {seed}: all four oracles passed; two runs bit-identical \
             (digest {})",
            first.report.digest().to_hex()
        );
    } else {
        for failure in &report.failures {
            eprintln!("seed {seed}: {failure}");
        }
    }
    (table, report.passed())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_file_parsing_ignores_comments_and_garbage() {
        let dir = parblock_store::testutil::TempDir::new("seedfile");
        let path = dir.path().join("seeds.txt");
        std::fs::write(&path, "# pinned\n3\n\n17\nnot-a-seed\n 42 \n").unwrap();
        assert_eq!(load_seed_file(&path), vec![3, 17, 42]);
        assert!(load_seed_file(&dir.path().join("missing.txt")).is_empty());
    }

    #[test]
    fn single_seed_replay_is_reproducible_and_passes() {
        let config = ExploreConfig {
            count: 50,
            ..ExploreConfig::default()
        };
        let (table, passed) = explore_one(1, &config);
        assert!(passed, "{}", table.render());
    }
}
