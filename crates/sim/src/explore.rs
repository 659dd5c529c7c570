//! The seed explorer: sweep seeds, run faulted + reference simulations,
//! check all four oracles, and print failing seeds as one-line repro
//! commands.

use parblock_types::Hash32;
use parblockchain::{run_sim, DurabilityMode, SimOutcome};

use crate::faultgen::{plan_for_seed, ExploreConfig};
use crate::oracle::check_oracles;

/// The verdict of one seed.
#[derive(Debug)]
pub struct SeedReport {
    /// The seed.
    pub seed: u64,
    /// What the seed explored (shape + fault schedule).
    pub description: String,
    /// Oracle violations (empty = all four passed).
    pub failures: Vec<String>,
    /// Digest of the faulted run's `RunReport` (bit-reproducibility
    /// witness: running the seed again must yield the same digest).
    pub report_digest: Hash32,
    /// Scheduler events handled by the faulted run.
    pub events: u64,
    /// Blocks sealed by the faulted run.
    pub blocks: u64,
    /// Orderer catch-ups the faulted run resumed from.
    pub catch_ups: CatchUps,
}

/// Sequencer catch-ups restarted orderers resumed from, by kind
/// (DESIGN.md §9): the sweep counts them so that a path no seed reaches
/// shows as a zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CatchUps {
    /// In memory: the orderer took the leader's state.
    pub state_installs: u64,
    /// On disk: the orderer kept what its store recovered and jumped to
    /// the leader's log start.
    pub log_start_jumps: u64,
}

impl CatchUps {
    /// Adds `other`'s counts to these.
    pub fn add(&mut self, other: CatchUps) {
        self.state_installs += other.state_installs;
        self.log_start_jumps += other.log_start_jumps;
    }
}

impl SeedReport {
    /// Whether every oracle passed.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// The one-line command reproducing this seed bit-for-bit.
    #[must_use]
    pub fn repro_command(&self) -> String {
        format!("cargo run --release --bin repro -- explore --seed {}", self.seed)
    }
}

/// Runs one seed end to end: derive the plan, run the faulted schedule,
/// run the uninterrupted reference, check all four oracles.
#[must_use]
pub fn run_seed(seed: u64, explore: &ExploreConfig) -> SeedReport {
    let plan = plan_for_seed(seed, explore);
    let faulted = run_sim(&plan.config);
    evaluate(&plan, seed, &faulted)
}

/// Checks all four oracles against an already-computed faulted run
/// (running the uninterrupted reference here — second, so that for
/// on-disk seeds its startup wipe never races the faulted run; both use
/// the same per-seed tempdir, strictly sequentially).
fn evaluate(
    plan: &crate::faultgen::SeedPlan,
    seed: u64,
    faulted: &SimOutcome,
) -> SeedReport {
    let mut reference_config = plan.config.clone();
    reference_config.plan = parblockchain::FaultPlan::none();
    let reference = run_sim(&reference_config);
    let resumed = faulted.orderers.iter().map(|o| o.catch_ups).sum();
    let catch_ups = match plan.config.spec.durability {
        DurabilityMode::InMemory => CatchUps {
            state_installs: resumed,
            ..CatchUps::default()
        },
        DurabilityMode::OnDisk { .. } => CatchUps {
            log_start_jumps: resumed,
            ..CatchUps::default()
        },
    };

    SeedReport {
        seed,
        description: plan.description.clone(),
        failures: check_oracles(&plan.config.spec, faulted, &reference),
        report_digest: faulted.report.digest(),
        events: faulted.events,
        blocks: faulted.report.blocks,
        catch_ups,
    }
}

/// Runs one seed's faulted schedule twice (for the caller's
/// bit-reproducibility assertion) and checks the oracles against the
/// first run — three simulations in total (faulted ×2 + reference),
/// nothing executed redundantly. Used by `repro explore --seed N`.
#[must_use]
pub fn run_seed_twice(seed: u64, explore: &ExploreConfig) -> (SeedReport, SimOutcome, SimOutcome) {
    let plan = plan_for_seed(seed, explore);
    let first = run_sim(&plan.config);
    let second = run_sim(&plan.config);
    let report = evaluate(&plan, seed, &first);
    (report, first, second)
}

/// Sweep summary.
#[derive(Debug, Default)]
pub struct ExploreSummary {
    /// Per-seed verdicts, in sweep order.
    pub reports: Vec<SeedReport>,
}

impl ExploreSummary {
    /// Seeds that violated an oracle.
    #[must_use]
    pub fn failed(&self) -> Vec<&SeedReport> {
        self.reports.iter().filter(|r| !r.passed()).collect()
    }

    /// Whether the whole sweep passed.
    #[must_use]
    pub fn all_passed(&self) -> bool {
        self.reports.iter().all(SeedReport::passed)
    }
}

/// Sweeps `seeds`, checking every oracle on every seed.
#[must_use]
pub fn explore<I: IntoIterator<Item = u64>>(seeds: I, config: &ExploreConfig) -> ExploreSummary {
    ExploreSummary {
        reports: seeds
            .into_iter()
            .map(|seed| run_seed(seed, config))
            .collect(),
    }
}
