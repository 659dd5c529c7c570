//! `parblock_sim` — seeded schedule exploration for the ParBlockchain
//! reproduction (DESIGN.md §10).
//!
//! The deterministic scheduler itself lives in `parblockchain::sim`
//! (it needs the node internals); this crate is the *testing machine*
//! built on top of it, in the FoundationDB simulation tradition:
//!
//! * [`faultgen`] — one `u64` seed → cluster shape + survivable fault
//!   schedule (crashes with WAL tearing, restarts with recovery,
//!   partitions, COMMIT-silence windows);
//! * [`oracle`] — the four correctness oracles checked after every run:
//!   conflict serializability against a sequential dependency-order
//!   replay, replica convergence/prefix consistency, exactly-once
//!   commitment, and equivalence of faulted runs to an uninterrupted
//!   reference;
//! * [`mod@explore`] — the sweep driver behind `repro explore` and the CI
//!   `explore-seeds` job, printing failing seeds as one-line repro
//!   commands.
//!
//! # Examples
//!
//! ```
//! use parblock_sim::{explore, ExploreConfig};
//!
//! let mut config = ExploreConfig::default();
//! config.count = 50; // keep the doctest fast
//! let summary = explore(0..2u64, &config);
//! assert!(summary.all_passed(), "{:?}", summary.failed());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod explore;
pub mod faultgen;
pub mod oracle;

pub use explore::{explore, run_seed, run_seed_twice, CatchUps, ExploreSummary, SeedReport};
pub use faultgen::{plan_for_seed, ExploreConfig, SeedPlan};
pub use oracle::{
    chain_heads, check_convergence, check_exactly_once, check_oracles,
    check_recovery_equivalence, check_serializability, serial_replay, Replay,
};
