//! Shared configuration types.

use std::time::Duration;

/// Block-cutting conditions (§IV-B): "Blocks have a pre-defined maximal
/// size, maximal number of transactions, and maximal time the block
/// production takes since the first transaction of a new block was
/// received. When any of these three conditions is satisfied, a block is
/// full."
///
/// # Examples
///
/// ```
/// use parblock_types::BlockCutConfig;
///
/// let cut = BlockCutConfig::with_max_txns(200);
/// assert_eq!(cut.max_txns, 200);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockCutConfig {
    /// Maximal number of transactions per block.
    pub max_txns: usize,
    /// Maximal serialized block size in bytes.
    pub max_bytes: usize,
    /// Maximal time since the first transaction of the block arrived.
    pub max_wait: Duration,
}

impl BlockCutConfig {
    /// A configuration bounded only by transaction count (the knob swept in
    /// Fig 5), with generous byte/time limits.
    #[must_use]
    pub fn with_max_txns(max_txns: usize) -> Self {
        BlockCutConfig {
            max_txns,
            max_bytes: usize::MAX,
            max_wait: Duration::from_millis(50),
        }
    }
}

impl Default for BlockCutConfig {
    /// The paper's sweet spot: ~200 transactions per block.
    fn default() -> Self {
        BlockCutConfig::with_max_txns(200)
    }
}

/// How an OXII executor schedules the transactions of a block: the
/// paper's **pessimistic** scheduler. The orderers read declared
/// read/write sets and ship a dependency graph, and a transaction only
/// runs once every predecessor is locally executed or committed
/// (§IV-C, Algorithm 1).
///
/// Nothing reads this type or `ClusterSpec::execution_mode`: there is
/// one engine (DESIGN.md §11 records the rejected alternatives). Both
/// remain only because `benchmark/` assigns the field by name, and go
/// with the next `benchmark` PR.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecutionMode {
    /// Dependency-graph scheduling (the paper's Algorithm 1).
    #[default]
    Pessimistic,
}

/// The arrival process an open-loop load driver uses to place intended
/// transaction arrival times (DESIGN.md §13).
///
/// The process shapes *when* transactions are meant to arrive at a given
/// average rate; it says nothing about what the transactions do (that is
/// the workload generator's job). All three processes are deterministic
/// functions of `(rate, seed)`, so the saturation harness produces the
/// same intended-arrival schedule under the threaded runner and the
/// virtual-clock simulator.
///
/// # Examples
///
/// ```
/// use parblock_types::ArrivalProcess;
///
/// assert_eq!(ArrivalProcess::parse("poisson"), Some(ArrivalProcess::Poisson));
/// assert_eq!(ArrivalProcess::Uniform.to_string(), "uniform");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Evenly spaced arrivals: arrival `i` lands at `i / rate`. The
    /// schedule the closed-form sim driver has always used.
    Uniform,
    /// Memoryless arrivals: exponentially distributed inter-arrival
    /// gaps with mean `1 / rate`, sampled from the run seed.
    Poisson,
    /// On/off arrivals: within every `period`, all of the period's
    /// arrivals are packed uniformly into the leading `duty` fraction,
    /// followed by silence — the same average rate delivered in bursts
    /// `1/duty` times the target rate.
    Burst {
        /// Length of one on+off cycle.
        period: Duration,
        /// Fraction of the period that carries traffic, in `(0, 1]`.
        duty: f64,
    },
}

impl ArrivalProcess {
    /// The default burst shape: 100 ms periods with a 20 % duty cycle
    /// (5× the average rate while on).
    #[must_use]
    pub fn default_burst() -> Self {
        ArrivalProcess::Burst {
            period: Duration::from_millis(100),
            duty: 0.2,
        }
    }

    /// Parses the CLI spelling: `uniform`, `poisson`, or `burst` (the
    /// default burst shape).
    #[must_use]
    pub fn parse(raw: &str) -> Option<Self> {
        match raw.trim().to_ascii_lowercase().as_str() {
            "uniform" => Some(ArrivalProcess::Uniform),
            "poisson" => Some(ArrivalProcess::Poisson),
            "burst" => Some(ArrivalProcess::default_burst()),
            _ => None,
        }
    }
}

impl Default for ArrivalProcess {
    /// Uniform spacing — the legacy driver behaviour.
    fn default() -> Self {
        ArrivalProcess::Uniform
    }
}

impl std::fmt::Display for ArrivalProcess {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArrivalProcess::Uniform => f.write_str("uniform"),
            ArrivalProcess::Poisson => f.write_str("poisson"),
            ArrivalProcess::Burst { .. } => f.write_str("burst"),
        }
    }
}

/// Synthetic cost model for contract execution.
///
/// The paper ran on 8-vCPU EC2 instances where contract execution consumed
/// real CPU. This reproduction host has two cores, far fewer than an
/// executor runs executions at once, so execution cost is modelled as a
/// wait on the cluster clock (I/O-bound-like), which preserves the
/// parallel-vs-sequential shape of the results (see DESIGN.md §3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecutionCosts {
    /// Time to execute one transaction on an executor.
    pub per_tx: Duration,
}

impl ExecutionCosts {
    /// A cost model with the given per-transaction execution time.
    #[must_use]
    pub fn per_tx(cost: Duration) -> Self {
        ExecutionCosts { per_tx: cost }
    }

    /// Zero-cost execution (useful for logic-only tests).
    #[must_use]
    pub fn zero() -> Self {
        ExecutionCosts::per_tx(Duration::ZERO)
    }
}

impl Default for ExecutionCosts {
    /// 1 ms per transaction. With the default 16 executions at once per
    /// executor this yields the paper's relative ceilings: OX ≈ 1/per_tx,
    /// XOV ≈ apps/per_tx, OXII ≈ exec_pool·executors/per_tx (contention
    /// permitting) — the OXII > XOV > OX ordering of §V.
    fn default() -> Self {
        ExecutionCosts::per_tx(Duration::from_millis(1))
    }
}

/// Tuning knobs for the durable store (`parblock_store`): how often the
/// write-ahead log is fsynced and how often the blockchain state is
/// checkpointed.
///
/// Lives in the types crate so the store and the cluster spec share it
/// without either depending on the other.
///
/// # Examples
///
/// ```
/// use parblock_types::DurabilityConfig;
///
/// let cfg = DurabilityConfig::default();
/// assert!(cfg.flush_interval >= 1);
/// assert!(cfg.checkpoint_interval >= 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurabilityConfig {
    /// Group commit: the WAL is fsynced once at least this many records
    /// have been appended since the last sync (and always on block seal,
    /// regardless of the count). `1` is fsync-per-record.
    pub flush_interval: usize,
    /// A state checkpoint is written every this many sealed blocks; WAL
    /// segments entirely below the checkpoint watermark are deleted.
    pub checkpoint_interval: u64,
}

impl Default for DurabilityConfig {
    /// Sync every 64 records (or at block seal), checkpoint every 8
    /// blocks.
    fn default() -> Self {
        DurabilityConfig {
            flush_interval: 64,
            checkpoint_interval: 8,
        }
    }
}

impl DurabilityConfig {
    /// Clamps both intervals to at least 1 (a zero interval would stall
    /// the group-commit / checkpoint cadence forever).
    #[must_use]
    pub fn sanitized(self) -> Self {
        DurabilityConfig {
            flush_interval: self.flush_interval.max(1),
            checkpoint_interval: self.checkpoint_interval.max(1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_block_cut_matches_paper_sweet_spot() {
        assert_eq!(BlockCutConfig::default().max_txns, 200);
    }

    #[test]
    fn durability_config_sanitizes_zero_intervals() {
        let cfg = DurabilityConfig {
            flush_interval: 0,
            checkpoint_interval: 0,
        }
        .sanitized();
        assert_eq!(cfg.flush_interval, 1);
        assert_eq!(cfg.checkpoint_interval, 1);
        let default = DurabilityConfig::default();
        assert_eq!(default.sanitized(), default);
    }

    #[test]
    fn arrival_process_parse_and_display_round_trip() {
        assert_eq!(ArrivalProcess::parse("uniform"), Some(ArrivalProcess::Uniform));
        assert_eq!(ArrivalProcess::parse(" Poisson "), Some(ArrivalProcess::Poisson));
        assert_eq!(
            ArrivalProcess::parse("burst"),
            Some(ArrivalProcess::default_burst())
        );
        assert_eq!(ArrivalProcess::parse("lognormal"), None);
        assert_eq!(ArrivalProcess::default(), ArrivalProcess::Uniform);
        assert_eq!(ArrivalProcess::default_burst().to_string(), "burst");
    }

    #[test]
    fn execution_costs_constructors() {
        assert_eq!(ExecutionCosts::zero().per_tx, Duration::ZERO);
        let c = ExecutionCosts::per_tx(Duration::from_micros(50));
        assert_eq!(c.per_tx, Duration::from_micros(50));
    }
}
