//! The fixed transaction lifecycle stage model.

use std::fmt;

/// Number of lifecycle stages — the length of [`Stage::ALL`].
pub const STAGE_COUNT: usize = 8;

/// One stage of a transaction's lifecycle through an OXII cluster, in
/// pipeline order. The discriminants are stable (they appear in digest
/// encodings and JSON artifacts) — append-only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Stage {
    /// Client driver handed the signed request to the entry orderer
    /// (stamped with the *intended* arrival, so driver lag is charged
    /// to the submit→sequence gap, not hidden).
    Submitted = 0,
    /// Consensus delivered the transaction to the ordering service.
    Sequenced = 1,
    /// The block cutter sealed the transaction into a block.
    Cut = 2,
    /// Every dependency-graph predecessor completed: the scheduler may
    /// dispatch it.
    GraphReady = 3,
    /// One of the executor's execution lanes started it (the wait for
    /// a free lane falls before this stage).
    Dispatched = 4,
    /// Contract execution finished.
    Executed = 5,
    /// The commit quorum was reached on the observer.
    Committed = 6,
    /// The block holding the transaction was sealed to the durability
    /// layer (the WAL fsync lands here on-disk).
    Durable = 7,
}

impl Stage {
    /// All stages in pipeline order.
    pub const ALL: [Stage; STAGE_COUNT] = [
        Stage::Submitted,
        Stage::Sequenced,
        Stage::Cut,
        Stage::GraphReady,
        Stage::Dispatched,
        Stage::Executed,
        Stage::Committed,
        Stage::Durable,
    ];

    /// The stage's position in [`Stage::ALL`].
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }

    /// The inverse of [`Stage::index`].
    #[must_use]
    pub fn from_index(index: usize) -> Option<Stage> {
        Stage::ALL.get(index).copied()
    }

    /// Stable lowercase name, used in tables and JSON artifacts.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Stage::Submitted => "submitted",
            Stage::Sequenced => "sequenced",
            Stage::Cut => "cut",
            Stage::GraphReady => "graph-ready",
            Stage::Dispatched => "dispatched",
            Stage::Executed => "executed",
            Stage::Committed => "committed",
            Stage::Durable => "durable",
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_round_trip_and_are_ordered() {
        for (i, stage) in Stage::ALL.iter().enumerate() {
            assert_eq!(stage.index(), i);
            assert_eq!(Stage::from_index(i), Some(*stage));
        }
        assert_eq!(Stage::from_index(STAGE_COUNT), None);
        let mut sorted = Stage::ALL;
        sorted.sort();
        assert_eq!(sorted, Stage::ALL, "ALL is pipeline-ordered");
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), STAGE_COUNT);
        assert_eq!(Stage::GraphReady.to_string(), "graph-ready");
    }
}
