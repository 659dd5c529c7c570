//! The durability interface executor nodes write their ledger and state
//! through.
//!
//! ParBlockchain nodes are stateful services: orderers own the chain and
//! agents own the datastore (§III). This trait is the seam between the
//! execution runtime and whatever persistence sits underneath it:
//!
//! * [`InMemory`] (here) — no persistence; the seed behaviour, used by
//!   tests and by throughput baselines.
//! * `OnDisk` (in `parblock_store`) — write-ahead log + block store +
//!   checkpoints, with crash recovery.
//!
//! The trait also owns multi-version garbage collection: sealing a block
//! advances the commit watermark, and the *same* hook prunes state
//! versions below it (and, on disk, truncates the WAL below the last
//! checkpoint), so version GC and log truncation advance together
//! instead of depending on callers passing watermarks around manually.

use parblock_depgraph::DependencyGraph;
use parblock_types::{Block, Hash32, Key, SeqNo, Value};

use crate::mvcc::{MvccState, Version};

/// Counters a [`Durability`] implementation accumulates over its life,
/// surfaced through `RunReport` for durability-overhead observability.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DurabilityStats {
    /// Bytes appended to the write-ahead log (framing included).
    pub wal_bytes_written: u64,
    /// Number of `fsync` barriers issued (WAL group commits, block-store
    /// seals, checkpoint publishes).
    pub fsync_count: u64,
    /// Checkpoints written.
    pub checkpoint_count: u64,
    /// WAL records replayed above the checkpoint during recovery (zero
    /// for a store that started empty).
    pub recovery_replay_len: u64,
}

impl DurabilityStats {
    /// Element-wise sum, for aggregating per-node stats.
    #[must_use]
    pub fn merged(self, other: DurabilityStats) -> DurabilityStats {
        DurabilityStats {
            wal_bytes_written: self.wal_bytes_written + other.wal_bytes_written,
            fsync_count: self.fsync_count + other.fsync_count,
            checkpoint_count: self.checkpoint_count + other.checkpoint_count,
            recovery_replay_len: self.recovery_replay_len + other.recovery_replay_len,
        }
    }
}

/// Where an executor persists committed effects and sealed blocks.
///
/// The contract (DESIGN.md §9):
///
/// 1. [`Durability::log_effects`] is called with a transaction's
///    committed write-set **before** any COMMIT message carrying that
///    result leaves the node. The append may be buffered (group
///    commit): effects only become *load-bearing* at the seal barrier,
///    because recovery drops everything above the last sealed block
///    and the resumed cluster deterministically re-executes it.
/// 2. [`Durability::seal_block`] is called when a block fully commits —
///    after the caller's in-memory ledger append computes the new head
///    hash, but **before** the node acknowledges the block externally
///    (metrics, observers, further COMMIT traffic). On return the
///    block and every effect at or below it must be durable (the fsync
///    barrier); `head` must be the chain head hash *including* the
///    sealed block, or recovery's chain-vs-head integrity check will
///    reject the store.
/// 3. `seal_block` owns garbage collection: it prunes `state` below the
///    new watermark, so checkpointing (which snapshots the pruned state)
///    and version GC advance in the same step.
pub trait Durability: Send {
    /// Persists the committed write-set of the transaction at `version`.
    fn log_effects(&mut self, version: Version, writes: &[(Key, Value)]);

    /// Durably seals `block` (with its dependency graph, when the system
    /// carries one) at the new commit watermark. `head` is the ledger
    /// head hash *after* this block. Also prunes `state` below the
    /// watermark (see trait docs).
    fn seal_block(
        &mut self,
        block: &Block,
        graph: Option<&DependencyGraph>,
        head: Hash32,
        state: &mut MvccState,
    );

    /// Counters accumulated so far.
    fn stats(&self) -> DurabilityStats;
}

/// Prunes `state` to the watermark a just-sealed block establishes:
/// every future reader is positioned in a later block, so only the
/// newest version at or below the end of this block stays reachable per
/// key. Shared by every [`Durability`] implementation.
pub fn prune_to_sealed(block: &Block, state: &mut MvccState) {
    state.prune(Version::new(block.number(), SeqNo(u32::MAX)));
}

/// The no-persistence implementation: version GC still advances at every
/// seal, but nothing touches disk and every counter stays zero.
#[derive(Debug, Clone, Copy, Default)]
pub struct InMemory;

impl Durability for InMemory {
    fn log_effects(&mut self, _version: Version, _writes: &[(Key, Value)]) {}

    fn seal_block(
        &mut self,
        block: &Block,
        _graph: Option<&DependencyGraph>,
        _head: Hash32,
        state: &mut MvccState,
    ) {
        prune_to_sealed(block, state);
    }

    fn stats(&self) -> DurabilityStats {
        DurabilityStats::default()
    }
}

#[cfg(test)]
mod tests {
    use parblock_types::{BlockNumber, Hash32};

    use super::*;

    #[test]
    fn in_memory_seal_prunes_state_and_reports_zero_stats() {
        let mut durability = InMemory;
        let mut state = MvccState::new();
        for block in 1..=3u64 {
            state.put(
                Key(1),
                Value::Int(block as i64),
                Version::new(BlockNumber(block), SeqNo(0)),
            );
        }
        durability.log_effects(Version::GENESIS, &[(Key(1), Value::Int(0))]);
        let sealed = Block::new(BlockNumber(2), Hash32::ZERO, vec![]);
        durability.seal_block(&sealed, None, Hash32::ZERO, &mut state);
        // Versions below block 2 collapsed to the newest visible one.
        assert_eq!(state.version_count(Key(1)), 2);
        assert_eq!(durability.stats(), DurabilityStats::default());
    }

    #[test]
    fn stats_merge_elementwise() {
        let a = DurabilityStats {
            wal_bytes_written: 1,
            fsync_count: 2,
            checkpoint_count: 3,
            recovery_replay_len: 4,
        };
        let b = DurabilityStats {
            wal_bytes_written: 10,
            fsync_count: 20,
            checkpoint_count: 30,
            recovery_replay_len: 40,
        };
        assert_eq!(
            a.merged(b),
            DurabilityStats {
                wal_bytes_written: 11,
                fsync_count: 22,
                checkpoint_count: 33,
                recovery_replay_len: 44,
            }
        );
    }
}
