//! Incremental dependency-graph construction over the transaction stream.
//!
//! [`StreamingBuilder`] is the one implementation of the reduced
//! (last-writer/reader) rules. Orderers feed it each transaction as it
//! is ordered: each [`StreamingBuilder::observe`] updates a per-key
//! conflict index (last writer, readers since that write) and appends
//! the new transaction's dependency edges. [`StreamingBuilder::finish`]
//! then packs the [`DependencyGraph`] in time proportional to the
//! pending block (its vertices and accumulated edges), so cutting a block
//! never pays the O(n²) pairwise sweep that the paper blames for
//! orderer load ("generating the dependency graph … increases the load
//! on the orderers", §IV-B).
//!
//! Emitting every conflicting pair is inherently Ω(n²)
//! (all-writers-of-one-key blocks have that many edges), whereas the
//! reduced set has at most O(accesses) edges and the same transitive
//! closure — the partial order executors obey — as the pairwise
//! reference [`DependencyGraph::pairwise`] (property-tested, DESIGN.md
//! §6).

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use parblock_types::{Key, SeqNo, Transaction};

use crate::builder::DependencyMode;
use crate::graph::DependencyGraph;

/// Per-key conflict index entry.
#[derive(Debug, Default)]
struct KeyIndex {
    /// The last transaction that wrote this key.
    last_writer: Option<SeqNo>,
    /// Readers since that write.
    readers_since_write: Vec<SeqNo>,
}

/// Incrementally builds a block's dependency graph as transactions are
/// ordered, so cutting a block costs O(pending).
///
/// # Examples
///
/// ```
/// use parblock_depgraph::{DependencyGraph, DependencyMode, StreamingBuilder};
/// use parblock_types::{AppId, ClientId, Key, RwSet, SeqNo, Transaction};
///
/// let tx = |ts, rw| Transaction::new(AppId(0), ClientId(1), ts, rw, vec![]);
/// let mut builder = StreamingBuilder::new(DependencyMode::Reduced);
/// builder.observe(&tx(1, RwSet::write_only([Key(7)])));
/// builder.observe(&tx(2, RwSet::read_only([Key(7)])));
/// let graph = builder.finish();
/// assert!(graph.has_edge(SeqNo(0), SeqNo(1)));
/// // `finish` resets the index: the builder is ready for the next block.
/// assert!(builder.is_empty());
/// ```
#[derive(Debug)]
pub struct StreamingBuilder {
    /// Transactions observed since the last [`Self::finish`].
    len: usize,
    /// Their edges; emptied, not dropped, by `finish`.
    edges: Vec<(SeqNo, SeqNo)>,
    keys: HashMap<Key, KeyIndex>,
}

impl StreamingBuilder {
    /// Creates an empty builder; the one `DependencyMode` selects nothing.
    #[must_use]
    pub fn new(_mode: DependencyMode) -> Self {
        StreamingBuilder {
            len: 0,
            edges: Vec::new(),
            keys: HashMap::new(),
        }
    }

    /// Whether no transaction has been observed since the last
    /// [`Self::finish`].
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Feeds the next transaction of the pending block, updating the
    /// conflict index and appending its dependency edges. Amortised cost
    /// is proportional to the transaction's accesses plus the edges it
    /// creates.
    pub fn observe(&mut self, tx: &Transaction) {
        let j = SeqNo(u32::try_from(self.len).expect("block exceeds u32 positions"));
        self.len += 1;
        // W→R: the last writer of each read key precedes us.
        for key in tx.rw_set().reads() {
            if let Some(index) = self.keys.get(key) {
                if let Some(w) = index.last_writer {
                    self.edges.push((w, j));
                }
            }
        }
        for key in tx.rw_set().writes() {
            let index = self.keys.entry(*key).or_default();
            // R→W: all readers since the last write precede us.
            for &r in &index.readers_since_write {
                if r != j {
                    self.edges.push((r, j));
                }
            }
            // W→W: the previous writer precedes us.
            if let Some(w) = index.last_writer {
                if w != j {
                    self.edges.push((w, j));
                }
            }
            index.last_writer = Some(j);
            index.readers_since_write.clear();
        }
        // Register reads after handling writes so a transaction that both
        // reads and writes a key does not self-depend.
        for key in tx.rw_set().reads() {
            let index = self.keys.entry(*key).or_default();
            if index.last_writer != Some(j) {
                index.readers_since_write.push(j);
            }
        }
    }

    /// Emits the dependency graph of the observed transactions and resets
    /// the builder for the next block.
    ///
    /// Cost is sorting the accumulated edges plus one pass over them and
    /// the vertices — the cut-time emission the orderer pays on its
    /// critical path; all pairwise work already happened inside
    /// [`Self::observe`]. The graph is one allocation.
    pub fn finish(&mut self) -> DependencyGraph {
        // Two keys can give one pair the same edge twice.
        self.edges.sort_unstable();
        self.edges.dedup();
        let graph = DependencyGraph::from_sorted(self.len, &self.edges);
        self.len = 0;
        self.edges.clear();
        self.keys.clear();
        graph
    }
}

/// A conflict index **retained across blocks**: the cross-block companion
/// of [`StreamingBuilder`] that executors use to pipeline block `n + 1`
/// over the still-running tail of block `n` (§III-A's multi-version
/// adaptation: reads are directed to the correct version by log position,
/// so only *writer → later-transaction* orderings cross block boundaries).
///
/// The index tracks, per key, the **pending writers** — transactions of
/// admitted blocks whose writes have not yet been applied to the
/// executor's (multi-version) state. Admitting a block returns, per
/// position, the pending writers of earlier blocks that touch the
/// position's read or write keys:
///
/// * a *read* key dependency positions the reader after the writer whose
///   version it must observe (W→R);
/// * a *write* key dependency keeps the per-key writer chain transitive
///   across blocks (W→W), so a reader released by an **aborted** last
///   writer still finds the previous version applied.
///
/// Read-before-write orderings (R→W) are deliberately **not** emitted:
/// under multi-version state a later writer creates a new version instead
/// of clobbering the one an in-flight reader is positioned at — that is
/// the concurrency the pipeline exists to harvest.
///
/// In-block conflicts are the [`DependencyGraph`]'s job; admission
/// computes dependencies against the index state *before* registering the
/// new block's writers, so no in-block edge is ever duplicated.
///
/// # Examples
///
/// ```
/// use parblock_depgraph::CrossBlockIndex;
/// use parblock_types::{AppId, ClientId, Key, RwSet, SeqNo, Transaction};
///
/// let tx = |ts, rw| Transaction::new(AppId(0), ClientId(1), ts, rw, vec![]);
/// let mut index = CrossBlockIndex::new();
/// let deps = index.admit_block(1, &[tx(1, RwSet::write_only([Key(7)]))]);
/// assert!(deps[0].is_empty(), "block 1 has no earlier blocks");
/// // Block 2 reads the key block 1 still holds pending.
/// let deps = index.admit_block(2, &[tx(2, RwSet::read_only([Key(7)]))]);
/// assert_eq!(deps[0], vec![(1, SeqNo(0))]);
/// // Once the writer's result is applied, a later reader waits for nothing.
/// index.complete(1, SeqNo(0));
/// let deps = index.admit_block(3, &[tx(3, RwSet::read_only([Key(7)]))]);
/// assert!(deps[0].is_empty());
/// ```
#[derive(Debug, Default)]
pub struct CrossBlockIndex {
    /// Pending writers per key, ascending by `(block, seq)`.
    writers: HashMap<Key, Vec<(u64, SeqNo)>, FixedState>,
    /// Reverse map: pending writer → keys it writes (for O(writes)
    /// removal on completion).
    by_writer: HashMap<(u64, SeqNo), Vec<Key>, FixedState>,
}

/// A hasher with fixed keys. Both maps of [`CrossBlockIndex`] churn
/// inserts and removals, so when their tables grow depends on where
/// entries hash; under a per-process `RandomState` that differs run to
/// run, and so would an executor's allocations.
type FixedState = BuildHasherDefault<DefaultHasher>;

impl CrossBlockIndex {
    /// Creates an empty index.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Admits the transactions of block `block` (positions follow slice
    /// order) and returns, per position, its cross-block dependencies:
    /// the pending writers of **earlier** blocks touching the position's
    /// read or write keys, ascending and deduplicated.
    ///
    /// Blocks must be admitted in ascending order; every returned
    /// dependency must eventually be retired via
    /// [`CrossBlockIndex::complete`].
    pub fn admit_block(&mut self, block: u64, txs: &[Transaction]) -> Vec<Vec<(u64, SeqNo)>> {
        // Pass 1: dependencies against the pre-existing (earlier-block)
        // index state only.
        let mut deps = Vec::with_capacity(txs.len());
        for tx in txs {
            let mut mine: Vec<(u64, SeqNo)> = Vec::new();
            for key in tx.rw_set().reads().iter().chain(tx.rw_set().writes()) {
                if let Some(pending) = self.writers.get(key) {
                    mine.extend(pending.iter().copied());
                }
            }
            mine.sort_unstable();
            mine.dedup();
            debug_assert!(mine.iter().all(|&(b, _)| b < block));
            deps.push(mine);
        }
        // Pass 2: register this block's writers as pending.
        for (i, tx) in txs.iter().enumerate() {
            let seq = SeqNo(u32::try_from(i).expect("block exceeds u32 positions"));
            let write_keys = tx.rw_set().writes().to_vec();
            if write_keys.is_empty() {
                continue;
            }
            for key in &write_keys {
                self.writers.entry(*key).or_default().push((block, seq));
            }
            self.by_writer.insert((block, seq), write_keys);
        }
        deps
    }

    /// Retires a pending writer: its writes are now applied to the state
    /// (or it aborted and never will write). Idempotent; transactions
    /// that write nothing were never pending and retire as a no-op.
    pub fn complete(&mut self, block: u64, seq: SeqNo) {
        let Some(keys) = self.by_writer.remove(&(block, seq)) else {
            return;
        };
        for key in keys {
            if let Some(pending) = self.writers.get_mut(&key) {
                pending.retain(|&w| w != (block, seq));
                if pending.is_empty() {
                    self.writers.remove(&key);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use parblock_types::{AppId, Block, BlockNumber, ClientId, Hash32, RwSet};

    use super::*;

    fn tx(i: u64, rw: RwSet) -> Transaction {
        Transaction::new(AppId(0), ClientId(1), i, rw, vec![])
    }

    fn stream(rw_sets: &[RwSet]) -> DependencyGraph {
        let mut builder = StreamingBuilder::new(DependencyMode::Reduced);
        for (i, rw) in rw_sets.iter().enumerate() {
            builder.observe(&tx(i as u64, rw.clone()));
        }
        builder.finish()
    }

    fn block_of(rw_sets: &[RwSet]) -> Block {
        let txs = rw_sets
            .iter()
            .enumerate()
            .map(|(i, rw)| tx(i as u64, rw.clone()))
            .collect();
        Block::new(BlockNumber(1), Hash32::ZERO, txs)
    }

    fn k(raw: u64) -> Key {
        Key(raw)
    }

    #[test]
    fn reduced_streaming_equals_batch_on_write_chain() {
        // Four writers of one key: the reduced rules emit exactly the
        // chain, whether fed one transaction at a time or a whole block.
        let sets = vec![RwSet::write_only([k(1)]); 4];
        let chain = DependencyGraph::from_edges(
            4,
            &[
                (SeqNo(0), SeqNo(1)),
                (SeqNo(1), SeqNo(2)),
                (SeqNo(2), SeqNo(3)),
            ],
        );
        assert_eq!(stream(&sets), chain);
        let whole = DependencyGraph::build(&block_of(&sets));
        assert_eq!(whole, chain);
    }

    #[test]
    fn full_streaming_emits_closure_equivalent_subset() {
        // Three writers of one key: the pairwise definition has 3 edges,
        // streaming emits the 2-edge chain with the same transitive
        // closure.
        let sets = vec![RwSet::write_only([k(1)]); 3];
        let g = stream(&sets);
        assert_eq!(g.edge_count(), 2);
        assert!(g.has_edge(SeqNo(0), SeqNo(1)));
        assert!(g.has_edge(SeqNo(1), SeqNo(2)));
        let pairwise = DependencyGraph::pairwise(&block_of(&sets));
        assert_eq!(pairwise.edge_count(), 3);
    }

    #[test]
    fn rmw_transaction_does_not_self_depend() {
        let sets = vec![RwSet::new([k(1)], [k(1)])];
        assert_eq!(stream(&sets).edge_count(), 0);
    }

    #[test]
    fn finish_resets_the_index_between_blocks() {
        let mut builder = StreamingBuilder::new(DependencyMode::Reduced);
        builder.observe(&tx(1, RwSet::write_only([k(9)])));
        builder.observe(&tx(2, RwSet::write_only([k(9)])));
        let first = builder.finish();
        assert_eq!(first.edge_count(), 1);
        assert!(builder.is_empty());

        // Same key again: must not see block 1's writer.
        builder.observe(&tx(3, RwSet::read_only([k(9)])));
        let second = builder.finish();
        assert_eq!(second.len(), 1);
        assert_eq!(
            second.edge_count(),
            0,
            "stale last-writer leaked across blocks"
        );
    }

    #[test]
    fn empty_finish_yields_empty_graph() {
        let mut builder = StreamingBuilder::new(DependencyMode::Reduced);
        let g = builder.finish();
        assert!(g.is_empty());
        assert_eq!(g.edge_count(), 0);
    }

    // ---- CrossBlockIndex ----------------------------------------------

    #[test]
    fn cross_block_reader_waits_on_pending_writer_only() {
        let mut index = CrossBlockIndex::new();
        let b1 = [
            tx(1, RwSet::write_only([k(1)])),
            tx(2, RwSet::write_only([k(2)])),
        ];
        assert!(index.admit_block(1, &b1).iter().all(Vec::is_empty));
        // Key 2's writer retires before block 2 is admitted.
        index.complete(1, SeqNo(1));
        let b2 = [
            tx(3, RwSet::read_only([k(1)])),
            tx(4, RwSet::read_only([k(2)])),
            tx(5, RwSet::read_only([k(9)])),
        ];
        let deps = index.admit_block(2, &b2);
        assert_eq!(deps[0], vec![(1, SeqNo(0))], "pending writer blocks");
        assert!(deps[1].is_empty(), "retired writer does not block");
        assert!(deps[2].is_empty(), "untouched key does not block");
    }

    #[test]
    fn cross_block_writer_chain_spans_blocks() {
        // W(k) in block 1, W(k) in block 2: the W→W edge keeps the chain
        // transitive so a reader in block 3 survives a block-2 abort.
        let mut index = CrossBlockIndex::new();
        index.admit_block(1, &[tx(1, RwSet::write_only([k(7)]))]);
        let deps = index.admit_block(2, &[tx(2, RwSet::write_only([k(7)]))]);
        assert_eq!(deps[0], vec![(1, SeqNo(0))]);
        let deps = index.admit_block(3, &[tx(3, RwSet::read_only([k(7)]))]);
        assert_eq!(deps[0], vec![(1, SeqNo(0)), (2, SeqNo(0))]);
    }

    #[test]
    fn cross_block_no_read_to_write_edges() {
        // A pure reader in block 1 never blocks a writer in block 2:
        // multi-version state gives the reader its own version.
        let mut index = CrossBlockIndex::new();
        index.admit_block(1, &[tx(1, RwSet::read_only([k(5)]))]);
        let deps = index.admit_block(2, &[tx(2, RwSet::write_only([k(5)]))]);
        assert!(deps[0].is_empty());
        // Only the block-2 writer is pending: a block-3 reader waits on it
        // alone.
        let deps = index.admit_block(3, &[tx(3, RwSet::read_only([k(5)]))]);
        assert_eq!(deps[0], vec![(2, SeqNo(0))]);
    }

    #[test]
    fn cross_block_no_in_block_duplicates_and_dedup() {
        let mut index = CrossBlockIndex::new();
        index.admit_block(1, &[tx(1, RwSet::write_only([k(1), k(2)]))]);
        // Same-block conflict (positions 0, 1) must not appear; a tx
        // touching two keys of one pending writer depends on it once.
        let b2 = [
            tx(2, RwSet::write_only([k(1)])),
            tx(3, RwSet::new([k(1)], [k(1)])),
            tx(4, RwSet::new([k(1), k(2)], [])),
        ];
        let deps = index.admit_block(2, &b2);
        assert_eq!(deps[1], vec![(1, SeqNo(0))], "no same-block edges");
        assert_eq!(deps[2], vec![(1, SeqNo(0))], "two keys, one dependency");
    }

    #[test]
    fn cross_block_complete_is_idempotent_and_skips_non_writers() {
        let mut index = CrossBlockIndex::new();
        index.admit_block(1, &[tx(1, RwSet::read_only([k(1)]))]);
        let deps = index.admit_block(2, &[tx(2, RwSet::write_only([k(1)]))]);
        assert!(deps[0].is_empty(), "readers are never pending");
        index.complete(1, SeqNo(0));
        index.complete(9, SeqNo(9)); // unknown writer: no-op
        index.complete(2, SeqNo(0));
        index.complete(2, SeqNo(0));
        let deps = index.admit_block(3, &[tx(3, RwSet::read_only([k(1)]))]);
        assert!(deps[0].is_empty(), "the retired writer blocks nothing");
    }
}
