//! Incremental dependency-graph construction over the transaction stream.
//!
//! The batch builders in [`crate::builder`] pay their whole cost at cut
//! time — in [`DependencyMode::Full`] that is an O(n²) pairwise sweep
//! executed *between* cutting a block and multicasting `NEWBLOCK`, which
//! is exactly the orderer-side load the paper blames for the Fig 5
//! throughput rolloff ("generating the dependency graph … increases the
//! load on the orderers", §IV-B).
//!
//! [`StreamingBuilder`] moves that work onto the ordered transaction
//! stream instead: each [`StreamingBuilder::observe`] updates a per-key
//! conflict index (last writer, readers since that write, and — for
//! multi-version rules — all writers) and appends the new transaction's
//! dependency edges. [`StreamingBuilder::finish`] then materialises the
//! [`DependencyGraph`] in time proportional to the pending block (its
//! vertices and accumulated edges), not the square of its size.
//!
//! Equivalence with the batch builders (property-tested, DESIGN.md §6):
//!
//! * [`DependencyMode::Reduced`] and [`DependencyMode::MultiVersion`] —
//!   the streaming edge set is **identical** to the batch edge set.
//! * [`DependencyMode::Full`] — emitting every conflicting pair is
//!   inherently Ω(n²) (all-writers-of-one-key blocks have that many
//!   edges), so the streaming builder emits the *closure-equivalent*
//!   last-writer/reader edge set instead: the transitive closure — and
//!   hence the partial order executors obey — is exactly the batch
//!   `Full` closure, with at most O(accesses) edges.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use parblock_types::{AppId, Key, SeqNo, Transaction};

use crate::builder::DependencyMode;
use crate::graph::DependencyGraph;

/// Per-key conflict index entry.
#[derive(Debug, Default)]
struct KeyIndex {
    /// The last transaction that wrote this key (single-version rules).
    last_writer: Option<SeqNo>,
    /// Readers since that write (single-version rules).
    readers_since_write: Vec<SeqNo>,
    /// Every writer of this key so far (multi-version rules: writes make
    /// versions, so *all* of them constrain a later reader).
    writers: Vec<SeqNo>,
}

/// Incrementally builds a block's dependency graph as transactions are
/// delivered, so cut time pays O(pending) instead of an O(n²) rebuild.
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
    mode: DependencyMode,
    apps: Vec<AppId>,
    edges: Vec<(SeqNo, SeqNo)>,
    keys: HashMap<Key, KeyIndex>,
}

impl StreamingBuilder {
    /// Creates an empty builder for `mode`.
    #[must_use]
    pub fn new(mode: DependencyMode) -> Self {
        StreamingBuilder {
            mode,
            apps: Vec::new(),
            edges: Vec::new(),
            keys: HashMap::new(),
        }
    }

    /// The dependency rules this builder applies.
    #[must_use]
    pub fn mode(&self) -> DependencyMode {
        self.mode
    }

    /// Number of transactions observed since the last [`Self::finish`].
    #[must_use]
    pub fn len(&self) -> usize {
        self.apps.len()
    }

    /// Whether no transaction has been observed since the last
    /// [`Self::finish`].
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.apps.is_empty()
    }

    /// Number of dependency edges accumulated so far (before adjacency
    /// deduplication; an upper bound on the finished graph's edge count).
    #[must_use]
    pub fn edge_upper_bound(&self) -> usize {
        self.edges.len()
    }

    /// Feeds the next transaction of the pending block, updating the
    /// conflict index and appending its dependency edges. Amortised cost
    /// is proportional to the transaction's accesses plus the edges it
    /// creates.
    pub fn observe(&mut self, tx: &Transaction) {
        let j = SeqNo(u32::try_from(self.apps.len()).expect("block exceeds u32 positions"));
        self.apps.push(tx.app());
        match self.mode {
            // `Full` and `Reduced` share the last-writer/reader rules;
            // `Full` differs from the batch builder only in emitting the
            // closure-equivalent subset (see the module docs).
            DependencyMode::Full | DependencyMode::Reduced => self.observe_single_version(tx, j),
            DependencyMode::MultiVersion => self.observe_multi_version(tx, j),
        }
    }

    /// Single-version rules, mirroring `builder::build_reduced` step for
    /// step so the streaming `Reduced` edge set matches the batch one
    /// exactly.
    fn observe_single_version(&mut self, tx: &Transaction, j: SeqNo) {
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

    /// Multi-version rules: only ω(Ti) ∩ ρ(Tj) forces `Ti ⤳ Tj`, and every
    /// earlier writer of a read key constrains the reader.
    fn observe_multi_version(&mut self, tx: &Transaction, j: SeqNo) {
        for key in tx.rw_set().reads() {
            if let Some(index) = self.keys.get(key) {
                for &w in &index.writers {
                    self.edges.push((w, j));
                }
            }
        }
        // Writes are registered after reads, so a read-modify-write
        // transaction never self-depends.
        for key in tx.rw_set().writes() {
            self.keys.entry(*key).or_default().writers.push(j);
        }
    }

    /// Emits the dependency graph of the observed transactions and resets
    /// the builder for the next block.
    ///
    /// Cost is O(vertices + accumulated edges) — the cut-time emission
    /// the orderer pays on its critical path; all pairwise work already
    /// happened inside [`Self::observe`].
    pub fn finish(&mut self) -> DependencyGraph {
        let apps = std::mem::take(&mut self.apps);
        let edges = std::mem::take(&mut self.edges);
        self.keys.clear();
        DependencyGraph::from_edges(apps, &edges, self.mode)
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
/// // Once the writer's result is applied, nothing is pending.
/// index.complete(1, SeqNo(0));
/// assert_eq!(index.pending_writers(), 0);
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

    /// Number of writers whose completion the index is still awaiting.
    #[must_use]
    pub fn pending_writers(&self) -> usize {
        self.by_writer.len()
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
    use parblock_types::{Block, BlockNumber, ClientId, Hash32, RwSet};

    use super::*;

    fn tx(i: u64, rw: RwSet) -> Transaction {
        Transaction::new(AppId(0), ClientId(1), i, rw, vec![])
    }

    fn stream(mode: DependencyMode, rw_sets: &[RwSet]) -> DependencyGraph {
        let mut builder = StreamingBuilder::new(mode);
        for (i, rw) in rw_sets.iter().enumerate() {
            builder.observe(&tx(i as u64, rw.clone()));
        }
        builder.finish()
    }

    fn batch(mode: DependencyMode, rw_sets: &[RwSet]) -> DependencyGraph {
        let txs = rw_sets
            .iter()
            .enumerate()
            .map(|(i, rw)| tx(i as u64, rw.clone()))
            .collect();
        DependencyGraph::build(&Block::new(BlockNumber(1), Hash32::ZERO, txs), mode)
    }

    fn k(raw: u64) -> Key {
        Key(raw)
    }

    #[test]
    fn reduced_streaming_equals_batch_on_write_chain() {
        let sets = vec![RwSet::write_only([k(1)]); 4];
        assert_eq!(
            stream(DependencyMode::Reduced, &sets),
            batch(DependencyMode::Reduced, &sets)
        );
    }

    #[test]
    fn multi_version_streaming_keeps_all_writer_edges() {
        // W(a), W(a), R(a): both writers constrain the reader.
        let sets = vec![
            RwSet::write_only([k(1)]),
            RwSet::write_only([k(1)]),
            RwSet::read_only([k(1)]),
        ];
        let g = stream(DependencyMode::MultiVersion, &sets);
        assert_eq!(g, batch(DependencyMode::MultiVersion, &sets));
        assert!(g.has_edge(SeqNo(0), SeqNo(2)));
        assert!(g.has_edge(SeqNo(1), SeqNo(2)));
        assert!(!g.has_edge(SeqNo(0), SeqNo(1)), "WW dropped under MV");
    }

    #[test]
    fn full_streaming_emits_closure_equivalent_subset() {
        // Three writers of one key: batch Full has 3 edges, streaming
        // Full emits the 2-edge chain with the same transitive closure.
        let sets = vec![RwSet::write_only([k(1)]); 3];
        let g = stream(DependencyMode::Full, &sets);
        assert_eq!(g.mode(), DependencyMode::Full);
        assert_eq!(g.edge_count(), 2);
        assert!(g.has_edge(SeqNo(0), SeqNo(1)));
        assert!(g.has_edge(SeqNo(1), SeqNo(2)));
        assert_eq!(batch(DependencyMode::Full, &sets).edge_count(), 3);
    }

    #[test]
    fn rmw_transaction_does_not_self_depend() {
        let sets = vec![RwSet::new([k(1)], [k(1)])];
        for mode in [
            DependencyMode::Full,
            DependencyMode::Reduced,
            DependencyMode::MultiVersion,
        ] {
            assert_eq!(stream(mode, &sets).edge_count(), 0, "{mode:?}");
        }
    }

    #[test]
    fn finish_resets_the_index_between_blocks() {
        let mut builder = StreamingBuilder::new(DependencyMode::Reduced);
        builder.observe(&tx(1, RwSet::write_only([k(9)])));
        builder.observe(&tx(2, RwSet::write_only([k(9)])));
        let first = builder.finish();
        assert_eq!(first.edge_count(), 1);
        assert!(builder.is_empty());
        assert_eq!(builder.edge_upper_bound(), 0);

        // Same key again: must not see block 1's writer.
        builder.observe(&tx(3, RwSet::read_only([k(9)])));
        let second = builder.finish();
        assert_eq!(second.len(), 1);
        assert_eq!(second.edge_count(), 0, "stale last-writer leaked across blocks");
    }

    #[test]
    fn empty_finish_yields_empty_graph() {
        let mut builder = StreamingBuilder::new(DependencyMode::Full);
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
        assert_eq!(index.pending_writers(), 1, "only the block-2 writer");
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
        assert_eq!(index.pending_writers(), 0, "readers are never pending");
        index.complete(1, SeqNo(0));
        index.complete(9, SeqNo(9)); // unknown writer: no-op
        index.admit_block(2, &[tx(2, RwSet::write_only([k(1)]))]);
        index.complete(2, SeqNo(0));
        index.complete(2, SeqNo(0));
        assert_eq!(index.pending_writers(), 0);
    }
}
