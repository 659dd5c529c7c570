//! Dependency-graph construction.
//!
//! Two rule sets are provided:
//!
//! * [`DependencyMode::Full`] — the literal Definition of §III-A: an edge
//!   for *every* conflicting pair, found by pairwise comparison (O(n²)
//!   set intersections). This is the reference the reduced rules are
//!   tested against; no node builds it.
//! * [`DependencyMode::Reduced`] — per key, the last writer and the
//!   readers since that write. It emits a subgraph of `Full` whose
//!   transitive closure is the same partial order, in O(total accesses)
//!   time, so executors get identical scheduling freedom with fewer
//!   edges to ship and count down. [`StreamingBuilder`] is its one
//!   implementation: orderers feed it each transaction as it is ordered.

use parblock_types::{Block, SeqNo, Transaction};

use crate::graph::DependencyGraph;
use crate::streaming::StreamingBuilder;

/// Which dependency rules the builder applies. See the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DependencyMode {
    /// Every conflicting pair (§III-A Definition), by pairwise comparison.
    #[default]
    Full,
    /// Last-writer/reader index construction; same transitive closure as
    /// `Full` with fewer explicit edges.
    Reduced,
}

/// Builds the dependency graph of `block` under `mode`.
pub(crate) fn build(block: &Block, mode: DependencyMode) -> DependencyGraph {
    let txs = block.transactions();
    match mode {
        DependencyMode::Full => build_full(txs),
        DependencyMode::Reduced => {
            let mut builder = StreamingBuilder::new(mode);
            for tx in txs {
                builder.observe(tx);
            }
            builder.finish()
        }
    }
}

/// O(n²) pairwise construction, the paper's definition verbatim:
/// `Ti ⤳ Tj` iff `ts(i) < ts(j)` and ρ(Ti)∩ω(Tj) ≠ ∅ or ω(Ti)∩ρ(Tj) ≠ ∅
/// or ω(Ti)∩ω(Tj) ≠ ∅.
fn build_full(txs: &[Transaction]) -> DependencyGraph {
    let mut edges = Vec::new();
    for j in 1..txs.len() {
        for i in 0..j {
            let a = txs[i].rw_set();
            let b = txs[j].rw_set();
            if a.rw_conflict(b) || a.wr_conflict(b) || a.ww_conflict(b) {
                edges.push((SeqNo(i as u32), SeqNo(j as u32)));
            }
        }
    }
    let apps = txs.iter().map(Transaction::app).collect();
    DependencyGraph::from_edges(apps, &edges, DependencyMode::Full)
}

#[cfg(test)]
mod tests {
    use parblock_types::{AppId, Block, BlockNumber, ClientId, Hash32, Key, RwSet, Transaction};

    use super::*;

    fn block_of(rw_sets: Vec<RwSet>) -> Block {
        let txs = rw_sets
            .into_iter()
            .enumerate()
            .map(|(i, rw)| Transaction::new(AppId(0), ClientId(1), i as u64, rw, vec![]))
            .collect();
        Block::new(BlockNumber(1), Hash32::ZERO, txs)
    }

    fn k(raw: u64) -> Key {
        Key(raw)
    }

    #[test]
    fn full_includes_transitive_edges_reduced_does_not() {
        // Three writers of the same key: W(a), W(a), W(a).
        let block = block_of(vec![
            RwSet::write_only([k(1)]),
            RwSet::write_only([k(1)]),
            RwSet::write_only([k(1)]),
        ]);
        let full = build(&block, DependencyMode::Full);
        let reduced = build(&block, DependencyMode::Reduced);
        assert_eq!(full.edge_count(), 3); // (0,1), (0,2), (1,2)
        assert_eq!(reduced.edge_count(), 2); // (0,1), (1,2)
        assert!(full.has_edge(SeqNo(0), SeqNo(2)));
        assert!(!reduced.has_edge(SeqNo(0), SeqNo(2)));
    }

    #[test]
    fn read_only_transactions_are_independent() {
        let block = block_of(vec![
            RwSet::read_only([k(1)]),
            RwSet::read_only([k(1)]),
            RwSet::read_only([k(1)]),
        ]);
        for mode in [DependencyMode::Full, DependencyMode::Reduced] {
            assert_eq!(build(&block, mode).edge_count(), 0, "{mode:?}");
        }
    }

    #[test]
    fn rmw_transaction_does_not_self_depend() {
        // A transaction reading and writing the same key (the paper's
        // transfer reads and writes account 1001).
        let block = block_of(vec![RwSet::new([k(1)], [k(1)])]);
        for mode in [DependencyMode::Full, DependencyMode::Reduced] {
            assert_eq!(build(&block, mode).edge_count(), 0, "{mode:?}");
        }
    }

    #[test]
    fn chain_workload_builds_chain_graph() {
        // Full-contention workload: each tx writes the same key — the
        // paper says the dependency graph of such a block is a chain.
        let block = block_of(vec![RwSet::new([k(1)], [k(1)]); 5]);
        let reduced = build(&block, DependencyMode::Reduced);
        for i in 0..4 {
            assert!(reduced.has_edge(SeqNo(i), SeqNo(i + 1)));
        }
        assert_eq!(reduced.edge_count(), 4);
    }

    #[test]
    fn reader_then_writer_edge() {
        let block = block_of(vec![RwSet::read_only([k(5)]), RwSet::write_only([k(5)])]);
        for mode in [DependencyMode::Full, DependencyMode::Reduced] {
            let g = build(&block, mode);
            assert!(g.has_edge(SeqNo(0), SeqNo(1)), "{mode:?}");
        }
    }
}
