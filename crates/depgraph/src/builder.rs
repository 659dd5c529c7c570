//! Dependency-graph construction.
//!
//! Orderers build every graph under the *reduced* rules: per key, the
//! last writer and the readers since that write, fed one transaction at
//! a time through [`StreamingBuilder`](crate::StreamingBuilder). They emit a subgraph of the
//! §III-A Definition with the same transitive closure in O(total
//! accesses) time. [`DependencyGraph::pairwise`] keeps the Definition
//! itself, O(n²), as the reference they are tested against.

use parblock_types::{SeqNo, Transaction};

use crate::graph::DependencyGraph;

/// The rule set a graph is built under: only the reduced rules. It stays
/// because the benchmark names it for
/// [`StreamingBuilder::new`](crate::StreamingBuilder::new).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DependencyMode {
    /// Last-writer/reader index construction; same transitive closure as
    /// [`DependencyGraph::pairwise`] with fewer explicit edges.
    #[default]
    Reduced,
}

/// O(n²) pairwise construction, the paper's definition verbatim:
/// `Ti ⤳ Tj` iff `ts(i) < ts(j)` and ρ(Ti)∩ω(Tj) ≠ ∅ or ω(Ti)∩ρ(Tj) ≠ ∅
/// or ω(Ti)∩ω(Tj) ≠ ∅.
pub(crate) fn pairwise(txs: &[Transaction]) -> DependencyGraph {
    let mut edges = Vec::new();
    for (i, a) in txs.iter().enumerate() {
        for (j, b) in txs.iter().enumerate().skip(i + 1) {
            if a.rw_set().conflicts_with(b.rw_set()) {
                edges.push((SeqNo(i as u32), SeqNo(j as u32)));
            }
        }
    }
    DependencyGraph::from_sorted(txs.len(), &edges)
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

    /// The reduced build and the pairwise reference, in that order.
    fn both(block: &Block) -> [DependencyGraph; 2] {
        [
            DependencyGraph::build(block),
            DependencyGraph::pairwise(block),
        ]
    }

    #[test]
    fn full_includes_transitive_edges_reduced_does_not() {
        // Three writers of the same key: W(a), W(a), W(a).
        let block = block_of(vec![
            RwSet::write_only([k(1)]),
            RwSet::write_only([k(1)]),
            RwSet::write_only([k(1)]),
        ]);
        let [reduced, full] = both(&block);
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
        for g in both(&block) {
            assert_eq!(g.edge_count(), 0);
        }
    }

    #[test]
    fn rmw_transaction_does_not_self_depend() {
        // A transaction reading and writing the same key (the paper's
        // transfer reads and writes account 1001).
        let block = block_of(vec![RwSet::new([k(1)], [k(1)])]);
        for g in both(&block) {
            assert_eq!(g.edge_count(), 0);
        }
    }

    #[test]
    fn chain_workload_builds_chain_graph() {
        // Full-contention workload: each tx writes the same key — the
        // paper says the dependency graph of such a block is a chain.
        let block = block_of(vec![RwSet::new([k(1)], [k(1)]); 5]);
        let reduced = DependencyGraph::build(&block);
        for i in 0..4 {
            assert!(reduced.has_edge(SeqNo(i), SeqNo(i + 1)));
        }
        assert_eq!(reduced.edge_count(), 4);
    }

    #[test]
    fn reader_then_writer_edge() {
        let block = block_of(vec![RwSet::read_only([k(5)]), RwSet::write_only([k(5)])]);
        for g in both(&block) {
            assert!(g.has_edge(SeqNo(0), SeqNo(1)));
        }
    }
}
