//! Dependency-graph construction.
//!
//! Three modes are provided:
//!
//! * [`DependencyMode::Full`] — the literal Definition of §III-A: an edge
//!   for *every* conflicting pair, found by pairwise comparison (O(n²)
//!   set intersections). This is the reference implementation.
//! * [`DependencyMode::Reduced`] — an index-based construction that tracks,
//!   per key, the last writer and the readers since that write. It emits a
//!   subgraph of `Full` whose transitive closure is the same partial
//!   order, in O(total accesses · log) time. Executors get identical
//!   scheduling freedom with fewer edges to ship and count down.
//! * [`DependencyMode::MultiVersion`] — the multi-version adaptation
//!   sketched in §III-A: writes create new versions, so write-write and
//!   read-then-write pairs no longer constrain each other; only
//!   write-then-read pairs (a later read must see the earlier version)
//!   force an ordering dependency.

use parblock_types::{Block, SeqNo, Transaction};

use crate::graph::DependencyGraph;

/// Which dependency rules the builder applies. See the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DependencyMode {
    /// Every conflicting pair (§III-A Definition), by pairwise comparison.
    #[default]
    Full,
    /// Last-writer/reader index construction; same transitive closure as
    /// `Full` with fewer explicit edges.
    Reduced,
    /// Multi-version rules: only write→read dependencies.
    MultiVersion,
}

/// Builds the dependency graph of `block` under `mode`.
pub(crate) fn build(block: &Block, mode: DependencyMode) -> DependencyGraph {
    build_txs(block.transactions(), mode)
}

/// Builds the dependency graph of a transaction sequence under `mode`.
/// Positions follow slice order, exactly as they would in a block.
pub(crate) fn build_txs(txs: &[Transaction], mode: DependencyMode) -> DependencyGraph {
    match mode {
        DependencyMode::Full => build_full(txs),
        DependencyMode::Reduced => build_reduced(txs),
        DependencyMode::MultiVersion => build_multi_version(txs),
    }
}

fn apps_of(txs: &[Transaction]) -> Vec<parblock_types::AppId> {
    txs.iter().map(Transaction::app).collect()
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
    DependencyGraph::from_edges(apps_of(txs), &edges, DependencyMode::Full)
}

/// Index-based construction: per key, remember the last writer and the
/// readers since that write.
fn build_reduced(txs: &[Transaction]) -> DependencyGraph {
    use std::collections::HashMap;
    use parblock_types::Key;

    #[derive(Default)]
    struct KeyState {
        last_writer: Option<SeqNo>,
        readers_since_write: Vec<SeqNo>,
    }

    let mut keys: HashMap<Key, KeyState> = HashMap::new();
    let mut edges = Vec::new();

    for (j, tx) in txs.iter().enumerate() {
        let j = SeqNo(j as u32);
        // W→R: the last writer of each read key precedes us.
        for key in tx.rw_set().reads() {
            if let Some(state) = keys.get(key) {
                if let Some(w) = state.last_writer {
                    edges.push((w, j));
                }
            }
        }
        for key in tx.rw_set().writes() {
            let state = keys.entry(*key).or_default();
            // R→W: all readers since the last write precede us.
            for &r in &state.readers_since_write {
                if r != j {
                    edges.push((r, j));
                }
            }
            // W→W: the previous writer precedes us.
            if let Some(w) = state.last_writer {
                if w != j {
                    edges.push((w, j));
                }
            }
            state.last_writer = Some(j);
            state.readers_since_write.clear();
        }
        // Register reads after handling writes so a transaction that both
        // reads and writes a key does not self-depend.
        for key in tx.rw_set().reads() {
            let state = keys.entry(*key).or_default();
            if state.last_writer != Some(j) {
                state.readers_since_write.push(j);
            }
        }
    }
    DependencyGraph::from_edges(apps_of(txs), &edges, DependencyMode::Reduced)
}

/// Multi-version rules: only ω(Ti) ∩ ρ(Tj) forces `Ti ⤳ Tj`.
fn build_multi_version(txs: &[Transaction]) -> DependencyGraph {
    let mut edges = Vec::new();
    for j in 1..txs.len() {
        for i in 0..j {
            if txs[i].rw_set().wr_conflict(txs[j].rw_set()) {
                edges.push((SeqNo(i as u32), SeqNo(j as u32)));
            }
        }
    }
    DependencyGraph::from_edges(apps_of(txs), &edges, DependencyMode::MultiVersion)
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
        for mode in [
            DependencyMode::Full,
            DependencyMode::Reduced,
            DependencyMode::MultiVersion,
        ] {
            assert_eq!(build(&block, mode).edge_count(), 0, "{mode:?}");
        }
    }

    #[test]
    fn multi_version_drops_ww_and_rw_keeps_wr() {
        // T0 writes a; T1 writes a (WW); T2 reads a (WR from both writers);
        // T3 reads b then T4 writes b (RW).
        let block = block_of(vec![
            RwSet::write_only([k(1)]),
            RwSet::write_only([k(1)]),
            RwSet::read_only([k(1)]),
            RwSet::read_only([k(2)]),
            RwSet::write_only([k(2)]),
        ]);
        let mv = build(&block, DependencyMode::MultiVersion);
        assert!(!mv.has_edge(SeqNo(0), SeqNo(1)), "WW dropped");
        assert!(!mv.has_edge(SeqNo(3), SeqNo(4)), "RW dropped");
        assert!(mv.has_edge(SeqNo(0), SeqNo(2)), "WR kept");
        assert!(mv.has_edge(SeqNo(1), SeqNo(2)), "WR kept");
        assert_eq!(mv.edge_count(), 2);
    }

    #[test]
    fn multi_version_is_subgraph_of_full() {
        let block = block_of(vec![
            RwSet::new([k(1)], [k(2)]),
            RwSet::new([k(2)], [k(1)]),
            RwSet::new([k(1), k(2)], [k(3)]),
            RwSet::write_only([k(3)]),
        ]);
        let full = build(&block, DependencyMode::Full);
        let mv = build(&block, DependencyMode::MultiVersion);
        for (i, j) in mv.edges() {
            assert!(full.has_edge(i, j), "mv edge ({i:?},{j:?}) missing in full");
        }
    }

    #[test]
    fn rmw_transaction_does_not_self_depend() {
        // A transaction reading and writing the same key (the paper's
        // transfer reads and writes account 1001).
        let block = block_of(vec![RwSet::new([k(1)], [k(1)])]);
        for mode in [
            DependencyMode::Full,
            DependencyMode::Reduced,
            DependencyMode::MultiVersion,
        ] {
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
    fn multi_version_shortens_blind_write_chains_but_not_rmw_chains() {
        let critical_path = |block: &Block, mode| {
            crate::ExecutionLayers::compute(&build(block, mode)).critical_path()
        };
        // Read-modify-write of one hot key (every workload this repo
        // serves): each transaction reads its predecessor's write, so the
        // W→R edges alone already form the chain.
        let rmw = block_of(vec![RwSet::new([k(1)], [k(1)]); 6]);
        assert_eq!(critical_path(&rmw, DependencyMode::Full), 6);
        assert_eq!(critical_path(&rmw, DependencyMode::MultiVersion), 6);
        // Alternating blind writes and pure reads of one key: with
        // versions kept, a reader waits only for the writers before it.
        let blind = block_of(
            (0..6)
                .map(|i| match i % 2 {
                    0 => RwSet::write_only([k(1)]),
                    _ => RwSet::read_only([k(1)]),
                })
                .collect(),
        );
        assert_eq!(critical_path(&blind, DependencyMode::Reduced), 6);
        assert_eq!(critical_path(&blind, DependencyMode::MultiVersion), 2);
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
