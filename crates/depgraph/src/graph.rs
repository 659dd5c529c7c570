//! The dependency-graph data structure.

use std::fmt::Write as _;
use std::sync::Arc;

use parblock_types::wire::{Reader, Wire};
use parblock_types::{Block, SeqNo};

use crate::builder::{self, DependencyMode};
use crate::streaming::StreamingBuilder;

/// A per-block dependency graph `G = (T, E)` (§III-A).
///
/// Vertices are in-block positions ([`SeqNo`]); every edge `(i, j)` has
/// `i < j`, so the graph is a DAG by construction. It is one immutable
/// table in compressed sparse rows, shared by every clone (DESIGN.md §6
/// item 9). A position's application is the block's to say.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DependencyGraph {
    len: usize,
    /// `table[..=len]`: where each position's successors start among the
    /// targets, the last entry being the edge count; `table[len + 1..]`:
    /// the targets.
    table: Arc<[u32]>,
}

impl DependencyGraph {
    /// Builds the dependency graph of a whole `block` the way orderers
    /// do: through a [`StreamingBuilder`], under the reduced
    /// (last-writer/reader) rules.
    #[must_use]
    pub fn build(block: &Block) -> Self {
        let mut builder = StreamingBuilder::new(DependencyMode::Reduced);
        for tx in block.transactions() {
            builder.observe(tx);
        }
        builder.finish()
    }

    /// The O(n²) pairwise reference: an edge for *every* conflicting pair,
    /// the literal Definition of §III-A. No node builds it; tests and
    /// examples check [`DependencyGraph::build`] against it (same
    /// transitive closure, a subset of its edges).
    #[must_use]
    pub fn pairwise(block: &Block) -> Self {
        builder::pairwise(block.transactions())
    }

    /// Constructs a graph over `len` positions from raw edges, in any
    /// order and possibly repeated. Exposed for tests that need
    /// hand-crafted graphs.
    ///
    /// # Panics
    ///
    /// Panics if an edge does not satisfy `i < j` or indexes out of range.
    #[must_use]
    pub fn from_edges(len: usize, edges: &[(SeqNo, SeqNo)]) -> Self {
        for &(i, j) in edges {
            assert!(i < j, "dependency edges must point forward: {i:?} -> {j:?}");
            assert!((j.0 as usize) < len, "edge endpoint {j:?} out of range");
        }
        let mut sorted = edges.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        Self::from_sorted(len, &sorted)
    }

    /// Packs forward, in-range edges given in strictly ascending order:
    /// one allocation, whatever the edge count.
    pub(crate) fn from_sorted(len: usize, edges: &[(SeqNo, SeqNo)]) -> Self {
        debug_assert!(edges.windows(2).all(|pair| pair[0] < pair[1]));
        assert!(u32::try_from(edges.len()).is_ok(), "edge count fits u32");
        let offsets =
            (0..=len).map(|i| edges.partition_point(|&(from, _)| from.0 < i as u32) as u32);
        let targets = edges.iter().map(|&(_, to)| to.0);
        DependencyGraph {
            len,
            table: offsets.chain(targets).collect(),
        }
    }

    /// Number of transactions (vertices).
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` for a graph over an empty block.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of ordering-dependency edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.table.len() - self.len - 1
    }

    /// Every edge's target, grouped by source: one entry per edge, so a
    /// position's in-degree is how often it appears here.
    pub(crate) fn targets(&self) -> &[u32] {
        &self.table[self.len + 1..]
    }

    fn row(&self, x: SeqNo) -> &[u32] {
        let i = x.0 as usize;
        let (start, end) = (self.table[i] as usize, self.table[i + 1] as usize);
        &self.targets()[start..end]
    }

    /// Suc(x): the successors of `x` (§IV-C), ascending.
    pub fn successors(&self, x: SeqNo) -> impl ExactSizeIterator<Item = SeqNo> + '_ {
        self.row(x).iter().map(|&j| SeqNo(j))
    }

    /// Whether the edge `(i, j)` is present.
    #[must_use]
    pub fn has_edge(&self, i: SeqNo, j: SeqNo) -> bool {
        (i.0 as usize) < self.len && self.row(i).binary_search(&j.0).is_ok()
    }

    /// Iterates all edges `(i, j)` in lexicographic order.
    pub fn edges(&self) -> impl Iterator<Item = (SeqNo, SeqNo)> + '_ {
        (0..self.len).flat_map(move |i| {
            let from = SeqNo(i as u32);
            self.successors(from).map(move |to| (from, to))
        })
    }

    /// Decodes a graph from a [`Reader`] positioned at a [`Wire::encode`]
    /// boundary; `None` on anything the encoder could not have written
    /// (truncated, offsets not from 0 or falling back, a row not
    /// ascending, forward and in range), so what decodes re-encodes to
    /// the same bytes.
    #[must_use]
    pub fn decode_wire(reader: &mut Reader<'_>) -> Option<Self> {
        let len = usize::try_from(reader.u64()?).ok()?;
        if len >= reader.remaining() / 4 {
            return None; // `len + 1` offsets of 4 bytes follow
        }
        let mut table = Vec::with_capacity(len + 1);
        for _ in 0..=len {
            let offset = reader.u32()?;
            if offset < table.last().copied().unwrap_or(0) {
                return None;
            }
            table.push(offset);
        }
        let edges = table[len] as usize;
        if table[0] != 0 || edges > reader.remaining() / 4 {
            return None;
        }
        table.reserve_exact(edges);
        for i in 0..len {
            let mut floor = i as u32;
            for _ in table[i]..table[i + 1] {
                let j = reader.u32()?;
                if j <= floor || j as usize >= len {
                    return None;
                }
                table.push(j);
                floor = j;
            }
        }
        Some(DependencyGraph {
            len,
            table: table.into(),
        })
    }

    /// Renders the graph, whose block is `block`, in Graphviz DOT format
    /// (vertices labelled with position and application), for debugging
    /// and documentation.
    #[must_use]
    pub fn to_dot(&self, block: &Block) -> String {
        let mut out = String::from("digraph deps {\n  rankdir=LR;\n");
        for (i, tx) in block.transactions().iter().enumerate() {
            let _ = writeln!(out, "  t{i} [label=\"T@{i}\\n{}\"];", tx.app());
        }
        for (i, j) in self.edges() {
            let _ = writeln!(out, "  t{} -> t{};", i.0, j.0);
        }
        out.push_str("}\n");
        out
    }
}

/// The canonical encoding that block stores persist and NEWBLOCK's digest
/// covers: the position count as a `u64`, then the table's `u32`s.
impl Wire for DependencyGraph {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len as u64).encode(out);
        for value in self.table.iter() {
            value.encode(out);
        }
    }

    fn wire_len_hint(&self) -> usize {
        8 + 4 * self.table.len()
    }
}

#[cfg(test)]
mod tests {
    use parblock_types::{AppId, BlockNumber, ClientId, Hash32, RwSet, Transaction};

    use super::*;

    fn diamond() -> DependencyGraph {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3.
        DependencyGraph::from_edges(
            4,
            &[
                (SeqNo(0), SeqNo(1)),
                (SeqNo(0), SeqNo(2)),
                (SeqNo(1), SeqNo(3)),
                (SeqNo(2), SeqNo(3)),
            ],
        )
    }

    #[test]
    fn adjacency_accessors() {
        let g = diamond();
        assert_eq!(g.len(), 4);
        assert_eq!(g.edge_count(), 4);
        let succs: Vec<SeqNo> = g.successors(SeqNo(0)).collect();
        assert_eq!(succs, [SeqNo(1), SeqNo(2)]);
        assert_eq!(g.successors(SeqNo(3)).len(), 0);
        assert!(g.has_edge(SeqNo(0), SeqNo(2)));
        assert!(!g.has_edge(SeqNo(1), SeqNo(2)));
        assert!(!g.has_edge(SeqNo(9), SeqNo(10)), "out of range is no edge");
    }

    #[test]
    fn duplicate_edges_are_deduplicated() {
        let g = DependencyGraph::from_edges(2, &[(SeqNo(0), SeqNo(1)), (SeqNo(0), SeqNo(1))]);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    #[should_panic(expected = "must point forward")]
    fn backward_edge_panics() {
        let _ = DependencyGraph::from_edges(2, &[(SeqNo(1), SeqNo(0))]);
    }

    #[test]
    fn edges_iterator_lists_all() {
        let g = diamond();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 4);
        assert_eq!(edges[0], (SeqNo(0), SeqNo(1)));
    }

    #[test]
    fn dot_export_contains_vertices_and_edges() {
        let txs = [0, 0, 1, 1]
            .into_iter()
            .map(|app| Transaction::new(AppId(app), ClientId(1), 0, RwSet::default(), vec![]))
            .collect();
        let block = Block::new(BlockNumber(1), Hash32::ZERO, txs);
        let dot = diamond().to_dot(&block);
        assert!(dot.contains("t0 ->"));
        assert!(dot.contains("digraph"));
        assert!(dot.contains("A1"));
    }

    #[test]
    fn wire_round_trip_preserves_adjacency() {
        for g in [
            diamond(),
            DependencyGraph::from_edges(0, &[]),
            DependencyGraph::from_edges(1, &[]),
        ] {
            let bytes = g.wire_bytes();
            assert_eq!(bytes.len(), g.wire_len_hint());
            let mut reader = Reader::new(&bytes);
            let decoded = DependencyGraph::decode_wire(&mut reader).expect("decodes");
            assert!(reader.is_exhausted());
            assert_eq!(decoded, g);
        }
    }

    #[test]
    fn wire_decode_rejects_malformed_input() {
        let bytes = diamond().wire_bytes();
        for cut in 0..bytes.len() {
            let mut reader = Reader::new(&bytes[..cut]);
            assert!(
                DependencyGraph::decode_wire(&mut reader).is_none(),
                "cut {cut}"
            );
        }
        // The diamond's table is offsets [0, 2, 3, 4, 4], then targets
        // [1, 2, 3, 3]; word `k` of it sits at byte 8 + 4k.
        let with_word = |k: usize, value: u32| {
            let mut bad = bytes.clone();
            bad[8 + 4 * k..12 + 4 * k].copy_from_slice(&value.to_le_bytes());
            bad
        };
        for (k, value, what) in [
            (0, 1, "offsets start past 0"),
            (2, 1, "offsets fall back"),
            (5, 0, "a backward edge"),
            (5, 4, "an edge out of range"),
            (6, 1, "a row not ascending"),
            (7, 1, "a self-loop"),
        ] {
            let bad = with_word(k, value);
            let mut reader = Reader::new(&bad);
            assert!(
                DependencyGraph::decode_wire(&mut reader).is_none(),
                "{what}"
            );
        }
    }

    #[test]
    fn empty_graph() {
        let g = DependencyGraph::from_edges(0, &[]);
        assert!(g.is_empty());
        assert_eq!(g.edge_count(), 0);
    }
}
