//! The dependency-graph data structure.

use std::fmt::Write as _;

use parblock_types::{AppId, Block, SeqNo};

use crate::builder::{self, DependencyMode};

/// A per-block dependency graph `G = (T, E)` (§III-A).
///
/// Vertices are in-block positions ([`SeqNo`]); every edge `(i, j)` has
/// `i < j`, so the graph is a DAG by construction. The graph also records
/// each transaction's application, so cross-application dependencies
/// (§IV-C, Fig 4) can be told apart from in-application ones.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DependencyGraph {
    /// `preds[j]` = Pre(Tj): positions with an edge into `j`, ascending.
    preds: Vec<Vec<SeqNo>>,
    /// `succs[i]` = Suc(Ti): positions with an edge out of `i`, ascending.
    succs: Vec<Vec<SeqNo>>,
    /// Application of each transaction, indexed by position.
    apps: Vec<AppId>,
    edge_count: usize,
    mode: DependencyMode,
}

impl DependencyGraph {
    /// Builds the dependency graph of `block` under the given mode.
    ///
    /// This is the orderer-side "dependency graph generator" module. Its
    /// cost grows with the block size — the effect behind the throughput
    /// rolloff in Fig 5.
    #[must_use]
    pub fn build(block: &Block, mode: DependencyMode) -> Self {
        builder::build(block, mode)
    }

    /// Builds the dependency graph of a transaction sequence that has not
    /// been wrapped in a [`Block`] yet (positions follow slice order).
    /// Used by the block cutter's batch-construction path (Fig 5), where
    /// the graph is needed before the block header exists.
    #[must_use]
    pub fn build_txs(txs: &[parblock_types::Transaction], mode: DependencyMode) -> Self {
        builder::build_txs(txs, mode)
    }

    /// Constructs a graph from raw adjacency data. Used by the builder;
    /// exposed for tests that need hand-crafted graphs.
    ///
    /// # Panics
    ///
    /// Panics if an edge does not satisfy `i < j` or indexes out of range.
    #[must_use]
    pub fn from_edges(apps: Vec<AppId>, edges: &[(SeqNo, SeqNo)], mode: DependencyMode) -> Self {
        let n = apps.len();
        let mut preds = vec![Vec::new(); n];
        let mut succs = vec![Vec::new(); n];
        for &(i, j) in edges {
            assert!(i < j, "dependency edges must point forward: {i:?} -> {j:?}");
            assert!((j.0 as usize) < n, "edge endpoint {j:?} out of range");
            succs[i.0 as usize].push(j);
            preds[j.0 as usize].push(i);
        }
        for list in preds.iter_mut().chain(succs.iter_mut()) {
            list.sort_unstable();
            list.dedup();
        }
        let edge_count = succs.iter().map(Vec::len).sum();
        DependencyGraph {
            preds,
            succs,
            apps,
            edge_count,
            mode,
        }
    }

    /// Number of transactions (vertices).
    #[must_use]
    pub fn len(&self) -> usize {
        self.apps.len()
    }

    /// Returns `true` for a graph over an empty block.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.apps.is_empty()
    }

    /// Number of ordering-dependency edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// The mode this graph was built under.
    #[must_use]
    pub fn mode(&self) -> DependencyMode {
        self.mode
    }

    /// Pre(x): the predecessors of `x` (§IV-C).
    #[must_use]
    pub fn predecessors(&self, x: SeqNo) -> &[SeqNo] {
        &self.preds[x.0 as usize]
    }

    /// Suc(x): the successors of `x` (§IV-C).
    #[must_use]
    pub fn successors(&self, x: SeqNo) -> &[SeqNo] {
        &self.succs[x.0 as usize]
    }

    /// Whether the edge `(i, j)` is present.
    #[must_use]
    pub fn has_edge(&self, i: SeqNo, j: SeqNo) -> bool {
        self.succs
            .get(i.0 as usize)
            .is_some_and(|s| s.binary_search(&j).is_ok())
    }

    /// The application of the transaction at position `x`.
    #[must_use]
    pub fn app_of(&self, x: SeqNo) -> AppId {
        self.apps[x.0 as usize]
    }

    /// All applications, indexed by position.
    #[must_use]
    pub fn apps(&self) -> &[AppId] {
        &self.apps
    }

    /// Iterates all edges `(i, j)` in lexicographic order.
    pub fn edges(&self) -> impl Iterator<Item = (SeqNo, SeqNo)> + '_ {
        self.succs.iter().enumerate().flat_map(|(i, succs)| {
            succs.iter().map(move |&j| (SeqNo(i as u32), j))
        })
    }

    /// Appends a canonical byte encoding of the graph (apps, edges, mode)
    /// to `out`, so durable block stores can persist `G(B)` next to its
    /// block. Round-trips through [`DependencyGraph::decode_wire`].
    pub fn encode_wire(&self, out: &mut Vec<u8>) {
        use parblock_types::wire::Wire;
        let mode_tag: u8 = match self.mode {
            DependencyMode::Full => 0,
            DependencyMode::Reduced => 1,
            DependencyMode::MultiVersion => 2,
        };
        mode_tag.encode(out);
        (self.apps.len() as u64).encode(out);
        for app in &self.apps {
            u64::from(app.0).encode(out);
        }
        (self.edge_count as u64).encode(out);
        for (i, j) in self.edges() {
            i.0.encode(out);
            j.0.encode(out);
        }
    }

    /// Convenience: [`DependencyGraph::encode_wire`] into a fresh buffer.
    #[must_use]
    pub fn wire_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_wire(&mut out);
        out
    }

    /// Decodes a graph from a [`Reader`](parblock_types::wire::Reader)
    /// positioned at an [`DependencyGraph::encode_wire`] boundary.
    /// Returns `None` on malformed input (unknown mode, out-of-range or
    /// backward edges, truncation).
    #[must_use]
    pub fn decode_wire(reader: &mut parblock_types::wire::Reader<'_>) -> Option<Self> {
        let mode = match reader.u8()? {
            0 => DependencyMode::Full,
            1 => DependencyMode::Reduced,
            2 => DependencyMode::MultiVersion,
            _ => return None,
        };
        let n = usize::try_from(reader.u64()?).ok()?;
        if n > reader.remaining() / 8 {
            return None;
        }
        let mut apps = Vec::with_capacity(n);
        for _ in 0..n {
            apps.push(AppId(u16::try_from(reader.u64()?).ok()?));
        }
        let edge_count = usize::try_from(reader.u64()?).ok()?;
        if edge_count > reader.remaining() / 8 {
            return None;
        }
        let mut edges = Vec::with_capacity(edge_count);
        for _ in 0..edge_count {
            let i = SeqNo(reader.u32()?);
            let j = SeqNo(reader.u32()?);
            if i >= j || j.0 as usize >= n {
                return None; // from_edges would panic; reject instead
            }
            edges.push((i, j));
        }
        Some(DependencyGraph::from_edges(apps, &edges, mode))
    }

    /// Renders the graph in Graphviz DOT format (vertices labelled with
    /// position and application), for debugging and documentation.
    #[must_use]
    pub fn to_dot(&self) -> String {
        let mut out = String::from("digraph deps {\n  rankdir=LR;\n");
        for (i, app) in self.apps.iter().enumerate() {
            let _ = writeln!(out, "  t{i} [label=\"T@{i}\\n{app}\"];");
        }
        for (i, j) in self.edges() {
            let _ = writeln!(out, "  t{} -> t{};", i.0, j.0);
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> DependencyGraph {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3; apps: 0,0,1,1.
        DependencyGraph::from_edges(
            vec![AppId(0), AppId(0), AppId(1), AppId(1)],
            &[
                (SeqNo(0), SeqNo(1)),
                (SeqNo(0), SeqNo(2)),
                (SeqNo(1), SeqNo(3)),
                (SeqNo(2), SeqNo(3)),
            ],
            DependencyMode::Full,
        )
    }

    #[test]
    fn adjacency_accessors() {
        let g = diamond();
        assert_eq!(g.len(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.predecessors(SeqNo(3)), &[SeqNo(1), SeqNo(2)]);
        assert_eq!(g.successors(SeqNo(0)), &[SeqNo(1), SeqNo(2)]);
        assert!(g.has_edge(SeqNo(0), SeqNo(2)));
        assert!(!g.has_edge(SeqNo(1), SeqNo(2)));
    }

    #[test]
    fn duplicate_edges_are_deduplicated() {
        let g = DependencyGraph::from_edges(
            vec![AppId(0), AppId(0)],
            &[(SeqNo(0), SeqNo(1)), (SeqNo(0), SeqNo(1))],
            DependencyMode::Full,
        );
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    #[should_panic(expected = "must point forward")]
    fn backward_edge_panics() {
        let _ = DependencyGraph::from_edges(
            vec![AppId(0), AppId(0)],
            &[(SeqNo(1), SeqNo(0))],
            DependencyMode::Full,
        );
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
        let dot = diamond().to_dot();
        assert!(dot.contains("t0 ->"));
        assert!(dot.contains("digraph"));
        assert!(dot.contains("A1"));
    }

    #[test]
    fn wire_round_trip_preserves_adjacency_and_mode() {
        for g in [
            diamond(),
            DependencyGraph::from_edges(vec![], &[], DependencyMode::Reduced),
            DependencyGraph::from_edges(vec![AppId(3)], &[], DependencyMode::MultiVersion),
        ] {
            let bytes = g.wire_bytes();
            let mut reader = parblock_types::wire::Reader::new(&bytes);
            let decoded = DependencyGraph::decode_wire(&mut reader).expect("decodes");
            assert!(reader.is_exhausted());
            assert_eq!(decoded, g);
        }
    }

    #[test]
    fn wire_decode_rejects_malformed_input() {
        let bytes = diamond().wire_bytes();
        for cut in 0..bytes.len() {
            let mut reader = parblock_types::wire::Reader::new(&bytes[..cut]);
            assert!(
                DependencyGraph::decode_wire(&mut reader).is_none(),
                "cut {cut}"
            );
        }
        // Unknown mode tag.
        let mut bad = bytes.clone();
        bad[0] = 9;
        let mut reader = parblock_types::wire::Reader::new(&bad);
        assert!(DependencyGraph::decode_wire(&mut reader).is_none());
    }

    #[test]
    fn empty_graph() {
        let g = DependencyGraph::from_edges(vec![], &[], DependencyMode::Full);
        assert!(g.is_empty());
        assert_eq!(g.edge_count(), 0);
    }
}
