//! Conflict statistics of a block's dependency graph.
//!
//! §IV-C distinguishes three situations for a block (Fig 4): all
//! transactions in one application (4a); several applications whose
//! components are disjoint (4b); and components mixing applications,
//! which force agents to exchange commit messages mid-block (4c). A
//! component that mixes applications contains an edge between two of
//! them, so [`ConflictStats::cross_app_edge_fraction`] tells 4(c) from
//! 4(b).

use parblock_types::Block;

use crate::graph::DependencyGraph;

/// Summary statistics of a block's conflict structure, used to validate
/// workload generators and report benchmark context.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConflictStats {
    /// Number of transactions.
    pub txns: usize,
    /// Number of ordering-dependency edges.
    pub edges: usize,
    /// Fraction of transactions with at least one incident edge — the
    /// "degree of contention" dial of §V-B.
    pub conflicting_fraction: f64,
    /// Critical-path length (see [`crate::ExecutionLayers`]).
    pub critical_path: usize,
    /// Fraction of edges whose endpoints belong to different applications.
    pub cross_app_edge_fraction: f64,
}

impl ConflictStats {
    /// Computes statistics for `graph`, the dependency graph of `block`
    /// (which says each position's application).
    #[must_use]
    pub fn compute(graph: &DependencyGraph, block: &Block) -> Self {
        let n = graph.len();
        let txs = block.transactions();
        let mut touched = vec![false; n];
        let mut cross = 0usize;
        let mut edges = 0usize;
        for (i, j) in graph.edges() {
            touched[i.0 as usize] = true;
            touched[j.0 as usize] = true;
            if txs[i.0 as usize].app() != txs[j.0 as usize].app() {
                cross += 1;
            }
            edges += 1;
        }
        let conflicting = touched.iter().filter(|&&t| t).count();
        let layers = crate::schedule::ExecutionLayers::compute(graph);
        ConflictStats {
            txns: n,
            edges,
            conflicting_fraction: if n == 0 { 0.0 } else { conflicting as f64 / n as f64 },
            critical_path: layers.critical_path(),
            cross_app_edge_fraction: if edges == 0 {
                0.0
            } else {
                cross as f64 / edges as f64
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use parblock_types::{AppId, BlockNumber, ClientId, Hash32, RwSet, SeqNo, Transaction};

    use super::*;

    /// A block whose positions belong to `apps`, with `edges` as its
    /// graph.
    fn graph(apps: Vec<AppId>, edges: &[(u32, u32)]) -> (DependencyGraph, Block) {
        let edges: Vec<_> = edges
            .iter()
            .map(|&(i, j)| (SeqNo(i), SeqNo(j)))
            .collect();
        let txs = apps
            .into_iter()
            .map(|app| Transaction::new(app, ClientId(1), 0, RwSet::default(), vec![]))
            .collect::<Vec<_>>();
        let graph = DependencyGraph::from_edges(txs.len(), &edges);
        (graph, Block::new(BlockNumber(1), Hash32::ZERO, txs))
    }

    /// Fig 4's classification over the statistics: one application is
    /// 4(a); otherwise a cross-application edge makes 4(c), none 4(b).
    fn fig4((g, block): &(DependencyGraph, Block)) -> &'static str {
        let cross = ConflictStats::compute(g, block).cross_app_edge_fraction;
        match (block.apps().len(), cross > 0.0) {
            (0 | 1, _) => "4(a)",
            (_, true) => "4(c)",
            (_, false) => "4(b)",
        }
    }

    #[test]
    fn fig4a_single_app() {
        let g = graph(vec![AppId(1); 7], &[(0, 2), (1, 3), (4, 5)]);
        assert_eq!(fig4(&g), "4(a)");
    }

    #[test]
    fn fig4b_app_disjoint() {
        // Apps: A1 at 0,1; A2 at 2,3 — edges only within each app.
        let g = graph(
            vec![AppId(1), AppId(1), AppId(2), AppId(2)],
            &[(0, 1), (2, 3)],
        );
        assert_eq!(fig4(&g), "4(b)");
    }

    #[test]
    fn fig4c_cross_app() {
        let g = graph(
            vec![AppId(1), AppId(2), AppId(1)],
            &[(0, 1), (1, 2)],
        );
        assert_eq!(fig4(&g), "4(c)");
    }

    #[test]
    fn multiple_apps_no_edges_is_app_disjoint() {
        let g = graph(vec![AppId(1), AppId(2)], &[]);
        assert_eq!(fig4(&g), "4(b)");
    }

    #[test]
    fn stats_on_chain() {
        let (g, block) = graph(vec![AppId(1), AppId(2), AppId(1)], &[(0, 1), (1, 2)]);
        let s = ConflictStats::compute(&g, &block);
        assert_eq!(s.txns, 3);
        assert_eq!(s.edges, 2);
        assert!((s.conflicting_fraction - 1.0).abs() < 1e-9);
        assert_eq!(s.critical_path, 3);
        assert!((s.cross_app_edge_fraction - 1.0).abs() < 1e-9);
    }

    #[test]
    fn stats_on_empty_graph() {
        let (g, block) = graph(vec![], &[]);
        let s = ConflictStats::compute(&g, &block);
        assert_eq!(s.txns, 0);
        assert_eq!(s.conflicting_fraction, 0.0);
        assert_eq!(s.cross_app_edge_fraction, 0.0);
    }
}
