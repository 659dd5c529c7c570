//! Graph analytics: connected components, cross-application structure and
//! conflict statistics.
//!
//! §IV-C distinguishes three situations for a block (Fig 4): all
//! transactions in one application; several applications whose components
//! are disjoint; and components mixing applications, which force agents to
//! exchange commit messages mid-block. [`GraphComponents`] computes that
//! classification.

use std::collections::BTreeSet;

use parblock_types::{AppId, SeqNo};

use crate::graph::DependencyGraph;

/// Classification of a block's dependency structure (Fig 4 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ComponentKind {
    /// Every transaction belongs to one application (Fig 4a).
    SingleApp,
    /// Multiple applications, but no component mixes two (Fig 4b): agents
    /// can execute independently and multicast once at the end.
    AppDisjoint,
    /// At least one component mixes applications (Fig 4c): agents must
    /// exchange commit messages during execution (Algorithm 2).
    CrossApp,
}

/// The weakly connected components of a dependency graph.
#[derive(Debug, Clone)]
pub struct GraphComponents {
    /// Component index per position.
    component_of: Vec<usize>,
    /// Members of each component, ascending.
    members: Vec<Vec<SeqNo>>,
}

impl GraphComponents {
    /// Computes weakly connected components with a union-find pass.
    #[must_use]
    pub fn compute(graph: &DependencyGraph) -> Self {
        let n = graph.len();
        let mut parent: Vec<usize> = (0..n).collect();

        fn find(parent: &mut [usize], x: usize) -> usize {
            let mut root = x;
            while parent[root] != root {
                root = parent[root];
            }
            // Path compression.
            let mut cur = x;
            while parent[cur] != root {
                let next = parent[cur];
                parent[cur] = root;
                cur = next;
            }
            root
        }

        for (i, j) in graph.edges() {
            let (a, b) = (find(&mut parent, i.0 as usize), find(&mut parent, j.0 as usize));
            if a != b {
                parent[a] = b;
            }
        }

        let mut component_of = vec![usize::MAX; n];
        let mut members: Vec<Vec<SeqNo>> = Vec::new();
        for i in 0..n {
            let root = find(&mut parent, i);
            if component_of[root] == usize::MAX {
                component_of[root] = members.len();
                members.push(Vec::new());
            }
            component_of[i] = component_of[root];
            members[component_of[root]].push(SeqNo(i as u32));
        }
        GraphComponents {
            component_of,
            members,
        }
    }

    /// Number of components.
    #[must_use]
    pub fn count(&self) -> usize {
        self.members.len()
    }

    /// The component index of position `x`.
    #[must_use]
    pub fn component_of(&self, x: SeqNo) -> usize {
        self.component_of[x.0 as usize]
    }

    /// Members of component `c`, ascending by position.
    #[must_use]
    pub fn members(&self, c: usize) -> &[SeqNo] {
        &self.members[c]
    }

    /// Classifies the block per Fig 4 (see [`ComponentKind`]).
    #[must_use]
    pub fn classify(&self, graph: &DependencyGraph) -> ComponentKind {
        let apps: BTreeSet<AppId> = graph.apps().iter().copied().collect();
        if apps.len() <= 1 {
            return ComponentKind::SingleApp;
        }
        let mixed = self.members.iter().any(|members| {
            let mut apps = members.iter().map(|&m| graph.app_of(m));
            let first = apps.next();
            apps.any(|a| Some(a) != first)
        });
        if mixed {
            ComponentKind::CrossApp
        } else {
            ComponentKind::AppDisjoint
        }
    }
}

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
    /// Computes statistics for `graph`.
    #[must_use]
    pub fn compute(graph: &DependencyGraph) -> Self {
        let n = graph.len();
        let mut touched = vec![false; n];
        let mut cross = 0usize;
        let mut edges = 0usize;
        for (i, j) in graph.edges() {
            touched[i.0 as usize] = true;
            touched[j.0 as usize] = true;
            if graph.app_of(i) != graph.app_of(j) {
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
    use crate::builder::DependencyMode;

    use super::*;

    fn graph(apps: Vec<AppId>, edges: &[(u32, u32)]) -> DependencyGraph {
        let edges: Vec<_> = edges
            .iter()
            .map(|&(i, j)| (SeqNo(i), SeqNo(j)))
            .collect();
        DependencyGraph::from_edges(apps, &edges, DependencyMode::Full)
    }

    #[test]
    fn fig4a_single_app() {
        let g = graph(vec![AppId(1); 7], &[(0, 2), (1, 3), (4, 5)]);
        let c = GraphComponents::compute(&g);
        assert_eq!(c.classify(&g), ComponentKind::SingleApp);
    }

    #[test]
    fn fig4b_app_disjoint() {
        // Apps: A1 at 0,1; A2 at 2,3 — edges only within each app.
        let g = graph(
            vec![AppId(1), AppId(1), AppId(2), AppId(2)],
            &[(0, 1), (2, 3)],
        );
        let c = GraphComponents::compute(&g);
        assert_eq!(c.count(), 2);
        assert_eq!(c.classify(&g), ComponentKind::AppDisjoint);
    }

    #[test]
    fn fig4c_cross_app() {
        let g = graph(
            vec![AppId(1), AppId(2), AppId(1)],
            &[(0, 1), (1, 2)],
        );
        let c = GraphComponents::compute(&g);
        assert_eq!(c.count(), 1);
        assert_eq!(c.classify(&g), ComponentKind::CrossApp);
    }

    #[test]
    fn isolated_vertices_are_singleton_components() {
        let g = graph(vec![AppId(1); 3], &[]);
        let c = GraphComponents::compute(&g);
        assert_eq!(c.count(), 3);
        for i in 0..3 {
            assert_eq!(c.members(c.component_of(SeqNo(i))), &[SeqNo(i)]);
        }
    }

    #[test]
    fn multiple_apps_no_edges_is_app_disjoint() {
        let g = graph(vec![AppId(1), AppId(2)], &[]);
        let c = GraphComponents::compute(&g);
        assert_eq!(c.classify(&g), ComponentKind::AppDisjoint);
    }

    #[test]
    fn stats_on_chain() {
        let g = graph(vec![AppId(1), AppId(2), AppId(1)], &[(0, 1), (1, 2)]);
        let s = ConflictStats::compute(&g);
        assert_eq!(s.txns, 3);
        assert_eq!(s.edges, 2);
        assert!((s.conflicting_fraction - 1.0).abs() < 1e-9);
        assert_eq!(s.critical_path, 3);
        assert!((s.cross_app_edge_fraction - 1.0).abs() < 1e-9);
    }

    #[test]
    fn stats_on_empty_graph() {
        let g = graph(vec![], &[]);
        let s = ConflictStats::compute(&g);
        assert_eq!(s.txns, 0);
        assert_eq!(s.conflicting_fraction, 0.0);
        assert_eq!(s.cross_app_edge_fraction, 0.0);
    }
}
