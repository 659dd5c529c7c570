//! Scheduling views over a dependency graph.
//!
//! [`ReadyTracker`] is the executor-side data structure behind Algorithm 1:
//! it tracks, per transaction, how many predecessors are still outstanding
//! and surfaces transactions the moment they become executable.
//! [`ExecutionLayers`] is an analytic view (level sets / critical path)
//! used by the benchmarks to explain *why* a block parallelizes well or
//! badly.

use parblock_trace::{Stage, TraceRecorder};
use parblock_types::{SeqNo, TxId};

use crate::graph::DependencyGraph;

/// Incremental ready-set tracker (Algorithm 1's condition
/// "all Pre(x) are in Ce ∪ Xe").
///
/// The tracker is created over the whole block; transactions the local
/// executor is *not* an agent for still flow through it, because their
/// commits (Algorithm 3) release the successors this executor must run.
///
/// Each position is reported ready exactly once: a root by
/// [`ReadyTracker::take_ready`], every other position by the
/// [`ReadyTracker::complete`] or [`ReadyTracker::release_external_batch`]
/// call that releases its last outstanding predecessor.
///
/// # Examples
///
/// ```
/// use parblock_depgraph::{DependencyGraph, ReadyTracker};
/// use parblock_types::SeqNo;
///
/// // 0 -> 1 -> 2 chain.
/// let g = DependencyGraph::from_edges(3, &[(SeqNo(0), SeqNo(1)), (SeqNo(1), SeqNo(2))]);
/// let mut ready = ReadyTracker::new(&g);
/// assert_eq!(ready.take_ready(), vec![SeqNo(0)]);
/// assert_eq!(ready.complete(SeqNo(0)), vec![SeqNo(1)]);
/// assert_eq!(ready.complete(SeqNo(1)), vec![SeqNo(2)]);
/// assert!(!ready.is_done());
/// ready.complete(SeqNo(2));
/// assert!(ready.is_done());
/// ```
#[derive(Debug, Clone)]
pub struct ReadyTracker {
    /// The block's graph: a clone shares its table, so the tracker holds
    /// no adjacency of its own.
    graph: DependencyGraph,
    /// Outstanding predecessor count per position; `u32::MAX` = completed.
    pending_preds: Vec<u32>,
    /// The roots readied at construction, until taken.
    roots: Vec<SeqNo>,
    completed: usize,
    /// Lifecycle sink (DESIGN.md §14): when attached, every readiness
    /// transition stamps `Stage::GraphReady` on the position's
    /// transaction. `None` (the default) costs nothing on the hot path.
    trace: Option<Box<(TraceRecorder, Vec<TxId>)>>,
}

impl ReadyTracker {
    /// Creates a tracker over `graph`; all roots are immediately ready.
    #[must_use]
    pub fn new(graph: &DependencyGraph) -> Self {
        Self::with_external(graph, &[])
    }

    /// Creates a tracker over `graph` whose position `i` additionally
    /// waits for `external[i]` out-of-graph predecessors (cross-block
    /// dependencies on still-pending writers of earlier blocks). A missing
    /// entry counts as zero. External predecessors are released through
    /// [`ReadyTracker::release_external_batch`], not
    /// [`ReadyTracker::complete`].
    #[must_use]
    pub fn with_external(graph: &DependencyGraph, external: &[u32]) -> Self {
        let mut pending_preds: Vec<u32> = (0..graph.len())
            .map(|i| external.get(i).copied().unwrap_or(0))
            .collect();
        for &j in graph.targets() {
            pending_preds[j as usize] += 1;
        }
        let roots = (0..graph.len() as u32)
            .filter(|&i| pending_preds[i as usize] == 0)
            .map(SeqNo)
            .collect();
        ReadyTracker {
            graph: graph.clone(),
            pending_preds,
            roots,
            completed: 0,
            trace: None,
        }
    }

    /// Attaches a lifecycle recorder: from now on every position that
    /// becomes ready is stamped [`Stage::GraphReady`] on `ids[position]`
    /// (the block's transaction ids, in sequence order). Roots not yet
    /// taken are stamped retroactively here, so attaching right after
    /// construction loses nothing.
    pub fn set_trace(&mut self, recorder: TraceRecorder, ids: Vec<TxId>) {
        if !recorder.enabled() {
            return;
        }
        self.trace = Some(Box::new((recorder, ids)));
        self.note_ready(&self.roots);
    }

    /// Stamps `Stage::GraphReady` on newly ready positions, if a
    /// recorder is attached.
    fn note_ready(&self, positions: &[SeqNo]) {
        if let Some(sink) = &self.trace {
            let (recorder, ids) = sink.as_ref();
            for x in positions {
                if let Some(&tx) = ids.get(x.0 as usize) {
                    recorder.record(tx, Stage::GraphReady);
                }
            }
        }
    }

    /// Releases one external predecessor of **each** position in
    /// `positions`, returning the positions that became ready, in input
    /// order. A position whose last outstanding predecessor this releases
    /// becomes ready; a position that already completed — committed from remote votes
    /// before its cross-block writer retired — is skipped.
    ///
    /// # Panics
    ///
    /// Panics if a position has no outstanding predecessors: each release
    /// must match a count registered via [`ReadyTracker::with_external`].
    ///
    /// Batching lets a cross-block writer that unblocks many waiters of
    /// one block hand the whole newly-ready set to the execution backend
    /// in a single dispatch instead of one per waiter (DESIGN.md §15).
    pub fn release_external_batch(&mut self, positions: &[SeqNo]) -> Vec<SeqNo> {
        let mut newly = Vec::new();
        for &x in positions {
            let pending = &mut self.pending_preds[x.0 as usize];
            if *pending == u32::MAX {
                continue; // already complete (e.g. committed from votes)
            }
            assert!(*pending > 0, "unregistered external release of {x:?}");
            *pending -= 1;
            if *pending == 0 {
                newly.push(x);
            }
        }
        self.note_ready(&newly);
        newly
    }

    /// Returns the roots: the positions ready at construction, with no
    /// predecessor in the graph and no external one. A second call
    /// returns nothing; positions readied later are returned by the call
    /// that readies them.
    pub fn take_ready(&mut self) -> Vec<SeqNo> {
        std::mem::take(&mut self.roots)
    }

    /// Marks `x` complete (executed locally or committed from remote
    /// results) and returns the successors that became ready.
    ///
    /// Completing a transaction twice is a no-op returning an empty list,
    /// which makes the tracker idempotent under duplicate commit messages.
    pub fn complete(&mut self, x: SeqNo) -> Vec<SeqNo> {
        let idx = x.0 as usize;
        if self.pending_preds[idx] == u32::MAX {
            return Vec::new(); // already complete
        }
        self.pending_preds[idx] = u32::MAX;
        self.completed += 1;
        let mut newly = Vec::new();
        for succ in self.graph.successors(x) {
            let s = succ.0 as usize;
            if self.pending_preds[s] == u32::MAX {
                continue;
            }
            self.pending_preds[s] -= 1;
            if self.pending_preds[s] == 0 {
                newly.push(succ);
            }
        }
        self.note_ready(&newly);
        newly
    }

    /// Whether `x` has completed.
    #[must_use]
    pub fn is_complete(&self, x: SeqNo) -> bool {
        self.pending_preds[x.0 as usize] == u32::MAX
    }

    /// Whether every transaction has completed.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.completed == self.pending_preds.len()
    }
}

/// The level-set decomposition of a dependency graph: layer `k` holds the
/// transactions whose longest incoming path has length `k`.
///
/// All transactions in one layer can execute in parallel; the number of
/// layers is the critical-path length, the lower bound on parallel
/// execution time in units of one transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecutionLayers {
    layers: Vec<Vec<SeqNo>>,
}

impl ExecutionLayers {
    /// Computes the layers of `graph`.
    #[must_use]
    pub fn compute(graph: &DependencyGraph) -> Self {
        let n = graph.len();
        let mut depth = vec![0usize; n];
        // Positions are already topologically ordered (edges point
        // forward), so a single left-to-right pass pushing each depth to
        // the successors suffices: a position's depth is final once every
        // earlier position has been visited.
        for i in 0..n {
            let next = depth[i] + 1;
            for succ in graph.successors(SeqNo(i as u32)) {
                let s = succ.0 as usize;
                depth[s] = depth[s].max(next);
            }
        }
        let max_depth = depth.iter().copied().max().map_or(0, |d| d + 1);
        let mut layers = vec![Vec::new(); max_depth];
        for (i, d) in depth.iter().enumerate() {
            layers[*d].push(SeqNo(i as u32));
        }
        ExecutionLayers { layers }
    }

    /// The layers, outermost first.
    #[must_use]
    pub fn layers(&self) -> &[Vec<SeqNo>] {
        &self.layers
    }

    /// Critical-path length in transactions (0 for an empty block).
    ///
    /// A no-contention block has 1; a full-contention chain has `n` —
    /// exactly the paper's "the dependency graph of each block in the last
    /// workload is a chain".
    #[must_use]
    pub fn critical_path(&self) -> usize {
        self.layers.len()
    }

    /// The widest layer: the maximum achievable parallelism.
    #[must_use]
    pub fn max_width(&self) -> usize {
        self.layers.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Average parallelism: transactions divided by critical path.
    #[must_use]
    pub fn avg_parallelism(&self) -> f64 {
        if self.layers.is_empty() {
            return 0.0;
        }
        let total: usize = self.layers.iter().map(Vec::len).sum();
        total as f64 / self.layers.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(n: usize, edges: &[(u32, u32)]) -> DependencyGraph {
        let edges: Vec<_> = edges.iter().map(|&(i, j)| (SeqNo(i), SeqNo(j))).collect();
        DependencyGraph::from_edges(n, &edges)
    }

    #[test]
    fn tracker_runs_diamond_in_dependency_order() {
        let g = graph(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let mut t = ReadyTracker::new(&g);
        assert_eq!(t.take_ready(), vec![SeqNo(0)]);
        let newly = t.complete(SeqNo(0));
        assert_eq!(newly, vec![SeqNo(1), SeqNo(2)]);
        assert!(t.complete(SeqNo(1)).is_empty()); // 3 still waits on 2
        assert_eq!(t.complete(SeqNo(2)), vec![SeqNo(3)]);
        t.complete(SeqNo(3));
        assert!(t.is_done());
    }

    #[test]
    fn tracker_is_idempotent_under_duplicate_completion() {
        let g = graph(2, &[(0, 1)]);
        let mut t = ReadyTracker::new(&g);
        t.take_ready();
        assert_eq!(t.complete(SeqNo(0)), vec![SeqNo(1)]);
        assert!(t.complete(SeqNo(0)).is_empty());
        assert!(t.is_complete(SeqNo(0)));
        assert!(!t.is_done());
    }

    #[test]
    fn external_deps_hold_back_roots_until_released() {
        // 0 -> 1; position 0 additionally waits on two cross-block
        // writers, position 2 on one.
        let g = graph(3, &[(0, 1)]);
        let mut t = ReadyTracker::with_external(&g, &[2, 0, 1]);
        assert!(t.take_ready().is_empty(), "every root has external deps");
        assert!(
            t.release_external_batch(&[SeqNo(0)]).is_empty(),
            "one of two released"
        );
        assert_eq!(
            t.release_external_batch(&[SeqNo(0), SeqNo(2)]),
            vec![SeqNo(0), SeqNo(2)],
            "second release readies 0, the only one readies 2"
        );
        assert!(t.take_ready().is_empty(), "released, not roots");
        assert_eq!(t.complete(SeqNo(0)), vec![SeqNo(1)]);
        t.complete(SeqNo(1));
        t.complete(SeqNo(2));
        assert!(t.is_done());
    }

    #[test]
    fn external_release_after_completion_is_a_no_op() {
        // A transaction can commit from remote votes before its external
        // predecessor retires; the late release must not underflow.
        let g = graph(1, &[]);
        let mut t = ReadyTracker::with_external(&g, &[1]);
        assert!(t.complete(SeqNo(0)).is_empty());
        assert!(t.release_external_batch(&[SeqNo(0)]).is_empty());
        assert!(t.take_ready().is_empty());
        assert!(t.is_done());
    }

    #[test]
    fn missing_external_entries_default_to_zero() {
        let g = graph(3, &[]);
        let mut t = ReadyTracker::with_external(&g, &[1]);
        assert_eq!(t.take_ready(), vec![SeqNo(1), SeqNo(2)]);
        assert_eq!(t.release_external_batch(&[SeqNo(0)]), vec![SeqNo(0)]);
    }

    #[test]
    fn independent_block_is_fully_ready_at_once() {
        let g = graph(5, &[]);
        let mut t = ReadyTracker::new(&g);
        assert_eq!(t.take_ready().len(), 5);
        assert!(t.take_ready().is_empty(), "the roots are taken once");
    }

    #[test]
    fn layers_of_chain_and_empty_and_independent() {
        let chain = graph(4, &[(0, 1), (1, 2), (2, 3)]);
        let l = ExecutionLayers::compute(&chain);
        assert_eq!(l.critical_path(), 4);
        assert_eq!(l.max_width(), 1);

        let indep = graph(4, &[]);
        let l = ExecutionLayers::compute(&indep);
        assert_eq!(l.critical_path(), 1);
        assert_eq!(l.max_width(), 4);
        assert!((l.avg_parallelism() - 4.0).abs() < 1e-9);

        let empty = graph(0, &[]);
        let l = ExecutionLayers::compute(&empty);
        assert_eq!(l.critical_path(), 0);
        assert_eq!(l.max_width(), 0);
        assert_eq!(l.avg_parallelism(), 0.0);
    }

    #[test]
    fn layers_of_diamond() {
        let g = graph(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let l = ExecutionLayers::compute(&g);
        assert_eq!(l.layers().len(), 3);
        assert_eq!(l.layers()[0], vec![SeqNo(0)]);
        assert_eq!(l.layers()[1], vec![SeqNo(1), SeqNo(2)]);
        assert_eq!(l.layers()[2], vec![SeqNo(3)]);
    }
}
