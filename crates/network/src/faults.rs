//! Runtime fault injection: silenced links, crashes and partitions.

use std::collections::HashSet;
use std::sync::{Arc, RwLockReadGuard};

use parking_lot::RwLock;
use parblock_types::NodeId;

/// One consistent view of the fault plan, see [`Faults::plan`].
#[derive(Debug, Default)]
pub(crate) struct FaultState {
    /// Silenced directed links `(from, to)`: everything on them is
    /// dropped.
    silenced: HashSet<(NodeId, NodeId)>,
    /// Crashed nodes: everything to/from them is dropped.
    crashed: HashSet<NodeId>,
    /// Partitioned unordered pairs.
    partitioned: HashSet<(NodeId, NodeId)>,
}

/// Shared, runtime-mutable fault plan.
///
/// Cloning shares the underlying state, so a test can keep a handle while
/// the network consults the same plan.
///
/// # Examples
///
/// ```
/// use parblock_net::Faults;
/// use parblock_types::NodeId;
///
/// let faults = Faults::new();
/// faults.partition(NodeId(0), NodeId(1));
/// assert!(faults.should_drop(NodeId(0), NodeId(1)));
/// faults.heal();
/// assert!(!faults.should_drop(NodeId(0), NodeId(1)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Faults {
    state: Arc<RwLock<FaultState>>,
}

impl FaultState {
    pub(crate) fn should_drop(&self, from: NodeId, to: NodeId) -> bool {
        self.crashed.contains(&from)
            || self.crashed.contains(&to)
            || self.partitioned.contains(&unordered(from, to))
            || self.silenced.contains(&(from, to))
    }
}

fn unordered(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

impl Faults {
    /// Creates a fault-free plan.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Silences the directed link `from → to`: every message on it is
    /// dropped until [`Faults::unsilence`].
    pub fn silence(&self, from: NodeId, to: NodeId) {
        self.state.write().silenced.insert((from, to));
    }

    /// Marks `node` as crashed: all of its traffic is dropped until
    /// [`Faults::restart`].
    pub fn crash(&self, node: NodeId) {
        self.state.write().crashed.insert(node);
    }

    /// Restarts a crashed node.
    pub fn restart(&self, node: NodeId) {
        self.state.write().crashed.remove(&node);
    }

    /// Partitions the unordered pair `{a, b}` (both directions dropped).
    pub fn partition(&self, a: NodeId, b: NodeId) {
        self.state.write().partitioned.insert(unordered(a, b));
    }

    /// Partitions every cross pair between the two groups.
    pub fn partition_groups(&self, left: &[NodeId], right: &[NodeId]) {
        let mut state = self.state.write();
        for &a in left {
            for &b in right {
                state.partitioned.insert(unordered(a, b));
            }
        }
    }

    /// Clears all faults.
    pub fn heal(&self) {
        *self.state.write() = FaultState::default();
    }

    /// Removes every cross pair between the two groups (the inverse of
    /// [`Faults::partition_groups`]), leaving every other fault in place
    /// (unlike the global [`Faults::heal`] — the deterministic fault
    /// scheduler overlaps independent fault windows and must end them
    /// independently).
    pub fn unpartition_groups(&self, left: &[NodeId], right: &[NodeId]) {
        let mut state = self.state.write();
        for &a in left {
            for &b in right {
                state.partitioned.remove(&unordered(a, b));
            }
        }
    }

    /// Lifts the silence on the directed link `from → to` only.
    pub fn unsilence(&self, from: NodeId, to: NodeId) {
        self.state.write().silenced.remove(&(from, to));
    }

    /// Whether a message on `from → to` is dropped under the current plan.
    #[must_use]
    pub fn should_drop(&self, from: NodeId, to: NodeId) -> bool {
        self.state.read().should_drop(from, to)
    }

    /// The plan, held unchanged while the guard lives: every copy of one
    /// multicast is judged against the same plan, so a crash or heal
    /// lands between a node's sends, never inside one of them.
    pub(crate) fn plan(&self) -> RwLockReadGuard<'_, FaultState> {
        self.state.read()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_drops_both_directions() {
        let f = Faults::new();
        f.crash(NodeId(2));
        assert!(f.should_drop(NodeId(2), NodeId(0)));
        assert!(f.should_drop(NodeId(0), NodeId(2)));
        f.restart(NodeId(2));
        assert!(!f.should_drop(NodeId(0), NodeId(2)));
    }

    #[test]
    fn partition_is_symmetric_and_healable() {
        let f = Faults::new();
        f.partition(NodeId(3), NodeId(1));
        assert!(f.should_drop(NodeId(1), NodeId(3)));
        assert!(f.should_drop(NodeId(3), NodeId(1)));
        f.heal();
        assert!(!f.should_drop(NodeId(1), NodeId(3)));
    }

    #[test]
    fn group_partition() {
        let f = Faults::new();
        f.partition_groups(&[NodeId(0), NodeId(1)], &[NodeId(2)]);
        assert!(f.should_drop(NodeId(0), NodeId(2)));
        assert!(f.should_drop(NodeId(2), NodeId(1)));
        assert!(!f.should_drop(NodeId(0), NodeId(1)));
    }

    #[test]
    fn scoped_removal_leaves_other_faults_in_place() {
        let f = Faults::new();
        f.partition(NodeId(0), NodeId(1));
        f.partition_groups(&[NodeId(2)], &[NodeId(3), NodeId(4)]);
        f.silence(NodeId(5), NodeId(6));
        f.crash(NodeId(7));

        f.unpartition_groups(&[NodeId(2)], &[NodeId(3), NodeId(4)]);
        assert!(!f.should_drop(NodeId(2), NodeId(4)));
        assert!(f.should_drop(NodeId(0), NodeId(1)), "pair intact");

        assert!(f.should_drop(NodeId(5), NodeId(6)), "silence intact");
        f.unsilence(NodeId(5), NodeId(6));
        assert!(!f.should_drop(NodeId(5), NodeId(6)));

        assert!(f.should_drop(NodeId(7), NodeId(0)), "crash untouched by scoped heals");
        f.restart(NodeId(7));
        assert!(!f.should_drop(NodeId(7), NodeId(0)));
    }

    #[test]
    fn clones_share_state() {
        let f = Faults::new();
        let g = f.clone();
        f.crash(NodeId(9));
        assert!(g.should_drop(NodeId(9), NodeId(0)));
    }
}
