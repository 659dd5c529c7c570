//! Datacenter topology: where each node lives and how long links take.

use std::collections::HashMap;
use std::time::Duration;

use parblock_types::NodeId;

/// Identifies a datacenter (region) in the topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct DcId(pub u8);

/// Where each node lives and how long links take.
///
/// The paper's Fig 7 places node groups either in AWS US-West or in AWS
/// Asia-Pacific (Tokyo); [`Topology::two_dc`] models exactly that split.
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use parblock_net::{DcId, Topology};
/// use parblock_types::NodeId;
///
/// let mut topo = Topology::two_dc(
///     Duration::from_micros(100),
///     Duration::from_millis(10),
/// );
/// topo.place(NodeId(5), DcId(1));
/// assert_eq!(topo.latency(NodeId(5), NodeId(5)), Duration::ZERO);
/// assert_eq!(topo.latency(NodeId(0), NodeId(5)), Duration::from_millis(10));
/// ```
#[derive(Debug, Clone)]
pub struct Topology {
    placement: HashMap<NodeId, DcId>,
    /// Latency between two distinct nodes in the same DC.
    intra_dc: Duration,
    /// Latency between nodes in different DCs.
    inter_dc: Duration,
}

impl Topology {
    /// A single datacenter where every distinct pair is `intra` apart.
    #[must_use]
    pub fn single_dc(intra: Duration) -> Self {
        Topology::two_dc(intra, intra)
    }

    /// Two datacenters: unplaced nodes default to DC 0; nodes placed in
    /// DC 1 are `inter` away from DC 0.
    #[must_use]
    pub fn two_dc(intra: Duration, inter: Duration) -> Self {
        Topology {
            placement: HashMap::new(),
            intra_dc: intra,
            inter_dc: inter,
        }
    }

    /// Places a node in a datacenter (default: `DcId(0)`).
    pub fn place(&mut self, node: NodeId, dc: DcId) {
        self.placement.insert(node, dc);
    }

    /// Places many nodes at once.
    pub fn place_all<I: IntoIterator<Item = NodeId>>(&mut self, nodes: I, dc: DcId) {
        for n in nodes {
            self.place(n, dc);
        }
    }

    /// The datacenter of `node`.
    #[must_use]
    pub fn dc_of(&self, node: NodeId) -> DcId {
        self.placement.get(&node).copied().unwrap_or_default()
    }

    /// The delivery latency from `from` to `to` (zero to self).
    #[must_use]
    pub fn latency(&self, from: NodeId, to: NodeId) -> Duration {
        if from == to {
            return Duration::ZERO;
        }
        if self.dc_of(from) == self.dc_of(to) {
            self.intra_dc
        } else {
            self.inter_dc
        }
    }
}

impl Default for Topology {
    /// A single DC with 100 µs links — a LAN-like default.
    fn default() -> Self {
        Topology::single_dc(Duration::from_micros(100))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_and_latency() {
        let mut topo = Topology::two_dc(Duration::from_micros(50), Duration::from_millis(5));
        topo.place(NodeId(1), DcId(1));
        assert_eq!(topo.dc_of(NodeId(0)), DcId(0));
        assert_eq!(topo.dc_of(NodeId(1)), DcId(1));
        assert_eq!(topo.latency(NodeId(0), NodeId(2)), Duration::from_micros(50));
        assert_eq!(topo.latency(NodeId(0), NodeId(1)), Duration::from_millis(5));
        assert_eq!(topo.latency(NodeId(1), NodeId(1)), Duration::ZERO);
    }

    #[test]
    fn place_all_moves_a_group() {
        let mut topo = Topology::two_dc(Duration::ZERO, Duration::from_millis(1));
        topo.place_all([NodeId(3), NodeId(4)], DcId(1));
        assert_eq!(topo.latency(NodeId(3), NodeId(4)), Duration::ZERO);
        assert_eq!(topo.latency(NodeId(0), NodeId(3)), Duration::from_millis(1));
    }
}
