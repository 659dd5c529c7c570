//! The ordering-protocol abstraction.

use std::sync::Arc;

use parblock_types::NodeId;

use crate::action::{Action, TimerId};

/// Static configuration of one protocol instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolConfig {
    /// This replica's identity.
    pub id: NodeId,
    /// All orderer replicas, identically ordered on every replica.
    pub peers: Vec<NodeId>,
}

impl ProtocolConfig {
    /// Creates a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `peers` does not contain `id` or contains duplicates.
    #[must_use]
    pub fn new(id: NodeId, peers: Vec<NodeId>) -> Self {
        assert!(peers.contains(&id), "peer list must contain self");
        let mut dedup = peers.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), peers.len(), "duplicate peers");
        ProtocolConfig { id, peers }
    }

    /// Number of replicas.
    #[must_use]
    pub fn n(&self) -> usize {
        self.peers.len()
    }
}

/// The bytes being ordered: immutable from [`OrderingProtocol::submit`]
/// on. Logs, messages and deliveries hold the same allocation, so
/// replicating, retaining and delivering a payload clones a pointer.
pub type Payload = Arc<[u8]>;

/// A totally-ordering consensus protocol as a sans-io state machine.
///
/// The host owns the network and the clock; the state machine owns every
/// protocol decision. All methods return the actions the host must
/// perform, in order.
pub trait OrderingProtocol {
    /// The protocol's wire message type.
    type Msg;

    /// A client payload arrived at this replica for ordering.
    fn submit(&mut self, payload: Payload) -> Vec<Action<Self::Msg>>;

    /// A protocol message arrived from `from` (transport-authenticated).
    fn on_message(&mut self, from: NodeId, msg: Self::Msg) -> Vec<Action<Self::Msg>>;

    /// A previously armed timer expired.
    fn on_timer(&mut self, id: TimerId) -> Vec<Action<Self::Msg>>;

    /// This replica's identity.
    fn id(&self) -> NodeId;

    /// Whether this replica currently believes it is the leader/primary.
    fn is_leader(&self) -> bool;

    /// The replica's current view (PBFT) or epoch (sequencer).
    fn current_view(&self) -> u64;

    /// The host reports `below`, the lowest offset its own restart would
    /// replay from. A protocol that retains delivered payloads for
    /// lagging replicas may drop those below every replica's report; one
    /// that retains none (PBFT) ignores it.
    fn compact(&mut self, below: u64) {
        let _ = below;
    }

    /// The host restarted this replica, which may have missed deliveries
    /// that no later message will announce. Returns the actions that ask
    /// for them; a protocol that cannot ask asks nothing.
    fn rejoin(&mut self) -> Vec<Action<Self::Msg>> {
        Vec::new()
    }

    /// `from`, the leader of `epoch`, answered with an
    /// [`Action::CatchUp`]: the replica's next delivery jumps to `offset`,
    /// and nothing below it is delivered. Returns the actions that follow,
    /// which the host applies after installing the state that came with
    /// the catch-up; `None` when the replica refuses it (a stale epoch, a
    /// sender that does not lead that epoch, or an offset it has already
    /// reached), and then the host installs nothing.
    fn catch_up(
        &mut self,
        from: NodeId,
        epoch: u64,
        offset: u64,
    ) -> Option<Vec<Action<Self::Msg>>> {
        let _ = (from, epoch, offset);
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_accessors() {
        let cfg = ProtocolConfig::new(NodeId(2), vec![NodeId(1), NodeId(2), NodeId(3)]);
        assert_eq!(cfg.n(), 3);
    }

    #[test]
    #[should_panic(expected = "must contain self")]
    fn missing_self_panics() {
        let _ = ProtocolConfig::new(NodeId(9), vec![NodeId(1)]);
    }

    #[test]
    #[should_panic(expected = "duplicate peers")]
    fn duplicate_peers_panic() {
        let _ = ProtocolConfig::new(NodeId(1), vec![NodeId(1), NodeId(1)]);
    }
}
