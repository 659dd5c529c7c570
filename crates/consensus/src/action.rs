//! Actions emitted by consensus state machines for the host to perform.

use std::time::Duration;

use parblock_types::NodeId;

use crate::traits::Payload;

/// Identifies a protocol timer (opaque to the host).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimerId(pub u64);

/// An instruction from a protocol state machine to its hosting node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action<M> {
    /// Send `msg` to one peer.
    Send {
        /// Destination orderer.
        to: NodeId,
        /// Protocol message.
        msg: M,
    },
    /// Send `msg` to every other orderer.
    Broadcast {
        /// Protocol message.
        msg: M,
    },
    /// A payload reached its final position in the total order.
    /// Deliveries are emitted in strictly increasing `seq` order.
    Deliver {
        /// Position in the total order (0-based, gap-free).
        seq: u64,
        /// The ordered payload.
        payload: Payload,
    },
    /// (Re)arm a timer: the host must call
    /// [`OrderingProtocol::on_timer`](crate::OrderingProtocol::on_timer)
    /// with `id` after `after`, unless the timer is re-armed or cancelled
    /// first.
    SetTimer {
        /// Timer identity.
        id: TimerId,
        /// Delay until expiry.
        after: Duration,
    },
    /// Cancel a previously armed timer.
    CancelTimer {
        /// Timer identity.
        id: TimerId,
    },
    /// `to` asked for offsets this leader no longer retains (below
    /// `log_start`): send it this host's state as of its next delivery,
    /// ahead of the replay that follows this action. The receiver hands
    /// the offset it resumes from to
    /// [`OrderingProtocol::catch_up`](crate::OrderingProtocol::catch_up).
    CatchUp {
        /// The replica that fetched below the log start.
        to: NodeId,
        /// The leader's epoch, which the receiver checks as an append's.
        epoch: u64,
        /// The lowest offset the replay that follows starts at.
        log_start: u64,
    },
}
