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
}

impl<M> Action<M> {
    /// The delivered `(seq, payload)`, if this is a delivery.
    #[must_use]
    pub fn as_delivery(&self) -> Option<(u64, &[u8])> {
        match self {
            Action::Deliver { seq, payload } => Some((*seq, payload)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn as_delivery_filters() {
        let d: Action<()> = Action::Deliver {
            seq: 3,
            payload: vec![1].into(),
        };
        assert_eq!(d.as_delivery(), Some((3, &[1u8][..])));
        let s: Action<u8> = Action::Send {
            to: NodeId(1),
            msg: 9,
        };
        assert_eq!(s.as_delivery(), None);
    }
}
