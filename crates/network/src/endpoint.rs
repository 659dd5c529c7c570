//! Per-node network endpoints.

use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{Receiver, TryRecvError};
use parblock_types::NodeId;

use crate::engine::{ShardRef, SimNetwork};

/// A message together with its authenticated sender.
///
/// The network guarantees sender authenticity (§III: "network links are
/// pairwise authenticated… a Byzantine node cannot forge a message from a
/// correct node"): `from` is stamped by the transport, not by the sender's
/// payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope<M> {
    /// The sending node.
    pub from: NodeId,
    /// The message payload.
    pub msg: M,
}

/// Error returned by blocking receives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvError {
    /// No message arrived before the timeout.
    Timeout,
    /// The network was shut down.
    Disconnected,
}

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecvError::Timeout => f.write_str("receive timed out"),
            RecvError::Disconnected => f.write_str("network shut down"),
        }
    }
}

impl std::error::Error for RecvError {}

/// Ends an [`Endpoint::wait_until`] from another thread without sending
/// a message; cheap to clone. A wake raised while the owner is not
/// waiting ends its next wait, so "publish, then wake" is never lost.
pub type Waker<M> = crossbeam::channel::Waker<Envelope<M>>;

/// A node's handle to the simulated network: a sender for any destination
/// and a private mailbox. A clone is a second handle on the same node
/// and mailbox: a runtime receives on one, the node sends through the other.
///
/// In threaded mode the endpoint is its own delivery: every receive and
/// every wait first moves the messages in flight to this node that are
/// due into the mailbox, in `(due, seq)` order (DESIGN.md §15).
#[derive(Clone)]
pub struct Endpoint<M: Send + 'static> {
    id: NodeId,
    net: SimNetwork<M>,
    rx: Receiver<Envelope<M>>,
    /// This node's shard of messages in flight; `None` under manual
    /// delivery, where only [`SimNetwork::deliver_due`] moves them.
    inbound: Option<ShardRef<M>>,
}

impl<M: Send + Sync + Clone + 'static> Endpoint<M> {
    pub(crate) fn new(
        id: NodeId,
        net: SimNetwork<M>,
        rx: Receiver<Envelope<M>>,
        inbound: Option<ShardRef<M>>,
    ) -> Self {
        Endpoint {
            id,
            net,
            rx,
            inbound,
        }
    }

    /// This endpoint's node id.
    #[must_use]
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Sends `msg` to `to` (fire-and-forget, like UDP with FIFO-ish
    /// delivery; protocols needing reliability retransmit).
    pub fn send(&self, to: NodeId, msg: M) {
        self.net.route(self.id, to, msg);
    }

    /// Sends `msg` to every node in `dests` (skipping self).
    ///
    /// The message is cloned **once** into an [`Arc`]-shared payload;
    /// each recipient is enqueued a cheap handle, so an `n`-recipient
    /// multicast of a block-sized message costs O(1) payloads instead of
    /// O(n) deep clones (DESIGN.md §15). Faults and latency still apply
    /// per destination, exactly as if each copy were sent alone.
    pub fn multicast<'a, I>(&self, dests: I, msg: &M)
    where
        I: IntoIterator<Item = &'a NodeId>,
    {
        let dests = dests.into_iter().copied().filter(|&to| to != self.id);
        self.net.route_multicast(self.id, dests, &Arc::new(msg.clone()));
    }

    /// Blocks until a message arrives.
    ///
    /// # Errors
    ///
    /// Returns [`RecvError::Disconnected`] once the network is shut down
    /// and the mailbox drained.
    pub fn recv(&self) -> Result<Envelope<M>, RecvError> {
        self.recv_by(None)
    }

    /// Blocks up to `timeout`, on the network's clock, for a message.
    ///
    /// # Errors
    ///
    /// [`RecvError::Timeout`] if nothing arrived in time;
    /// [`RecvError::Disconnected`] if the network shut down.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Envelope<M>, RecvError> {
        self.recv_by(Some(self.net.now() + timeout))
    }

    /// Receives, waiting until `deadline` at most. A wait ends for the
    /// same reasons as [`Endpoint::wait_until`]'s, so a raised
    /// [`Waker`] of this endpoint is consumed here too.
    fn recv_by(&self, deadline: Option<Instant>) -> Result<Envelope<M>, RecvError> {
        loop {
            let next = self.take_due();
            match self.rx.try_recv() {
                Ok(envelope) => return Ok(envelope),
                Err(TryRecvError::Disconnected) => return Err(RecvError::Disconnected),
                Err(TryRecvError::Empty) => {}
            }
            let wait = earliest(deadline, next);
            if !self.rx.wait_until(wait) && wait == deadline {
                return Err(RecvError::Timeout);
            }
        }
    }

    /// Blocks until the mailbox holds a message (it stays queued for
    /// [`Endpoint::try_recv`]), a [`Waker`] of this endpoint was raised,
    /// or `deadline` passes; `None` waits for the first two only. In
    /// threaded mode the wait also ends when the earliest message in
    /// flight to this node falls due, and a send that makes a new
    /// earliest one raises the waker; the next receive takes it in.
    pub fn wait_until(&self, deadline: Option<Instant>) {
        let next = self.take_due();
        self.rx.wait_until(earliest(deadline, next));
    }

    /// A handle that ends this endpoint's [`Endpoint::wait_until`].
    #[must_use]
    pub fn waker(&self) -> Waker<M> {
        self.rx.waker()
    }

    /// Returns a pending message without blocking, if any.
    #[must_use]
    pub fn try_recv(&self) -> Option<Envelope<M>> {
        self.take_due();
        self.rx.try_recv().ok()
    }

    /// Number of messages waiting in the mailbox (not those in flight).
    #[must_use]
    pub fn pending(&self) -> usize {
        self.rx.len()
    }

    /// Threaded mode: moves this node's due messages into the mailbox
    /// and returns when the next one falls due. Manual mode: nothing.
    fn take_due(&self) -> Option<Instant> {
        let shard = self.inbound.as_deref()?;
        self.net.deliver_shard(shard)
    }
}

/// The earlier of two deadlines, `None` meaning never.
fn earliest(a: Option<Instant>, b: Option<Instant>) -> Option<Instant> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

impl<M: Send + 'static> fmt::Debug for Endpoint<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Endpoint")
            .field("id", &self.id)
            .field("pending", &self.rx.len())
            .finish()
    }
}
