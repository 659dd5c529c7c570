//! The delivery engine: applies faults and link latency, then holds
//! each message in its destination's shard until it is due (DESIGN.md
//! §10, §15). It draws no randomness: whether a message arrives and
//! when it is due are a function of the topology, the fault plan and
//! the clock. Nothing here runs on its own. In the default (wall-clock)
//! mode the receiving [`Endpoint`] moves its own due messages into its
//! mailbox whenever it receives or waits; in the *manual* mode the
//! deterministic simulator uses, only [`SimNetwork::deliver_due`] moves
//! them.
//!
//! A shard is one `(due, seq)`-ordered heap per destination. `seq` is
//! global, so manual delivery merges the shards back into one
//! `(due, seq)` order.

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crossbeam::channel::{unbounded, Sender};
use parking_lot::{Mutex, RwLock};

use parblock_types::{Clock, NodeId};

use crate::endpoint::{Endpoint, Envelope, Waker};
use crate::faults::{FaultState, Faults};
use crate::stats::NetStats;
use crate::topology::Topology;

/// Builder for a [`SimNetwork`].
///
/// # Examples
///
/// ```
/// use parblock_net::{NetworkBuilder, Topology};
/// use std::time::Duration;
///
/// let net = NetworkBuilder::new()
///     .topology(Topology::single_dc(Duration::ZERO))
///     .build::<u32>();
/// let _ = net.endpoint(parblock_types::NodeId(0));
/// ```
#[derive(Debug, Default)]
pub struct NetworkBuilder {
    topology: Topology,
    clock: Option<Clock>,
    manual: bool,
}

impl NetworkBuilder {
    /// Starts a builder with a default LAN topology.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the datacenter topology.
    #[must_use]
    pub fn topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }

    /// Has no effect: the network draws no randomness. Kept for callers
    /// that still pass the cluster seed (the `benchmark` package's replay
    /// bench).
    #[must_use]
    pub fn seed(self, _seed: u64) -> Self {
        self
    }

    /// Injects the time source delivery deadlines are computed against
    /// (default: the wall clock).
    #[must_use]
    pub fn clock(mut self, clock: Clock) -> Self {
        self.clock = Some(clock);
        self
    }

    /// Switches to *manual delivery*: queued messages move only when the
    /// caller invokes [`SimNetwork::deliver_due`], and endpoints never
    /// move their own. This is the deterministic-simulation mode —
    /// delivery order becomes a pure function of `(due, seq)`,
    /// independent of host scheduling.
    #[must_use]
    pub fn manual_delivery(mut self) -> Self {
        self.manual = true;
        self
    }

    /// Builds the network. It starts no thread in either mode: without
    /// [`NetworkBuilder::manual_delivery`], each endpoint moves its own
    /// due messages when it receives or waits.
    ///
    /// # Panics
    ///
    /// Panics when a simulated clock is combined with threaded delivery:
    /// endpoints wait for due times on real time and would never observe
    /// virtual time advancing.
    #[must_use]
    pub fn build<M: Send + Sync + Clone + 'static>(self) -> SimNetwork<M> {
        let clock = self.clock.unwrap_or_default();
        assert!(
            self.manual || !clock.is_simulated(),
            "a simulated clock requires manual_delivery()"
        );
        SimNetwork {
            shared: Arc::new(Shared {
                shards: RwLock::new(HashMap::new()),
                next_seq: AtomicU64::new(0),
                manual: self.manual,
                mailboxes: RwLock::new(HashMap::new()),
                topology: self.topology,
                faults: Faults::new(),
                stats: NetStats::new(),
                clock,
            }),
        }
    }
}

/// A scheduled message body: owned for unicast sends, `Arc`-shared for
/// multicasts (one encode/clone total, `n` cheap handles). The shared
/// payload is unwrapped without a clone when the last handle delivers.
enum Payload<M> {
    Owned(M),
    Shared(Arc<M>),
}

impl<M: Clone> Payload<M> {
    fn into_msg(self) -> M {
        match self {
            Payload::Owned(msg) => msg,
            Payload::Shared(arc) => Arc::try_unwrap(arc).unwrap_or_else(|arc| (*arc).clone()),
        }
    }
}

/// Global delivery-order key: earliest due first, enqueue order breaking
/// ties.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct HeapKey {
    due: Instant,
    seq: u64,
}

struct Entry<M> {
    key: HeapKey,
    to: NodeId,
    from: NodeId,
    payload: Payload<M>,
}

impl<M> PartialEq for Entry<M> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<M> Eq for Entry<M> {}
impl<M> PartialOrd for Entry<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Entry<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

/// One destination's messages in flight, earliest `(due, seq)` first,
/// and — in threaded mode, once the destination has registered — the
/// wake token of the endpoint that moves them.
pub(crate) struct Shard<M> {
    heap: BinaryHeap<Reverse<Entry<M>>>,
    waker: Option<Waker<M>>,
}

/// A shard behind its own lock, shared by the senders that fill it and
/// the endpoint that empties it.
pub(crate) type ShardRef<M> = Arc<Mutex<Shard<M>>>;

struct Shared<M> {
    /// Per-destination shards, created on the first message scheduled to
    /// a destination or, in threaded mode, when its endpoint registers.
    shards: RwLock<HashMap<NodeId, ShardRef<M>>>,
    /// Global enqueue sequence: ties on `due` resolve in enqueue order
    /// across *all* destinations.
    next_seq: AtomicU64,
    manual: bool,
    mailboxes: RwLock<HashMap<NodeId, Sender<Envelope<M>>>>,
    topology: Topology,
    faults: Faults,
    stats: NetStats,
    clock: Clock,
}

impl<M> Shared<M> {
    /// Messages queued for future delivery, across all shards.
    fn queued(&self) -> usize {
        self.shards
            .read()
            .values()
            .map(|shard| shard.lock().heap.len())
            .sum()
    }
}

/// A simulated network. Cheap to clone; all clones share the same state.
///
/// See the crate docs for the model. No thread runs inside it, so
/// dropping the last handle (endpoints hold one each) frees everything.
#[derive(Clone)]
pub struct SimNetwork<M: Send + 'static> {
    shared: Arc<Shared<M>>,
}

impl<M: Send + Sync + Clone + 'static> SimNetwork<M> {
    /// Registers (or replaces) the mailbox for `node` and returns its
    /// endpoint. In threaded mode the endpoint takes over moving its
    /// shard's due messages, and the shard wakes it from now on; an
    /// endpoint it replaces reports a disconnect once drained.
    #[must_use]
    pub fn endpoint(&self, node: NodeId) -> Endpoint<M> {
        let (tx, rx) = unbounded();
        self.shared.mailboxes.write().insert(node, tx);
        let inbound = (!self.shared.manual).then(|| {
            let shard = self.shard_for(node);
            shard.lock().waker = Some(rx.waker());
            shard
        });
        Endpoint::new(node, self.clone(), rx, inbound)
    }

    /// The shared fault-injection plan.
    #[must_use]
    pub fn faults(&self) -> Faults {
        self.shared.faults.clone()
    }

    /// The shared traffic counters.
    #[must_use]
    pub fn stats(&self) -> NetStats {
        self.shared.stats.clone()
    }

    /// The network's clock: due times are instants on it.
    pub(crate) fn now(&self) -> Instant {
        self.shared.clock.now()
    }

    pub(crate) fn route(&self, from: NodeId, to: NodeId, msg: M) {
        self.route_payload(&self.shared.faults.plan(), from, to, Payload::Owned(msg));
    }

    /// Routes one handle of an `Arc`-shared payload to each of `dests`:
    /// faults and latency apply per destination (identical to a unicast
    /// send), only the message body is shared. The fault plan is
    /// held across the whole multicast, so a crash of the sender reaches
    /// all of its copies or none.
    pub(crate) fn route_multicast(
        &self,
        from: NodeId,
        dests: impl Iterator<Item = NodeId>,
        msg: &Arc<M>,
    ) {
        let faults = self.shared.faults.plan();
        for to in dests {
            self.route_payload(&faults, from, to, Payload::Shared(Arc::clone(msg)));
        }
    }

    fn route_payload(&self, faults: &FaultState, from: NodeId, to: NodeId, payload: Payload<M>) {
        self.shared.stats.record_sent();
        if faults.should_drop(from, to) {
            self.shared.stats.record_dropped();
            return;
        }
        let delay = self.shared.topology.latency(from, to);
        if delay.is_zero() {
            deliver_to(
                &self.shared,
                to,
                Envelope {
                    from,
                    msg: payload.into_msg(),
                },
            );
            return;
        }
        let due = self.shared.clock.now() + delay;
        let seq = self.shared.next_seq.fetch_add(1, Ordering::Relaxed);
        self.schedule(Entry {
            key: HeapKey { due, seq },
            to,
            from,
            payload,
        });
    }

    fn schedule(&self, entry: Entry<M>) {
        self.shared.stats.record_enqueued();
        let shard = self.shard_for(entry.to);
        let mut queue = shard.lock();
        // Targeted wakeup: the receiving endpoint waits at most until its
        // shard's earliest due time, so only an entry that becomes the
        // new earliest can shorten that wait. Everything else lands
        // silently. Under manual delivery no endpoint registers a waker.
        let new_head = queue
            .heap
            .peek()
            .is_none_or(|Reverse(head)| entry.key < head.key);
        queue.heap.push(Reverse(entry));
        let waker = if new_head { queue.waker.clone() } else { None };
        drop(queue);
        if let Some(waker) = waker {
            self.shared.stats.record_wakeup();
            waker.wake();
        }
    }

    /// Gets or creates the shard for `to`.
    fn shard_for(&self, to: NodeId) -> ShardRef<M> {
        if let Some(shard) = self.shared.shards.read().get(&to) {
            return Arc::clone(shard);
        }
        let mut shards = self.shared.shards.write();
        let shard = shards.entry(to).or_insert_with(|| {
            Arc::new(Mutex::new(Shard {
                heap: BinaryHeap::new(),
                waker: None,
            }))
        });
        Arc::clone(shard)
    }

    /// Threaded delivery, called by the receiving endpoint: moves every
    /// entry of `shard` due by now into the mailbox, in `(due, seq)`
    /// order, and returns the due time of the earliest entry left. The
    /// moves happen under the shard lock, so two handles of one endpoint
    /// draining at once still fill the mailbox in order.
    pub(crate) fn deliver_shard(&self, shard: &Mutex<Shard<M>>) -> Option<Instant> {
        let now = self.shared.clock.now();
        let mut queue = shard.lock();
        while let Some(head) = queue.heap.peek_mut() {
            if head.0.key.due > now {
                return Some(head.0.key.due);
            }
            deliver_entry(&self.shared, PeekMut::pop(head).0);
        }
        None
    }

    /// The due time of the earliest queued message, if any (manual
    /// delivery: the next instant [`SimNetwork::deliver_due`] can make
    /// progress at).
    #[must_use]
    pub fn next_due(&self) -> Option<Instant> {
        self.earliest_head().map(|(key, _)| key.due)
    }

    /// The globally smallest queued key and its shard. The key is unique
    /// (seq is), so the min does not depend on map iteration order.
    fn earliest_head(&self) -> Option<(HeapKey, ShardRef<M>)> {
        self.shared
            .shards
            .read()
            .values()
            .filter_map(|shard| {
                let head = shard.lock().heap.peek().map(|Reverse(entry)| entry.key);
                head.map(|key| (key, Arc::clone(shard)))
            })
            .min_by_key(|(key, _)| *key)
    }

    /// Delivers every queued message due at or before `now`, in
    /// deterministic `(due, enqueue-seq)` order, merged *across* shards,
    /// and returns how many it delivered. This is manual delivery's
    /// engine tick and the only thing that moves messages there. In
    /// threaded mode endpoints move their own, so nothing needs to call
    /// it; a call finds only what they have not taken in yet.
    pub fn deliver_due(&self, now: Instant) -> usize {
        let mut delivered = 0;
        while let Some((key, shard)) = self.earliest_head().filter(|(key, _)| key.due <= now) {
            let mut queue = shard.lock();
            // A sender on another thread may have pushed a new head
            // since the scan; then scan again.
            let head = queue.heap.peek_mut().filter(|head| head.0.key == key);
            if let Some(head) = head {
                deliver_entry(&self.shared, PeekMut::pop(head).0);
                delivered += 1;
            }
        }
        delivered
    }

    /// Number of messages queued for future delivery.
    #[must_use]
    pub fn queued(&self) -> usize {
        self.shared.queued()
    }

    /// Closes every mailbox: each endpoint's receive reports
    /// [`RecvError::Disconnected`](crate::RecvError::Disconnected) once
    /// its mailbox is drained, and no message still in flight or sent
    /// later is delivered (each counts as dropped). There is no thread
    /// to stop. Idempotent.
    pub fn shutdown(&self) {
        self.shared.mailboxes.write().clear();
    }
}

impl<M: Send + 'static> std::fmt::Debug for SimNetwork<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimNetwork")
            .field("mailboxes", &self.shared.mailboxes.read().len())
            .field("queued", &self.shared.queued())
            .finish()
    }
}

fn deliver_entry<M: Send + Clone + 'static>(shared: &Shared<M>, entry: Entry<M>) {
    let envelope = Envelope {
        from: entry.from,
        msg: entry.payload.into_msg(),
    };
    deliver_to(shared, entry.to, envelope);
}

fn deliver_to<M: Send + 'static>(shared: &Shared<M>, to: NodeId, envelope: Envelope<M>) {
    let mailboxes = shared.mailboxes.read();
    match mailboxes.get(&to) {
        Some(tx) => {
            // Count before handing over: a receiver that has already
            // drained this envelope must observe the incremented counter.
            shared.stats.record_delivered();
            if tx.send(envelope).is_err() {
                shared.stats.record_delivery_failed();
            }
        }
        _ => shared.stats.record_dropped(),
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;

    fn lan(latency_us: u64) -> SimNetwork<u32> {
        NetworkBuilder::new()
            .topology(Topology::single_dc(Duration::from_micros(latency_us)))
            .build()
    }

    #[test]
    fn zero_latency_delivers_inline() {
        let net = lan(0);
        let a = net.endpoint(NodeId(0));
        let b = net.endpoint(NodeId(1));
        a.send(NodeId(1), 99);
        let env = b.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(env.msg, 99);
        assert_eq!(env.from, NodeId(0));
        net.shutdown();
    }

    #[test]
    fn latency_is_applied() {
        let net = lan(20_000); // 20 ms
        let a = net.endpoint(NodeId(0));
        let b = net.endpoint(NodeId(1));
        let start = Instant::now();
        a.send(NodeId(1), 1);
        let _ = b.recv_timeout(Duration::from_secs(2)).unwrap();
        assert!(start.elapsed() >= Duration::from_millis(18));
        net.shutdown();
    }

    #[test]
    fn messages_to_unregistered_nodes_are_dropped() {
        let net = lan(0);
        let a = net.endpoint(NodeId(0));
        a.send(NodeId(42), 5);
        assert_eq!(net.stats().dropped(), 1);
        net.shutdown();
    }

    #[test]
    fn multicast_skips_self() {
        let net = lan(0);
        let a = net.endpoint(NodeId(0));
        let b = net.endpoint(NodeId(1));
        let c = net.endpoint(NodeId(2));
        let everyone = [NodeId(0), NodeId(1), NodeId(2)];
        a.multicast(everyone.iter(), &7);
        assert_eq!(b.recv_timeout(Duration::from_secs(1)).unwrap().msg, 7);
        assert_eq!(c.recv_timeout(Duration::from_secs(1)).unwrap().msg, 7);
        assert!(a.try_recv().is_none());
        net.shutdown();
    }

    #[test]
    fn partition_blocks_delivery_until_heal() {
        let net = lan(0);
        let a = net.endpoint(NodeId(0));
        let b = net.endpoint(NodeId(1));
        net.faults().partition(NodeId(0), NodeId(1));
        a.send(NodeId(1), 1);
        assert!(b.recv_timeout(Duration::from_millis(50)).is_err());
        net.faults().heal();
        a.send(NodeId(1), 2);
        assert_eq!(b.recv_timeout(Duration::from_secs(1)).unwrap().msg, 2);
        net.shutdown();
    }

    #[test]
    fn same_delay_messages_keep_fifo_order() {
        let net = lan(1000);
        let a = net.endpoint(NodeId(0));
        let b = net.endpoint(NodeId(1));
        for i in 0..20 {
            a.send(NodeId(1), i);
        }
        for want in 0..20 {
            let got = b.recv_timeout(Duration::from_secs(1)).unwrap().msg;
            assert_eq!(got, want);
        }
        net.shutdown();
    }

    #[test]
    fn stats_count_sent_and_delivered() {
        let net = lan(0);
        let a = net.endpoint(NodeId(0));
        let _b = net.endpoint(NodeId(1));
        a.send(NodeId(1), 1);
        a.send(NodeId(1), 2);
        assert_eq!(net.stats().sent(), 2);
        assert_eq!(net.stats().delivered(), 2);
        net.shutdown();
    }

    #[test]
    fn shutdown_is_idempotent() {
        let net = lan(0);
        net.shutdown();
        net.shutdown();
    }

    #[test]
    fn shutdown_ends_a_blocked_receive_and_closes_every_mailbox() {
        let net = lan(1000);
        let a = net.endpoint(NodeId(0));
        let b = net.endpoint(NodeId(1));
        a.send(NodeId(1), 1);
        let blocked = b.clone();
        let waiter = std::thread::spawn(move || blocked.recv());
        net.shutdown();
        // The wait ended: the message was either taken in before the
        // shutdown or dropped by it, never received afterwards.
        let outcome = waiter.join().unwrap();
        assert!(matches!(
            outcome,
            Ok(_) | Err(crate::RecvError::Disconnected)
        ));
        a.send(NodeId(1), 2);
        assert_eq!(b.recv(), Err(crate::RecvError::Disconnected));
    }

    /// Re-registering a node moves its shard's wake token to the new
    /// endpoint: a send to an empty shard must end the new endpoint's
    /// unbounded wait, and the replaced endpoint reports a disconnect.
    #[test]
    fn a_reregistered_endpoint_is_woken_and_the_old_one_disconnected() {
        let net = lan(1000);
        let a = net.endpoint(NodeId(0));
        let old = net.endpoint(NodeId(1));
        let new = net.endpoint(NodeId(1));
        let (got, arrivals) = std::sync::mpsc::channel();
        let receiver = std::thread::spawn(move || loop {
            match new.try_recv() {
                Some(envelope) => break got.send(envelope.msg).unwrap(),
                None => new.wait_until(None),
            }
        });
        std::thread::sleep(Duration::from_millis(10));
        a.send(NodeId(1), 5);
        let msg = arrivals.recv_timeout(Duration::from_secs(10));
        assert_eq!(msg, Ok(5), "the send must wake the endpoint now registered");
        receiver.join().unwrap();
        assert_eq!(old.recv(), Err(crate::RecvError::Disconnected));
        net.shutdown();
    }

    #[test]
    fn manual_mode_holds_messages_until_delivered() {
        let clock = Clock::simulated();
        let net: SimNetwork<u32> = NetworkBuilder::new()
            .topology(Topology::single_dc(Duration::from_micros(100)))
            .clock(clock.clone())
            .manual_delivery()
            .build();
        let a = net.endpoint(NodeId(0));
        let b = net.endpoint(NodeId(1));
        a.send(NodeId(1), 7);
        a.send(NodeId(1), 8);
        assert_eq!(net.queued(), 2, "nothing moves without deliver_due");
        assert!(b.try_recv().is_none());
        let due = net.next_due().expect("queued");
        assert_eq!(due.duration_since(clock.now()), Duration::from_micros(100));
        // Advancing past the deadline and ticking delivers in FIFO order.
        clock.advance(Duration::from_micros(150));
        assert_eq!(net.deliver_due(clock.now()), 2);
        assert_eq!(b.try_recv().unwrap().msg, 7);
        assert_eq!(b.try_recv().unwrap().msg, 8);
        assert_eq!(net.next_due(), None);
        net.shutdown();
    }

    #[test]
    fn manual_mode_respects_due_times() {
        let clock = Clock::simulated();
        let mut topo = Topology::two_dc(Duration::from_micros(10), Duration::from_millis(1));
        topo.place(NodeId(2), crate::DcId(1));
        let net: SimNetwork<u32> = NetworkBuilder::new()
            .topology(topo)
            .clock(clock.clone())
            .manual_delivery()
            .build();
        let a = net.endpoint(NodeId(0));
        let _b = net.endpoint(NodeId(1));
        let _c = net.endpoint(NodeId(2));
        a.send(NodeId(2), 1); // far: 1 ms
        a.send(NodeId(1), 2); // near: 10 µs
        clock.advance(Duration::from_micros(10));
        assert_eq!(
            net.deliver_due(clock.now()),
            1,
            "only the near message is due"
        );
        clock.advance(Duration::from_millis(1));
        assert_eq!(net.deliver_due(clock.now()), 1);
        net.shutdown();
    }

    #[test]
    #[should_panic(expected = "manual_delivery")]
    fn simulated_clock_without_manual_mode_panics() {
        let _ = NetworkBuilder::new()
            .clock(Clock::simulated())
            .build::<u32>();
    }

    #[test]
    fn pending_counts_mailbox_depth() {
        let net = lan(0);
        let a = net.endpoint(NodeId(0));
        let b = net.endpoint(NodeId(1));
        a.send(NodeId(1), 1);
        a.send(NodeId(1), 2);
        // Zero-latency sends deliver inline, so both are queued.
        assert_eq!(b.pending(), 2);
        net.shutdown();
    }

    /// The sharded wake protocol: a burst of enqueues to one destination
    /// raises its endpoint's waker O(1) times (only a new earliest-due
    /// head wakes).
    #[test]
    fn sharded_enqueues_per_wakeup_is_batched() {
        let burst = 100u32;
        // Messages 2..n land behind the head silently.
        let net = lan(50_000); // 50 ms: the whole burst enqueues before the first is due
        let a = net.endpoint(NodeId(0));
        let b = net.endpoint(NodeId(1));
        for i in 0..burst {
            a.send(NodeId(1), i);
        }
        assert_eq!(net.stats().enqueued(), u64::from(burst));
        assert!(
            net.stats().wakeups() <= 2,
            "a same-latency burst must cost O(1) wakeups, got {}",
            net.stats().wakeups()
        );
        for _ in 0..burst {
            b.recv_timeout(Duration::from_secs(2)).expect("delivered");
        }
        net.shutdown();
    }

    /// An `Arc`-shared multicast enqueues handles, not clones: the last
    /// delivery unwraps the payload without cloning, and every recipient
    /// still receives the full message.
    #[test]
    fn multicast_shares_one_payload_across_recipients() {
        let clock = Clock::simulated();
        let net: SimNetwork<String> = NetworkBuilder::new()
            .topology(Topology::single_dc(Duration::from_micros(100)))
            .clock(clock.clone())
            .manual_delivery()
            .build();
        let a = net.endpoint(NodeId(0));
        let receivers: Vec<_> = (1..=5).map(|i| net.endpoint(NodeId(i))).collect();
        let dests: Vec<NodeId> = (0..=5).map(NodeId).collect();
        let big = "x".repeat(4096);
        a.multicast(dests.iter(), &big);
        assert_eq!(net.queued(), 5);
        clock.advance(Duration::from_millis(1));
        assert_eq!(net.deliver_due(clock.now()), 5);
        for r in &receivers {
            assert_eq!(r.try_recv().expect("delivered").msg, big);
        }
        net.shutdown();
    }
}
