//! The delivery engine: applies latency, jitter and faults, then delivers
//! to mailboxes — via per-destination delivery workers in the default
//! (wall-clock) mode, or under explicit caller control in the *manual*
//! mode the deterministic simulator uses (DESIGN.md §10, §15).
//!
//! The queue engine is **sharded**: one `(due, seq)`-ordered heap per
//! destination with targeted wakeups (an enqueue only notifies a worker
//! whose sleep deadline it beats). `seq` is global, so manual delivery
//! merges the shards back into one `(due, seq)` order.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use crossbeam::channel::{unbounded, Sender};
use parking_lot::{Condvar, Mutex, RwLock};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use parblock_types::{Clock, NodeId};

use crate::endpoint::{Endpoint, Envelope};
use crate::faults::{FaultState, Faults};
use crate::stats::NetStats;
use crate::topology::{LatencyModel, Topology};

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
///     .seed(42)
///     .build::<u32>();
/// let _ = net.endpoint(parblock_types::NodeId(0));
/// ```
#[derive(Debug, Default)]
pub struct NetworkBuilder {
    topology: Topology,
    seed: u64,
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

    /// Seeds the jitter/drop RNG (simulations stay reproducible).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Injects the time source delivery deadlines are computed against
    /// (default: the wall clock).
    #[must_use]
    pub fn clock(mut self, clock: Clock) -> Self {
        self.clock = Some(clock);
        self
    }

    /// Switches to *manual delivery*: no delivery workers are spawned,
    /// and queued messages only move when the caller invokes
    /// [`SimNetwork::deliver_due`]. This is the deterministic-simulation
    /// mode — delivery order becomes a pure function of `(due, seq)`,
    /// independent of host scheduling.
    #[must_use]
    pub fn manual_delivery(mut self) -> Self {
        self.manual = true;
        self
    }

    /// Builds the network (and starts its delivery workers unless
    /// [`NetworkBuilder::manual_delivery`] was selected).
    ///
    /// # Panics
    ///
    /// Panics when a simulated clock is combined with threaded delivery:
    /// the delivery workers wait on real time and would never observe
    /// virtual time advancing.
    #[must_use]
    pub fn build<M: Send + Sync + Clone + 'static>(self) -> SimNetwork<M> {
        let clock = self.clock.unwrap_or_default();
        assert!(
            self.manual || !clock.is_simulated(),
            "a simulated clock requires manual_delivery()"
        );
        SimNetwork::start(
            LatencyModel::new(self.topology),
            self.seed,
            clock,
            self.manual,
        )
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

struct QueueState<M> {
    heap: BinaryHeap<Reverse<Entry<M>>>,
    shutdown: bool,
}

impl<M> QueueState<M> {
    fn new() -> Self {
        QueueState {
            heap: BinaryHeap::new(),
            shutdown: false,
        }
    }
}

/// One destination's mailbox queue: its own lock, its own condvar, and
/// (in threaded mode) its own delivery worker.
struct Shard<M> {
    queue: Mutex<QueueState<M>>,
    wake: Condvar,
}

impl<M> Shard<M> {
    fn new() -> Self {
        Shard {
            queue: Mutex::new(QueueState::new()),
            wake: Condvar::new(),
        }
    }
}

struct Shared<M> {
    /// Per-destination shards, created on the first message scheduled to
    /// a destination.
    shards: RwLock<HashMap<NodeId, Arc<Shard<M>>>>,
    /// Global enqueue sequence: ties on `due` resolve in enqueue order
    /// across *all* destinations.
    next_seq: AtomicU64,
    shutdown: AtomicBool,
    manual: bool,
    mailboxes: RwLock<HashMap<NodeId, Sender<Envelope<M>>>>,
    latency: LatencyModel,
    faults: Faults,
    stats: NetStats,
    rng: Mutex<StdRng>,
    clock: Clock,
    /// Delivery worker handles: one per destination shard, spawned
    /// lazily (none under manual delivery).
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl<M> Shared<M> {
    /// Messages queued for future delivery, across all shards.
    fn queued(&self) -> usize {
        self.shards
            .read()
            .values()
            .map(|shard| shard.queue.lock().heap.len())
            .sum()
    }
}

/// A simulated network. Cheap to clone; all clones share the same state.
///
/// See the crate docs for the model. Dropping the last handle signals the
/// delivery workers to stop; call [`SimNetwork::shutdown`] to stop them
/// deterministically.
pub struct SimNetwork<M: Send + 'static> {
    shared: Arc<Shared<M>>,
    /// Counts *user* handles only (workers never clone it), so `Drop`
    /// can signal shutdown when the last user handle goes away.
    token: Arc<()>,
}

impl<M: Send + 'static> Clone for SimNetwork<M> {
    fn clone(&self) -> Self {
        SimNetwork {
            shared: Arc::clone(&self.shared),
            token: Arc::clone(&self.token),
        }
    }
}

impl<M: Send + Sync + Clone + 'static> SimNetwork<M> {
    fn start(latency: LatencyModel, seed: u64, clock: Clock, manual: bool) -> Self {
        let shared = Arc::new(Shared {
            shards: RwLock::new(HashMap::new()),
            next_seq: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            manual,
            mailboxes: RwLock::new(HashMap::new()),
            latency,
            faults: Faults::new(),
            stats: NetStats::new(),
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
            clock,
            workers: Mutex::new(Vec::new()),
        });
        SimNetwork {
            shared,
            token: Arc::new(()),
        }
    }

    /// Registers (or replaces) the mailbox for `node` and returns its
    /// endpoint.
    #[must_use]
    pub fn endpoint(&self, node: NodeId) -> Endpoint<M> {
        let (tx, rx) = unbounded();
        self.shared.mailboxes.write().insert(node, tx);
        Endpoint::new(node, self.clone(), rx)
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

    pub(crate) fn route(&self, from: NodeId, to: NodeId, msg: M) {
        self.route_payload(&self.shared.faults.plan(), from, to, Payload::Owned(msg));
    }

    /// Routes one handle of an `Arc`-shared payload to each of `dests`:
    /// the fault and latency draws are per-destination (identical to a
    /// unicast send), only the message body is shared. The fault plan is
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
        let (drop_unit, jitter_unit) = {
            let mut rng = self.shared.rng.lock();
            (rng.gen::<f64>(), rng.gen::<f64>())
        };
        if faults.should_drop(from, to, drop_unit) {
            self.shared.stats.record_dropped();
            return;
        }
        let delay =
            self.shared.latency.sample(from, to, jitter_unit) + faults.extra_delay(from, to);
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
        let mut queue = shard.queue.lock();
        // Targeted wakeup: the worker sleeps until its current head's due
        // time, so only an entry that becomes the new head can shorten
        // that deadline. Everything else lands silently.
        let new_head = queue
            .heap
            .peek()
            .is_none_or(|Reverse(head)| entry.key < head.key);
        queue.heap.push(Reverse(entry));
        drop(queue);
        if new_head && !self.shared.manual {
            self.shared.stats.record_wakeup();
            shard.wake.notify_one();
        }
    }

    /// Gets or creates the shard for `to`, spawning its delivery worker
    /// in threaded mode.
    fn shard_for(&self, to: NodeId) -> Arc<Shard<M>> {
        let shards = &self.shared.shards;
        if let Some(shard) = shards.read().get(&to) {
            return Arc::clone(shard);
        }
        let mut map = shards.write();
        if let Some(shard) = map.get(&to) {
            return Arc::clone(shard);
        }
        let shard = Arc::new(Shard::new());
        map.insert(to, Arc::clone(&shard));
        drop(map);
        if !self.shared.manual && !self.shared.shutdown.load(Ordering::Acquire) {
            let worker_shared = Arc::clone(&self.shared);
            let worker_shard = Arc::clone(&shard);
            #[expect(
                clippy::disallowed_methods,
                reason = "free-running delivery workers; manual delivery spawns none"
            )]
            let handle = std::thread::Builder::new()
                .name(format!("simnet-delivery-{}", to.0))
                .spawn(move || shard_delivery_loop(&worker_shared, &worker_shard))
                .expect("spawn shard delivery worker");
            self.shared.workers.lock().push(handle);
        }
        shard
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
    fn earliest_head(&self) -> Option<(HeapKey, Arc<Shard<M>>)> {
        self.shared
            .shards
            .read()
            .values()
            .filter_map(|shard| {
                let head = shard.queue.lock().heap.peek().map(|Reverse(entry)| entry.key);
                head.map(|key| (key, Arc::clone(shard)))
            })
            .min_by_key(|(key, _)| *key)
    }

    /// Delivers every queued message due at or before `now`, in
    /// deterministic `(due, enqueue-seq)` order, merged *across* shards.
    /// Returns how many were delivered. This is the manual-delivery
    /// engine tick; it is safe to call in threaded mode too (the delivery
    /// workers simply find less work).
    pub fn deliver_due(&self, now: Instant) -> usize {
        let mut delivered = 0;
        loop {
            let best = self.earliest_head().filter(|(key, _)| key.due <= now);
            let Some((key, shard)) = best else {
                return delivered;
            };
            let entry = {
                let mut queue = shard.queue.lock();
                match queue.heap.peek() {
                    // In threaded mode a worker may have raced us to this
                    // head; re-scan if it moved.
                    Some(Reverse(entry)) if entry.key == key => {
                        let Reverse(entry) = queue.heap.pop().expect("peeked");
                        entry
                    }
                    _ => continue,
                }
            };
            deliver_to(
                &self.shared,
                entry.to,
                Envelope {
                    from: entry.from,
                    msg: entry.payload.into_msg(),
                },
            );
            delivered += 1;
        }
    }

    /// Number of messages queued for future delivery.
    #[must_use]
    pub fn queued(&self) -> usize {
        self.shared.queued()
    }

    /// Stops the delivery workers, dropping any undelivered messages.
    ///
    /// Idempotent; called implicitly when the last handle is dropped.
    pub fn shutdown(&self) {
        signal_shutdown(&self.shared);
        let handles: Vec<JoinHandle<()>> = self.shared.workers.lock().drain(..).collect();
        for handle in handles {
            let _ = handle.join();
        }
    }
}

/// Sets every shutdown flag and wakes every worker (no joining).
#[expect(
    clippy::iter_over_hash_type,
    reason = "every shard is flagged and woken; the order is unobservable"
)]
fn signal_shutdown<M: Send + 'static>(shared: &Shared<M>) {
    shared.shutdown.store(true, Ordering::Release);
    for shard in shared.shards.read().values() {
        shard.queue.lock().shutdown = true;
        shard.wake.notify_all();
    }
}

impl<M: Send + 'static> Drop for SimNetwork<M> {
    fn drop(&mut self) {
        // Workers never hold the token, so a count of one means this is
        // the user's last clone: signal shutdown without joining
        // (C-DTOR-BLOCK) — the workers exit promptly on their own.
        if Arc::strong_count(&self.token) == 1 {
            signal_shutdown(&self.shared);
        }
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

/// One delivery worker's loop over one shard.
fn shard_delivery_loop<M: Send + Sync + Clone + 'static>(shared: &Shared<M>, shard: &Shard<M>) {
    let mut queue = shard.queue.lock();
    loop {
        if queue.shutdown {
            return;
        }
        let now = shared.clock.now();
        // Deliver everything due.
        while let Some(Reverse(head)) = queue.heap.peek() {
            if head.key.due > now {
                break;
            }
            let Reverse(entry) = queue.heap.pop().expect("peeked");
            // Deliver without holding the queue lock.
            parking_lot::MutexGuard::unlocked(&mut queue, || {
                deliver_to(
                    shared,
                    entry.to,
                    Envelope {
                        from: entry.from,
                        msg: entry.payload.into_msg(),
                    },
                );
            });
        }
        // Re-check before sleeping: `shutdown` may have been set (and its
        // notification sent) while the queue lock was released inside the
        // delivery pass above; the lock is then held from this check until
        // the wait parks, so the flag cannot be missed again.
        if queue.shutdown {
            return;
        }
        match queue.heap.peek() {
            Some(Reverse(head)) => {
                let wait = head.key.due.saturating_duration_since(shared.clock.now());
                let _ = shard.wake.wait_for(&mut queue, wait);
            }
            None => shard.wake.wait(&mut queue),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;

    fn lan(latency_us: u64) -> SimNetwork<u32> {
        NetworkBuilder::new()
            .topology(Topology::single_dc(Duration::from_micros(latency_us)))
            .seed(7)
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
    fn manual_mode_holds_messages_until_delivered() {
        let clock = Clock::simulated();
        let net: SimNetwork<u32> = NetworkBuilder::new()
            .topology(Topology::single_dc(Duration::from_micros(100)))
            .seed(1)
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
    /// triggers O(1) worker wakeups (only a new earliest-due head
    /// notifies).
    #[test]
    fn sharded_enqueues_per_wakeup_is_batched() {
        let burst = 100u32;
        // Messages 2..n land behind the head silently.
        let net = lan(50_000); // 50 ms: the whole burst enqueues while the worker sleeps
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
            .seed(3)
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
