//! The node runtime (DESIGN.md §17). This module alone decides which
//! node runs at an id: [`ids`] lists them in step order and [`boot`]
//! builds each one, an orderer, the paradigm's peer or the XOV client.
//! One drain-then-tick pass, [`step`], moves any [`Node`]: the threaded
//! runner loops it on the node's own thread ([`drive_threaded`], started
//! by [`spawn`]), and the deterministic scheduler in [`sim`](crate::sim)
//! calls it on every node in id order from its single thread.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parblock_consensus::{Pbft, QuorumSequencer};
use parblock_ledger::{Ledger, MvccState, Version};
use parblock_net::{Endpoint, Waker};
use parblock_store::DurabilityStats;
use parblock_types::{BlockNumber, Hash32, NodeId, SeqNo};

use crate::cluster::{ClusterSpec, ConsensusKind, SystemKind};
use crate::msg::Msg;
use crate::orderer::Orderer;
use crate::ox::OxPeer;
use crate::oxii::Executor;
use crate::shared::Shared;
use crate::xov::{XovClient, XovPeer};

/// What a node does, in the shape both drivers call.
pub(crate) trait Node {
    /// Reacts to one message from the mailbox.
    fn on_msg(&mut self, from: NodeId, msg: Msg);

    /// Does whatever is due at `now` (expired consensus timers, a batch
    /// flush, the time-cut marker, finished executions) and returns how
    /// many inputs from outside the mailbox it consumed: finished
    /// executions. A timer that fires is not one; what it sends arrives
    /// through a mailbox.
    fn tick(&mut self, _now: Instant) -> usize {
        0
    }

    /// The earliest armed instant **strictly after** `now`, the `now` of
    /// the preceding [`Node::tick`]. Anything at or before it was
    /// serviced by that tick or waits on another event; reporting it
    /// would turn the driver's wait into a spin.
    fn next_deadline(&self, _now: Instant) -> Option<Instant> {
        None
    }

    /// The peer this node is, if it is one.
    fn as_peer(&self) -> Option<&dyn Peer> {
        None
    }

    /// An orderer's chain position: the next block number it would emit
    /// and the hash of the last one it emitted (genesis before any).
    fn chain_position(&self) -> Option<(BlockNumber, Hash32)> {
        None
    }

    /// How many sequencer catch-ups an orderer resumed from since it
    /// started (DESIGN.md §9).
    fn catch_ups(&self) -> u64 {
        0
    }

    /// The simulator restarted this node: an orderer asks its consensus
    /// replicas for the deliveries it missed (DESIGN.md §9).
    fn rejoin(&mut self) {}
}

/// The ids a cluster of `spec` runs a node at, in step order: the
/// orderers, then the peers, then, under XOV, the client node. They are
/// `0..n`, so a table of nodes can be indexed by id.
pub(crate) fn ids(spec: &ClusterSpec) -> impl Iterator<Item = NodeId> {
    let client = (spec.system == SystemKind::Xov).then(|| spec.client_node());
    spec.orderer_ids().into_iter().chain(spec.peer_ids()).chain(client)
}

/// Builds the node at `endpoint`'s id, one of [`ids`]: an orderer
/// hosting the protocol of `shared.spec.consensus`, the peer of
/// `shared.spec.system`, or the XOV client at `client_node()`. Both
/// clocks construct every node here, and the simulator again at each
/// restart.
pub(crate) fn boot(shared: Arc<Shared>, endpoint: Endpoint<Msg>) -> Box<dyn Node> {
    let id = endpoint.id();
    if (id.0 as usize) < shared.spec.orderers {
        return match shared.spec.consensus {
            ConsensusKind::Sequencer => Box::new(Orderer::<QuorumSequencer>::new(shared, endpoint)),
            ConsensusKind::Pbft => Box::new(Orderer::<Pbft>::new(shared, endpoint)),
        };
    }
    if id == shared.spec.client_node() {
        return Box::new(XovClient::new(shared, endpoint));
    }
    match shared.spec.system {
        SystemKind::Ox => Box::new(OxPeer::new(shared, endpoint)),
        SystemKind::Xov => Box::new(XovPeer::new(shared, endpoint)),
        SystemKind::Oxii => Box::new(Executor::new(shared, endpoint)),
    }
}

/// How many messages one threaded pass handles before it ticks. A node
/// that is behind still services its deadlines (consensus timers, the
/// time-cut marker, the partial-batch flush) and surfaces finished
/// executions every this many messages, not once the backlog is gone.
const DRAIN_RUN: usize = 256;

/// One pass of a node on either clock: handle up to `run` queued
/// messages (none once the cluster is stopping), then tick at the
/// clock's now. Returns what the pass handled, messages plus what the
/// tick consumed, and that now.
pub(crate) fn step<N>(
    node: &mut N,
    mailbox: &Endpoint<Msg>,
    shared: &Shared,
    run: usize,
) -> (usize, Instant)
where
    N: Node + ?Sized,
{
    // Checked per message: a backlog is not served after a stop.
    let mut handled = 0;
    while handled < run && !shared.stop.load(Ordering::Relaxed) {
        let Some(envelope) = mailbox.try_recv() else {
            break;
        };
        node.on_msg(envelope.from, envelope.msg);
        handled += 1;
    }
    let now = shared.clock.now();
    (handled + node.tick(now), now)
}

/// The one threaded node loop: [`step`] over at most [`DRAIN_RUN`]
/// messages, and if it found nothing block until a message arrives, a
/// [`Waker`] of `mailbox` is raised (the cluster is stopping) or the
/// next deadline passes. With none of those the thread sleeps.
pub(crate) fn drive_threaded<N>(node: &mut N, mailbox: &Endpoint<Msg>, shared: &Shared)
where
    N: Node + ?Sized,
{
    // Whoever sets `stop` raises the waker afterwards; the mailbox lock
    // that wake and wait both take orders the store before this load.
    while !shared.stop.load(Ordering::Relaxed) {
        let (work, now) = step(node, mailbox, shared, DRAIN_RUN);
        if work == 0 {
            mailbox.wait_until(node.next_deadline(now));
        }
    }
}

/// Spawns the thread of the node at `endpoint`'s id: [`boot`] constructs
/// it there (store recovery runs beside the other nodes'), then
/// [`drive_threaded`] runs it until the stop flag is set and the
/// returned waker raised. The observer's thread hands back its summary
/// of the run, every other thread `None`, and each drops its node where
/// it lived.
pub(crate) fn spawn(
    shared: Arc<Shared>,
    endpoint: Endpoint<Msg>,
) -> (JoinHandle<Option<PeerSummary>>, Waker<Msg>) {
    let waker = endpoint.waker();
    #[expect(
        clippy::disallowed_methods,
        reason = "node threads are the threaded runner's execution model; \
                  the deterministic harness uses the sim scheduler"
    )]
    let handle = std::thread::Builder::new()
        .name(format!("node-{}", endpoint.id()))
        .spawn(move || {
            let mut node = boot(Arc::clone(&shared), endpoint.clone());
            drive_threaded(&mut *node, &endpoint, &shared);
            let observer = endpoint.id() == shared.spec.observer();
            node.as_peer().filter(|_| observer).map(Peer::summary)
        })
        .expect("spawn node thread");
    (handle, waker)
}

/// A peer of whichever paradigm the cluster runs, as the end-of-run
/// summary and the simulator's oracles read it.
pub(crate) trait Peer: Node {
    /// The sealed ledger and the state, for the simulator's oracles.
    fn chain(&self) -> (&Ledger, &MvccState);

    /// The peer's own account of the run so far (DESIGN.md §17). The
    /// report reads the observer's once, when the run ends.
    fn summary(&self) -> PeerSummary;
}

/// What a peer counted itself over one run: its chain position and, for
/// an OXII executor, its durability counters and pipeline gauges.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct PeerSummary {
    /// Blocks sealed since the node started (a recovered prefix is not
    /// counted, so an idle restart reports 0).
    pub blocks: u64,
    /// The ledger head; `None` when no block was sealed since the start.
    pub ledger_head: Option<Hash32>,
    /// The state digest at the sealed watermark, under
    /// `ClusterSpec::capture_state` and once a block was sealed.
    pub state_digest: Option<Hash32>,
    /// WAL bytes, fsyncs, checkpoints and replay length (all zero in
    /// memory).
    pub durability: DurabilityStats,
    /// `pipeline_occupancy[d]` counts block starts with `d` blocks in
    /// flight, the started one included; index 0 unused.
    pub pipeline_occupancy: Vec<u64>,
    /// Time the next block sat ready while the pipeline was full, summed
    /// in whole microseconds per stall.
    pub boundary_stall: Duration,
    /// How many stalls make up `boundary_stall`.
    pub boundary_stalls: u64,
}

impl PeerSummary {
    /// The chain half of a summary: what `ledger` sealed above
    /// `start_height`, and `state` at its watermark when `capture_state`.
    pub(crate) fn sealed(
        ledger: &Ledger,
        state: &MvccState,
        start_height: usize,
        capture_state: bool,
    ) -> Self {
        let blocks = (ledger.height() - start_height) as u64;
        let sealed = blocks > 0;
        PeerSummary {
            blocks,
            ledger_head: sealed.then(|| ledger.head_hash()),
            state_digest: (sealed && capture_state).then(|| watermark_digest(ledger, state)),
            ..PeerSummary::default()
        }
    }
}

/// The digest of `state` at `ledger`'s commit watermark: writes of blocks
/// still in flight are excluded, so replicas at one height compare equal
/// whatever they have applied above it.
pub(crate) fn watermark_digest(ledger: &Ledger, state: &MvccState) -> Hash32 {
    let height = ledger.height() as u64;
    state.digest_at(Version::new(BlockNumber(height), SeqNo(u32::MAX)))
}

#[cfg(test)]
pub(crate) mod tests {
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;
    use std::sync::Mutex;
    use std::time::Duration;

    use parblock_net::NetworkBuilder;
    use parblock_types::{AppId, ClientId, RwSet, Transaction};

    use super::*;

    /// Counts the driver's `tick` calls around any node.
    pub(crate) struct Counted<N> {
        inner: N,
        ticks: Arc<AtomicUsize>,
    }

    impl<N: Node> Node for Counted<N> {
        fn on_msg(&mut self, from: NodeId, msg: Msg) {
            self.inner.on_msg(from, msg);
        }
        fn tick(&mut self, now: Instant) -> usize {
            self.ticks.fetch_add(1, Ordering::SeqCst);
            self.inner.tick(now)
        }
        fn next_deadline(&self, now: Instant) -> Option<Instant> {
            self.inner.next_deadline(now)
        }
    }

    /// A node under [`drive_threaded`] on a thread of its own.
    pub(crate) struct Driven {
        shared: Arc<Shared>,
        pub(crate) waker: Waker<Msg>,
        ticks: Arc<AtomicUsize>,
        handle: JoinHandle<()>,
    }

    impl Driven {
        pub(crate) fn start<N: Node + Send + 'static>(
            shared: Arc<Shared>,
            mailbox: Endpoint<Msg>,
            node: N,
        ) -> Self {
            let ticks = Arc::new(AtomicUsize::new(0));
            let waker = mailbox.waker();
            let mut node = Counted {
                inner: node,
                ticks: Arc::clone(&ticks),
            };
            let handle = {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || drive_threaded(&mut node, &mailbox, &shared))
            };
            Driven {
                shared,
                waker,
                ticks,
                handle,
            }
        }

        fn idle<N: Node + Send + 'static>(node: N) -> Self {
            let shared = Shared::new(ClusterSpec::new(SystemKind::Oxii));
            let mailbox = NetworkBuilder::new().build::<Msg>().endpoint(NodeId(0));
            Self::start(shared, mailbox, node)
        }

        /// Stops the node the way `Cluster::finish` does and returns how
        /// many times it ticked.
        pub(crate) fn stop(self) -> usize {
            self.shared.stop.store(true, Ordering::Relaxed);
            self.waker.wake();
            self.handle.join().expect("node thread");
            self.ticks.load(Ordering::SeqCst)
        }
    }

    /// Reports the `now` of every tick; nothing is ever due.
    struct Idle(mpsc::Sender<Instant>);

    impl Node for Idle {
        fn on_msg(&mut self, _from: NodeId, _msg: Msg) {}
        fn tick(&mut self, now: Instant) -> usize {
            let _ = self.0.send(now);
            0
        }
    }

    #[test]
    fn an_idle_node_is_not_woken_periodically() {
        let (ticked, ticks) = mpsc::channel();
        let driven = Driven::idle(Idle(ticked));
        ticks.recv().expect("first pass");
        std::thread::sleep(Duration::from_millis(100));
        assert!(
            driven.stop() <= 2,
            "only the first pass and the stop may tick"
        );
    }

    #[test]
    fn stop_ends_an_idle_wait_at_once() {
        let (ticked, ticks) = mpsc::channel();
        let driven = Driven::idle(Idle(ticked));
        ticks.recv().expect("first pass: the node blocks next");
        let asked = Instant::now();
        driven.stop();
        assert!(asked.elapsed() < Duration::from_millis(50));
    }

    /// One alarm, reported with the `now` of the tick that fired it.
    struct Alarm {
        at: Option<Instant>,
        fired: mpsc::Sender<Instant>,
    }

    impl Node for Alarm {
        fn on_msg(&mut self, _from: NodeId, _msg: Msg) {}
        fn tick(&mut self, now: Instant) -> usize {
            if self.at.is_some_and(|at| at <= now) {
                self.at = None;
                let _ = self.fired.send(now);
            }
            0
        }
        fn next_deadline(&self, now: Instant) -> Option<Instant> {
            self.at.filter(|&at| at > now)
        }
    }

    #[test]
    fn a_deadline_fires_one_tick_and_not_early() {
        let (fired, fires) = mpsc::channel();
        let at = Instant::now() + Duration::from_millis(20);
        let driven = Driven::idle(Alarm {
            at: Some(at),
            fired,
        });
        let fired_at = fires
            .recv_timeout(Duration::from_secs(10))
            .expect("the alarm fires");
        assert!(fired_at >= at);
        assert_eq!(driven.stop(), 2, "the first pass, then the deadline");
    }

    /// Records the order of what it handles and the length of each run
    /// of `on_msg` calls that a `tick` ended.
    struct Backlogged {
        handled: Vec<u64>,
        run: usize,
        runs: Vec<usize>,
        want: usize,
        done: mpsc::Sender<(Vec<u64>, Vec<usize>)>,
    }

    impl Node for Backlogged {
        fn on_msg(&mut self, _from: NodeId, msg: Msg) {
            let Msg::EndorseReq { tx, .. } = msg else {
                panic!("only requests were queued");
            };
            self.handled.push(tx.id().client_ts);
            self.run += 1;
        }
        fn tick(&mut self, _now: Instant) -> usize {
            self.runs.push(std::mem::take(&mut self.run));
            if self.handled.len() == self.want {
                let report = (std::mem::take(&mut self.handled), self.runs.clone());
                let _ = self.done.send(report);
            }
            0
        }
    }

    #[test]
    fn a_backlog_does_not_starve_tick() {
        const QUEUED: u64 = 5_000;
        let shared = Shared::new(ClusterSpec::new(SystemKind::Oxii));
        let net = NetworkBuilder::new().manual_delivery().build::<Msg>();
        let mailbox = net.endpoint(NodeId(0));
        let sender = net.endpoint(NodeId(1));
        for ts in 0..QUEUED {
            let tx = Transaction::new(AppId(0), ClientId(1), ts, RwSet::default(), vec![]);
            let sig = parblock_crypto::Signature([0; 32]);
            sender.send(NodeId(0), Msg::EndorseReq { tx, sig });
        }
        // Everything is in the mailbox before the node's first pass.
        let all_due = shared.clock.now() + Duration::from_secs(1);
        assert_eq!(net.deliver_due(all_due), QUEUED as usize);
        let (done, reports) = mpsc::channel();
        let driven = Driven::start(
            shared,
            mailbox,
            Backlogged {
                handled: Vec::new(),
                run: 0,
                runs: Vec::new(),
                want: QUEUED as usize,
                done,
            },
        );
        let (handled, runs) = reports
            .recv_timeout(Duration::from_secs(60))
            .expect("the backlog is worked off");
        driven.stop();
        assert_eq!(handled, (0..QUEUED).collect::<Vec<_>>(), "in order, once");
        let longest = runs.iter().copied().max().expect("it ticked");
        assert_eq!(longest, DRAIN_RUN, "a full run, then a tick");
        assert!(runs.len() >= QUEUED as usize / DRAIN_RUN);
    }

    /// Consumes a queue another thread fills beside the mailbox, raising
    /// the mailbox's waker after each push.
    struct Sink {
        queue: Arc<Mutex<Vec<u32>>>,
        seen: Vec<u32>,
        want: usize,
        done: mpsc::Sender<Vec<u32>>,
    }

    impl Node for Sink {
        fn on_msg(&mut self, _from: NodeId, _msg: Msg) {}
        fn tick(&mut self, _now: Instant) -> usize {
            let items = std::mem::take(&mut *self.queue.lock().expect("queue"));
            self.seen.extend(&items);
            if self.seen.len() == self.want {
                let _ = self.done.send(std::mem::take(&mut self.seen));
            }
            items.len()
        }
    }

    #[test]
    fn push_then_wake_is_never_lost() {
        const ITEMS: u32 = 10_000;
        let queue = Arc::new(Mutex::new(Vec::new()));
        let (done, all_seen) = mpsc::channel();
        let driven = Driven::idle(Sink {
            queue: Arc::clone(&queue),
            seen: Vec::new(),
            want: ITEMS as usize,
            done,
        });
        let waker = driven.waker.clone();
        let producer = std::thread::spawn(move || {
            for item in 0..ITEMS {
                queue.lock().expect("queue").push(item);
                waker.wake();
                if item % 64 == 0 {
                    std::thread::yield_now();
                }
            }
        });
        // No deadline is armed, so only wakes end the consumer's waits:
        // one lost wake leaves it blocked with items queued.
        let seen = all_seen
            .recv_timeout(Duration::from_secs(60))
            .expect("a wake was lost: the consumer is blocked with items queued");
        assert_eq!(seen, (0..ITEMS).collect::<Vec<_>>());
        producer.join().expect("producer");
        driven.stop();
    }
}
