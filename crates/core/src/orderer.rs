//! The orderer node: consensus hosting, request admission, block cutting,
//! dependency-graph generation and NEWBLOCK multicast (§III-A, §IV-B).
//!
//! One implementation serves all three systems: OXII orderers attach a
//! dependency graph to each block; OX and XOV orderers do not. Graph
//! generation happens *inside the cutter* as transactions stream in
//! (see [`BlockCutter::with_graph`]), so `emit_block` receives block and
//! graph together and the ordering critical path between a cut and the
//! `NEWBLOCK` multicast no longer pays a batch graph rebuild.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parblock_consensus::{Action, OrderingProtocol};
use parblock_crypto::hash_wire;
use parblock_ledger::Ledger;
use parblock_net::Endpoint;
use parblock_types::{Block, BlockNumber, Hash32, NodeId, Transaction, TxId};

use crate::batch::{OpenBatch, Payload};
use crate::cutter::{BlockCutter, CutBlock};
use crate::hostcons::{AnyConsensus, TimerTable};
use crate::msg::{BlockBundle, ConsMsg, Msg};
use crate::node::Node;
use crate::shared::Shared;

/// How long a batch short of `batch_max` waits for this orderer's own
/// batches in flight before it is ordered anyway: the fallback for an
/// instance that is lost. A delivered instance ends the wait sooner.
const BATCH_INTERVAL: Duration = Duration::from_millis(1);

pub(crate) struct Orderer {
    shared: Arc<Shared>,
    endpoint: Endpoint<Msg>,
    protocol: AnyConsensus,
    cutter: BlockCutter,
    timers: TimerTable,
    batch: OpenBatch,
    last_flush: Instant,
    /// The first transaction of each batch this orderer submitted that
    /// has not been delivered yet. Empty means consensus is idle for
    /// this orderer, and a partial batch is ordered at once.
    in_flight: Vec<TxId>,
    marker_sent: Option<Instant>,
    seen: HashSet<TxId>,
    prev_hash: Hash32,
    next_number: BlockNumber,
    dests: Vec<NodeId>,
    /// Orderers own the chain (§III-A): under on-disk durability every
    /// emitted block is sealed here *before* the NEWBLOCK multicast, and
    /// a restarted orderer recovers its chain position — and the
    /// exactly-once dedup set, from the persisted blocks — instead of
    /// renumbering from 1.
    store: Option<parblock_store::Store>,
}

impl Orderer {
    pub(crate) fn new(
        shared: Arc<Shared>,
        endpoint: Endpoint<Msg>,
        protocol: AnyConsensus,
    ) -> Self {
        let cutter = match shared.spec.graph_mode() {
            None => BlockCutter::new(shared.spec.block_cut.clone()),
            Some(mode) => BlockCutter::with_graph(shared.spec.block_cut.clone(), mode),
        };
        let dests = shared.spec.peer_ids();
        let mut seen = HashSet::new();
        let mut prev_hash = Ledger::genesis_hash();
        let mut next_number = BlockNumber(1);
        let store = match crate::durability::open_orderer_store(&shared.spec, endpoint.id()) {
            None => None,
            Some((store, recovered)) => {
                for (block, _) in &recovered.chain {
                    seen.extend(block.transactions().iter().map(Transaction::id));
                }
                prev_hash = recovered.head;
                next_number = BlockNumber(recovered.watermark.0 + 1);
                Some(store)
            }
        };
        let now = shared.clock.now();
        Orderer {
            shared,
            endpoint,
            protocol,
            cutter,
            timers: TimerTable::new(),
            batch: OpenBatch::new(),
            last_flush: now,
            in_flight: Vec::new(),
            marker_sent: None,
            seen,
            prev_hash,
            next_number,
            dests,
            store,
        }
    }

    /// The orderer's chain position: next block number to emit and the
    /// hash of the last emitted block. The simulation's orderer-
    /// convergence oracle compares these across replicas.
    pub(crate) fn chain_position(&self) -> (BlockNumber, Hash32) {
        (self.next_number, self.prev_hash)
    }

    fn apply(&mut self, actions: Vec<Action<ConsMsg>>) {
        self.timers.absorb(&actions, self.shared.clock.now());
        for action in actions {
            match action {
                Action::Send { to, msg } => self.endpoint.send(to, Msg::Cons(msg)),
                Action::Broadcast { msg } => {
                    let peers = self.shared.spec.orderer_ids();
                    self.endpoint.multicast(peers.iter(), &Msg::Cons(msg));
                }
                Action::Deliver { payload, .. } => self.on_delivery(&payload),
                Action::SetTimer { .. } | Action::CancelTimer { .. } => {}
            }
        }
    }

    /// Every orderer replays the same delivered stream, so lifecycle
    /// stages are stamped once, at the entry orderer, instead of racing
    /// three first-record-wins writes per transaction.
    fn traces_stages(&self) -> bool {
        self.shared.trace.enabled() && self.endpoint.id() == self.shared.spec.entry_orderer()
    }

    fn on_delivery(&mut self, payload: &[u8]) {
        let traces = self.traces_stages();
        match Payload::decode(payload) {
            Some(Payload::Batch(txs)) => {
                let first = txs.first().map(Transaction::id);
                let ours = self.in_flight.iter().position(|&id| Some(id) == first);
                for tx in txs {
                    // Exactly-once: client timestamps deduplicate
                    // deterministic re-proposals after view changes.
                    if !self.seen.insert(tx.id()) {
                        continue;
                    }
                    let now = self.shared.clock.now();
                    if traces {
                        self.shared
                            .trace
                            .record_at(tx.id(), parblock_trace::Stage::Sequenced, now);
                    }
                    if let Some(full) = self.cutter.push(tx, now) {
                        self.emit_block(full);
                    }
                }
                // The delivery that empties this orderer's pipeline
                // orders what gathered while it was in flight.
                if let Some(ours) = ours {
                    self.in_flight.remove(ours);
                    if self.in_flight.is_empty() && !self.batch.is_empty() {
                        self.flush_batch(self.shared.clock.now());
                    }
                }
            }
            Some(Payload::CutMarker { first_pending }) => {
                self.marker_sent = None;
                if let Some(full) = self.cutter.cut_marker(first_pending) {
                    self.emit_block(full);
                }
            }
            None => { /* malformed payload from a faulty orderer: skip */ }
        }
    }

    /// Announces one cut block. The dependency graph arrives ready-made
    /// from the cutter — nothing here grows with the square of the block
    /// size, so consensus delivery of the next block is never stalled
    /// behind graph generation.
    fn emit_block(&mut self, cut: CutBlock) {
        let CutBlock { txs, graph } = cut;
        if self.traces_stages() {
            let now = self.shared.clock.now();
            for tx in &txs {
                self.shared
                    .trace
                    .record_at(tx.id(), parblock_trace::Stage::Cut, now);
            }
        }
        let block = Block::new(self.next_number, self.prev_hash, txs);
        let hash = hash_wire(&block);
        // Persist before announcing: a NEWBLOCK must never reference a
        // block this orderer could forget in a crash (DESIGN.md §9).
        if let Some(store) = &mut self.store {
            store
                .seal_block(&block, graph.as_ref(), hash)
                .expect("orderer block persist failed");
        }
        let bundle = Arc::new(BlockBundle {
            block: Arc::new(block),
            graph,
            hash,
        });
        let signer = self.shared.spec.node_signer(self.endpoint.id());
        let sig = self.shared.keys.sign(signer, &hash.0);
        let msg = Msg::NewBlock {
            bundle,
            orderer: self.endpoint.id(),
            sig,
        };
        self.endpoint.multicast(self.dests.iter(), &msg);
        self.prev_hash = hash;
        self.next_number = self.next_number.next();
    }

    /// Orders the open batch. A batch closes as soon as consensus is
    /// idle for this orderer: a request that finds none of its batches
    /// in flight is ordered at once (in `on_msg`), and the delivery that
    /// empties the pipeline orders what gathered meanwhile (in
    /// `on_delivery`). Under a backlog, `batch_max` caps a batch: the
    /// request that fills it closes it. `BATCH_INTERVAL` after the last
    /// flush, a partial batch stops waiting for an instance that may be
    /// lost (in `tick`).
    fn flush_batch(&mut self, now: Instant) {
        let Some(first) = self.batch.first() else {
            return;
        };
        self.in_flight.push(first);
        self.last_flush = now;
        let actions = self.protocol.submit(self.batch.freeze());
        self.apply(actions);
    }

    /// §IV-B: the time-based cut condition is made deterministic by the
    /// leader ordering an explicit cut-block marker. The marker carries
    /// the oldest pending transaction's id so that, if a count/byte cut
    /// overtakes it in the ordered stream, every cutter recognises it as
    /// stale instead of prematurely cutting the next block.
    fn order_time_cut_if_due(&mut self, now: Instant) {
        if !self.protocol.is_leader() || !self.cutter.wants_time_cut(now) {
            return;
        }
        let Some(first_pending) = self.cutter.first_pending() else {
            return;
        };
        // `>=` so the resend fires exactly at the instant `next_deadline`
        // advertises (`sent + max_wait`) — the deterministic scheduler
        // advances the clock to precisely that deadline.
        let resend_due = self.marker_sent.is_none_or(|at| {
            now.saturating_duration_since(at) >= self.shared.spec.block_cut.max_wait
        });
        if resend_due {
            self.marker_sent = Some(now);
            let actions = self
                .protocol
                .submit(Payload::CutMarker { first_pending }.encode().into());
            self.apply(actions);
        }
    }
}

impl Node for Orderer {
    fn on_msg(&mut self, from: NodeId, msg: Msg) {
        match msg {
            Msg::Request { tx, sig } => {
                // §III-A: orderers check signatures and access rights and
                // simply discard invalid requests.
                let signer = self.shared.spec.client_signer(tx.client());
                let (keys, registry) = (&self.shared.keys, &self.shared.registry);
                let admitted = self.batch.push(&tx, |signed| {
                    keys.verify(signer, signed, &sig)
                        && registry.check_access(tx.client(), tx.app()).is_ok()
                });
                let full = self.batch.len() >= self.shared.spec.batch_max;
                if admitted && (full || self.in_flight.is_empty()) {
                    self.flush_batch(self.shared.clock.now());
                }
            }
            Msg::Cons(m) => {
                let actions = self.protocol.on_message(from, m);
                self.apply(actions);
            }
            // Orderers "do not have access to any smart contract or the
            // application state" (§III-A): everything else is not theirs.
            _ => {}
        }
    }

    /// One housekeeping pass: expired protocol timers, batch flushing,
    /// the leader's time-cut marker. Consumes no outside input: 0.
    fn tick(&mut self, now: Instant) -> usize {
        for timer in self.timers.take_expired(now) {
            let actions = self.protocol.on_timer(timer);
            self.apply(actions);
        }
        let waited = now.saturating_duration_since(self.last_flush);
        if !self.batch.is_empty() && waited >= BATCH_INTERVAL {
            // A partial batch waits only while a batch is in flight, and
            // every one of those was submitted `BATCH_INTERVAL` ago or
            // earlier: stop waiting for any of them.
            self.in_flight.clear();
            self.flush_batch(now);
        }
        self.order_time_cut_if_due(now);
        0
    }

    /// The earliest *time-driven* work after `now`: a consensus timer, a
    /// partial batch's fallback flush, or (as leader) the cutter's
    /// time-cut deadline or the marker's resend. Each candidate is
    /// filtered on its own: the cut deadline stays in the past for as
    /// long as its marker is in flight, and would otherwise hide the
    /// resend behind it.
    fn next_deadline(&self, now: Instant) -> Option<Instant> {
        let leader = self.protocol.is_leader();
        let flush = (!self.batch.is_empty()).then(|| self.last_flush + BATCH_INTERVAL);
        let cut = self.cutter.time_cut_deadline().filter(|_| leader);
        let pending = self.cutter.first_pending().filter(|_| leader);
        let resend = pending.and(self.marker_sent);
        let resend = resend.map(|sent| sent + self.shared.spec.block_cut.max_wait);
        let candidates = [self.timers.next_deadline(), flush, cut, resend];
        candidates
            .into_iter()
            .flatten()
            .filter(|&due| due > now)
            .min()
    }
}

#[cfg(test)]
mod tests {
    use parblock_consensus::SeqMsg;
    use parblock_net::NetworkBuilder;
    use parblock_types::wire::Wire;
    use parblock_types::{AppId, ClientId, Clock, RwSet};

    use super::*;
    use crate::cluster::{ClusterSpec, SystemKind};
    use crate::node::tests::Driven;
    use crate::sim::build_protocol;

    /// The entry orderer alone on a manual network under a simulated
    /// clock, with one follower's mailbox to read what it broadcasts.
    struct Entry {
        shared: Arc<Shared>,
        net: parblock_net::SimNetwork<Msg>,
        orderer: Orderer,
        follower: Endpoint<Msg>,
    }

    impl Entry {
        fn new() -> Self {
            let spec = ClusterSpec::new(SystemKind::Oxii);
            let shared = Shared::with_clock(spec, Clock::simulated());
            let net = shared
                .spec
                .network_builder()
                .clock(shared.clock.clone())
                .manual_delivery()
                .build::<Msg>();
            let ids = shared.spec.orderer_ids();
            let orderer = Orderer::new(
                Arc::clone(&shared),
                net.endpoint(ids[0]),
                build_protocol(&shared.spec, ids[0]),
            );
            assert!(orderer.protocol.is_leader());
            let follower = net.endpoint(ids[1]);
            Entry {
                shared,
                net,
                orderer,
                follower,
            }
        }

        fn sign(&self, tx: &Transaction) -> parblock_crypto::Signature {
            let signer = self.shared.spec.client_signer(tx.client());
            self.shared.keys.sign(signer, &tx.wire_bytes())
        }

        fn request(&self, app: AppId, ts: u64) -> (Transaction, Msg) {
            let tx = Transaction::new(app, ClientId(1), ts, RwSet::default(), vec![7; 16]);
            let sig = self.sign(&tx);
            (tx.clone(), Msg::Request { tx, sig })
        }

        /// The payloads appended since the last call, in offset order.
        fn appended(&self) -> Vec<Arc<[u8]>> {
            let all_due = self.shared.clock.now() + Duration::from_secs(1);
            self.net.deliver_due(all_due);
            let mut payloads = Vec::new();
            while let Some(envelope) = self.follower.try_recv() {
                if let Msg::Cons(ConsMsg::Seq(SeqMsg::Append { payload, .. })) = envelope.msg {
                    payloads.push(payload);
                }
            }
            payloads
        }
    }

    /// A request that finds none of this orderer's batches in flight is
    /// ordered at once, alone: it waits for neither `batch_max` nor
    /// `BATCH_INTERVAL`.
    #[test]
    fn a_request_to_an_idle_orderer_is_ordered_at_once() {
        let mut entry = Entry::new();
        let (tx, request) = entry.request(AppId(0), 1);
        entry.orderer.on_msg(NodeId(100), request);
        let payloads = entry.appended();
        assert_eq!(payloads.len(), 1);
        assert_eq!(&*payloads[0], Payload::Batch(vec![tx]).encode());
        assert!(entry.orderer.batch.is_empty());
    }

    /// `batch_max` is a cap: a backlog that arrives while a batch is in
    /// flight is ordered as full batches, each the canonical encoding of
    /// its transactions, and the remainder waits until the delivery that
    /// empties the pipeline orders it.
    #[test]
    fn a_backlog_is_ordered_in_batches_of_at_most_batch_max() {
        let mut entry = Entry::new();
        let batch_max = entry.shared.spec.batch_max;
        let mut sent = Vec::new();
        for ts in 0..(10 * batch_max + 3) as u64 {
            let (tx, request) = entry.request(AppId(0), ts);
            entry.orderer.on_msg(NodeId(100), request);
            sent.push(tx);
        }
        let ordered = entry.appended();
        assert_eq!(ordered.len(), 11);
        let first = Payload::Batch(sent[..1].to_vec());
        assert_eq!(&*ordered[0], first.encode(), "the idle orderer's first");
        let full = sent[1..].chunks_exact(batch_max);
        let left_over = Payload::Batch(full.remainder().to_vec());
        for (payload, txs) in ordered[1..].iter().zip(full) {
            assert_eq!(
                Payload::decode(payload),
                Some(Payload::Batch(txs.to_vec())),
                "exactly batch_max transactions, in arrival order"
            );
            assert_eq!(&**payload, Payload::Batch(txs.to_vec()).encode());
        }

        let (last, rest) = ordered.split_last().expect("eleven");
        for payload in rest {
            entry.orderer.on_delivery(payload);
            assert!(entry.appended().is_empty(), "a batch is still in flight");
        }
        entry.orderer.on_delivery(last);
        let rest = entry.appended();
        assert_eq!(rest.len(), 1, "the delivery that empties the pipeline");
        assert_eq!(&*rest[0], left_over.encode());
    }

    /// A batch waits for this orderer's batch in flight only up to
    /// `BATCH_INTERVAL` after it was submitted: an instance that never
    /// delivers does not hold the next one back for longer.
    #[test]
    fn a_batch_whose_instance_never_delivers_is_ordered_after_batch_interval() {
        let mut entry = Entry::new();
        let (first, request) = entry.request(AppId(0), 1);
        entry.orderer.on_msg(NodeId(100), request);
        let submitted = entry.shared.clock.now();
        assert_eq!(entry.appended().len(), 1, "ordered at once");

        let (second, request) = entry.request(AppId(0), 2);
        entry.shared.clock.advance(BATCH_INTERVAL / 2);
        entry.orderer.on_msg(NodeId(100), request);
        assert!(entry.appended().is_empty(), "the first is in flight");
        let now = entry.shared.clock.now();
        let due = entry.orderer.next_deadline(now);
        assert_eq!(due, Some(submitted + BATCH_INTERVAL));

        let almost = BATCH_INTERVAL / 2 - Duration::from_nanos(1);
        entry.shared.clock.advance(almost);
        entry.orderer.tick(entry.shared.clock.now());
        assert!(entry.appended().is_empty(), "not yet due");
        entry.shared.clock.advance(Duration::from_nanos(1));
        entry.orderer.tick(entry.shared.clock.now());
        let payloads = entry.appended();
        assert_eq!(payloads.len(), 1);
        assert_eq!(&*payloads[0], Payload::Batch(vec![second]).encode());

        // The lost instance is no longer waited for, and a late delivery
        // of it is harmless.
        assert_eq!(entry.orderer.in_flight.len(), 1);
        entry
            .orderer
            .on_delivery(&Payload::Batch(vec![first]).encode());
        assert_eq!(entry.orderer.in_flight.len(), 1);
    }

    /// A refused request (bad signature, no access to the application)
    /// leaves no byte in the open batch.
    #[test]
    fn refused_requests_leave_nothing_in_the_payload() {
        let mut entry = Entry::new();
        // A batch in flight, so the requests below gather in one batch.
        let (_, busy) = entry.request(AppId(0), 0);
        entry.orderer.on_msg(NodeId(100), busy);
        assert_eq!(entry.appended().len(), 1);
        let (first, valid_first) = entry.request(AppId(0), 1);
        let (other, _) = entry.request(AppId(0), 2);
        let (forged, _) = entry.request(AppId(0), 3);
        let bad_signature = Msg::Request {
            sig: entry.sign(&other),
            tx: forged,
        };
        let undeployed = AppId(entry.shared.spec.apps as u16);
        let (_, no_access) = entry.request(undeployed, 4);
        let (last, valid_last) = entry.request(AppId(0), 5);
        for request in [valid_first, bad_signature, no_access, valid_last] {
            entry.orderer.on_msg(NodeId(100), request);
        }
        assert!(entry.appended().is_empty(), "a partial batch waits");
        entry.shared.clock.advance(BATCH_INTERVAL);
        entry.orderer.tick(entry.shared.clock.now());
        let payloads = entry.appended();
        assert_eq!(payloads.len(), 1);
        let admitted = Payload::Batch(vec![first, last]);
        assert_eq!(&*payloads[0], admitted.encode());
        assert_eq!(Payload::decode(&payloads[0]), Some(admitted));
    }

    /// A leader with a pending transaction whose cut marker is in flight
    /// (its followers never answer) has a cut deadline in the past for
    /// as long as that lasts. The deadline it reports is the marker's
    /// resend, and the loop sleeps to it: taking the minimum first and
    /// comparing with `now` afterwards would wait zero, every time.
    #[test]
    fn a_cut_deadline_in_the_past_blocks_until_the_marker_resend() {
        let max_wait = Duration::from_millis(20);
        let mut spec = ClusterSpec::new(SystemKind::Oxii);
        spec.block_cut.max_wait = max_wait;
        let shared = Shared::new(spec);
        let leader = shared.spec.entry_orderer();
        let mailbox = NetworkBuilder::new().build::<Msg>().endpoint(leader);
        let mut orderer = Orderer::new(
            Arc::clone(&shared),
            mailbox.clone(),
            build_protocol(&shared.spec, leader),
        );
        assert!(orderer.protocol.is_leader());

        let arrived = shared.clock.now();
        let tx = Transaction::new(AppId(0), ClientId(1), 0, RwSet::default(), vec![]);
        assert!(orderer.cutter.push(tx, arrived).is_none());
        let now = arrived + max_wait;
        assert_eq!(orderer.tick(now), 0);
        assert_eq!(
            orderer.marker_sent,
            Some(now),
            "the tick ordered the marker"
        );
        assert!(orderer.cutter.time_cut_deadline() <= Some(now));
        assert_eq!(orderer.next_deadline(now), Some(now + max_wait));

        let driven = Driven::start(shared, mailbox, orderer);
        std::thread::sleep(Duration::from_millis(50));
        let ticks = driven.stop();
        assert!(ticks <= 8, "{ticks} ticks in 50 ms: the loop is spinning");
    }
}
