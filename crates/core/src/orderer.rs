//! The orderer node: consensus hosting, request admission, block cutting,
//! dependency-graph generation and NEWBLOCK multicast (§III-A, §IV-B).
//!
//! One implementation serves all three systems: OXII orderers attach a
//! dependency graph to each block; OX and XOV orderers do not. Graph
//! generation happens *inside the cutter* as transactions stream in
//! (see [`BlockCutter::with_graph`]), so `emit_block` receives block and
//! graph together and the ordering critical path between a cut and the
//! `NEWBLOCK` multicast no longer pays a batch graph rebuild.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parblock_consensus::{
    Action, OrderingProtocol, Pbft, PbftMsg, ProtocolConfig, QuorumSequencer, SeqMsg, TimerId,
};
use parblock_crypto::hash_wire;
use parblock_ledger::Ledger;
use parblock_net::Endpoint;
use parblock_store::Store;
use parblock_types::{Block, BlockNumber, ClientId, Hash32, NodeId, Transaction, TxId};

use crate::batch::{OpenBatch, Payload};
use crate::cutter::{BlockCutter, CutBlock};
use crate::msg::{BlockBundle, CatchUp, ConsMsg, Msg};
use crate::node::Node;
use crate::shared::Shared;

/// How long a batch short of `batch_max` waits for this orderer's own
/// batches in flight before it is ordered anyway: the fallback for an
/// instance that is lost. A delivered instance ends the wait sooner.
const BATCH_INTERVAL: Duration = Duration::from_millis(1);

/// An agreement protocol an orderer can host: how to build one replica,
/// and which arm of [`ConsMsg`] its traffic travels in. `node::boot`
/// picks the implementation once, from `ClusterSpec::consensus`.
pub(crate) trait Hosted: OrderingProtocol {
    /// One replica, with `timeout` as its view-change timeout.
    fn boot(cfg: ProtocolConfig, timeout: Duration) -> Self;

    /// The protocol message as orderer↔orderer traffic.
    fn wrap(msg: Self::Msg) -> ConsMsg;

    /// The protocol message inside `msg`; `None` for the other
    /// protocol's traffic (a misconfigured cluster), which is dropped.
    fn unwrap(msg: ConsMsg) -> Option<Self::Msg>;
}

impl Hosted for QuorumSequencer {
    fn boot(cfg: ProtocolConfig, timeout: Duration) -> Self {
        QuorumSequencer::new(cfg, timeout)
    }

    fn wrap(msg: SeqMsg) -> ConsMsg {
        ConsMsg::Seq(msg)
    }

    fn unwrap(msg: ConsMsg) -> Option<SeqMsg> {
        match msg {
            ConsMsg::Seq(msg) => Some(msg),
            ConsMsg::Pbft(_) => None,
        }
    }
}

impl Hosted for Pbft {
    fn boot(cfg: ProtocolConfig, timeout: Duration) -> Self {
        Pbft::new(cfg, timeout)
    }

    fn wrap(msg: PbftMsg) -> ConsMsg {
        ConsMsg::Pbft(msg)
    }

    fn unwrap(msg: ConsMsg) -> Option<PbftMsg> {
        match msg {
            ConsMsg::Pbft(msg) => Some(msg),
            ConsMsg::Seq(_) => None,
        }
    }
}

/// Deadlines for protocol timers ([`Action::SetTimer`] /
/// [`Action::CancelTimer`]).
///
/// The caller supplies *now* explicitly (from the cluster [`Clock`]), so
/// the table works identically under the wall clock and under the
/// deterministic simulator; a `BTreeMap` keeps expiry order a pure
/// function of the timer ids rather than of hash-map iteration order.
///
/// [`Clock`]: parblock_types::Clock
#[derive(Debug, Default)]
struct TimerTable {
    deadlines: BTreeMap<TimerId, Instant>,
}

impl TimerTable {
    /// Applies the timer-related actions in `actions` (send/deliver
    /// actions are left for the caller), with deadlines measured from
    /// `now`.
    fn absorb<M>(&mut self, actions: &[Action<M>], now: Instant) {
        for action in actions {
            match action {
                Action::SetTimer { id, after } => {
                    self.deadlines.insert(*id, now + *after);
                }
                Action::CancelTimer { id } => {
                    self.deadlines.remove(id);
                }
                _ => {}
            }
        }
    }

    /// The earliest pending deadline.
    fn next_deadline(&self) -> Option<Instant> {
        self.deadlines.values().min().copied()
    }

    /// Removes and returns the timers expired as of `now`, in timer-id
    /// order.
    fn take_expired(&mut self, now: Instant) -> Vec<TimerId> {
        let expired: Vec<TimerId> = self
            .deadlines
            .iter()
            .filter(|(_, &d)| d <= now)
            .map(|(&id, _)| id)
            .collect();
        for id in &expired {
            self.deadlines.remove(id);
        }
        expired
    }
}

/// Exactly-once (§IV-B): the client timestamps already delivered, per
/// client, as disjoint inclusive ranges `first → last`. A client that
/// numbers its requests 1, 2, 3, … holds one range however many it
/// sends, plus one per gap that reordering leaves open for a while; a
/// client that skips timestamps holds at most one range per request.
#[derive(Debug, Clone, Default)]
struct Delivered {
    clients: BTreeMap<ClientId, BTreeMap<u64, u64>>,
}

impl Delivered {
    /// Records `id`; `false` if it was delivered before — exactly what
    /// `HashSet::<TxId>::insert` answers.
    fn insert(&mut self, id: TxId) -> bool {
        let ts = id.client_ts;
        let ranges = self.clients.entry(id.client).or_default();
        // The fast path: `ts` extends the client's last range.
        if let Some(mut last) = ranges.last_entry() {
            if last.get().checked_add(1) == Some(ts) {
                *last.get_mut() = ts;
                return true;
            }
        }
        let below = ranges
            .range(..=ts)
            .next_back()
            .map(|(&first, &last)| (first, last));
        if below.is_some_and(|(_, last)| last >= ts) {
            return false;
        }
        // `ts` joins the range that ends right before it and the one
        // that starts right after it, whichever exist.
        let first = match below {
            Some((first, last)) if last.checked_add(1) == Some(ts) => first,
            _ => ts,
        };
        let above = ts.checked_add(1).and_then(|next| ranges.remove(&next));
        ranges.insert(first, above.unwrap_or(ts));
        true
    }
}

/// What an in-memory orderer is between two deliveries, and what a
/// sequencer leader hands one that restarted (DESIGN.md §9).
#[derive(Debug)]
pub(crate) struct OrdererState {
    /// The offset of the next delivery.
    next: u64,
    next_number: BlockNumber,
    prev_hash: Hash32,
    delivered: Delivered,
    /// The cutter's open transactions, oldest first.
    open: Vec<Transaction>,
}

pub(crate) struct Orderer<P> {
    shared: Arc<Shared>,
    endpoint: Endpoint<Msg>,
    protocol: P,
    cutter: BlockCutter,
    timers: TimerTable,
    batch: OpenBatch,
    last_flush: Instant,
    /// The first transaction of each batch this orderer submitted that
    /// has not been delivered yet. Empty means consensus is idle for
    /// this orderer, and a partial batch is ordered at once.
    in_flight: Vec<TxId>,
    marker_sent: Option<Instant>,
    delivered: Delivered,
    prev_hash: Hash32,
    next_number: BlockNumber,
    /// The offset of the next delivery.
    next_seq: u64,
    /// The offset of the payload that holds the cutter's first pending
    /// transaction; meaningful while one is pending.
    uncut_from: u64,
    /// Leader catch-ups this orderer resumed from since it started.
    catch_ups: u64,
    /// Where consensus broadcasts go: every orderer, this one included.
    orderers: Vec<NodeId>,
    /// Where NEWBLOCK goes: every peer.
    dests: Vec<NodeId>,
    /// Orderers own the chain (§III-A): under on-disk durability every
    /// emitted block is sealed here *before* the NEWBLOCK multicast, and
    /// a restarted orderer recovers its chain position — and the
    /// exactly-once ranges, from the persisted blocks — instead of
    /// renumbering from 1.
    store: Option<Store>,
}

impl<P: Hosted> Orderer<P> {
    /// The orderer at `endpoint`'s id, hosting its replica of `P`.
    pub(crate) fn new(shared: Arc<Shared>, endpoint: Endpoint<Msg>) -> Self {
        let orderers = shared.spec.orderer_ids();
        let cfg = ProtocolConfig::new(endpoint.id(), orderers.clone());
        let protocol = P::boot(cfg, shared.spec.consensus_timeout);
        let cutter = new_cutter(&shared);
        let dests = shared.spec.peer_ids();
        let mut delivered = Delivered::default();
        let mut prev_hash = Ledger::genesis_hash();
        let mut next_number = BlockNumber(1);
        let store = shared.spec.open_store(endpoint.id()).map(|(store, recovered)| {
            for (block, _) in &recovered.chain {
                for tx in block.transactions() {
                    delivered.insert(tx.id());
                }
            }
            prev_hash = recovered.head;
            next_number = BlockNumber(recovered.watermark.0 + 1);
            store
        });
        let now = shared.clock.now();
        Orderer {
            shared,
            endpoint,
            protocol,
            cutter,
            timers: TimerTable::default(),
            batch: OpenBatch::new(),
            last_flush: now,
            in_flight: Vec::new(),
            marker_sent: None,
            delivered,
            prev_hash,
            next_number,
            next_seq: 0,
            uncut_from: 0,
            catch_ups: 0,
            orderers,
            dests,
            store,
        }
    }

    fn apply(&mut self, actions: Vec<Action<P::Msg>>) {
        self.timers.absorb(&actions, self.shared.clock.now());
        for action in actions {
            match action {
                Action::Send { to, msg } => self.endpoint.send(to, Msg::Cons(P::wrap(msg))),
                Action::Broadcast { msg } => {
                    let msg = Msg::Cons(P::wrap(msg));
                    self.endpoint.multicast(self.orderers.iter(), &msg);
                }
                Action::Deliver { seq, payload } => self.on_delivery(seq, &payload),
                Action::SetTimer { .. } | Action::CancelTimer { .. } => {}
                Action::CatchUp {
                    to,
                    epoch,
                    log_start,
                } => {
                    let catch_up = CatchUp {
                        epoch,
                        log_start,
                        state: self.state(),
                    };
                    self.endpoint.send(to, Msg::CatchUp(Arc::new(catch_up)));
                }
            }
        }
        self.protocol.compact(self.floor());
    }

    /// The lowest offset this orderer's own restart would replay from. In
    /// memory a restart loses everything, and a live orderer never asks
    /// below its next delivery. On disk the store recovers every sealed
    /// block, so only the payload that holds the first uncut transaction
    /// must be replayed.
    fn floor(&self) -> u64 {
        match (&self.store, self.cutter.first_pending()) {
            (Some(_), Some(_)) => self.uncut_from,
            _ => self.next_seq,
        }
    }

    /// This orderer between two deliveries, for a restarted one.
    fn state(&self) -> OrdererState {
        OrdererState {
            next: self.next_seq,
            next_number: self.next_number,
            prev_hash: self.prev_hash,
            delivered: self.delivered.clone(),
            open: self.cutter.pending().to_vec(),
        }
    }

    /// Resumes from a leader's catch-up. In memory, this orderer takes the
    /// leader's state and jumps to its next delivery. On disk it keeps
    /// the chain, head and ranges its store recovered and jumps to the
    /// leader's log start: every transaction below it is in a sealed
    /// block, so the replay's ranges skip them.
    fn on_catch_up(&mut self, from: NodeId, catch_up: &CatchUp) {
        let state = &catch_up.state;
        let durable = self.store.is_some();
        let offset = if durable {
            catch_up.log_start
        } else {
            state.next
        };
        let Some(actions) = self.protocol.catch_up(from, catch_up.epoch, offset) else {
            return;
        };
        if !durable {
            self.delivered = state.delivered.clone();
            self.next_number = state.next_number;
            self.prev_hash = state.prev_hash;
            self.cutter = new_cutter(&self.shared);
            let now = self.shared.clock.now();
            for tx in &state.open {
                let cut = self.cutter.push(tx.clone(), now);
                debug_assert!(cut.is_none(), "the leader's open block was not full");
            }
        }
        self.next_seq = offset;
        self.catch_ups += 1;
        self.apply(actions);
    }

    /// Every orderer replays the same delivered stream, so lifecycle
    /// stages are stamped once, at the entry orderer, instead of racing
    /// three first-record-wins writes per transaction.
    fn traces_stages(&self) -> bool {
        self.shared.trace.enabled() && self.endpoint.id() == self.shared.spec.entry_orderer()
    }

    fn on_delivery(&mut self, seq: u64, payload: &[u8]) {
        let traces = self.traces_stages();
        match Payload::decode(payload) {
            Some(Payload::Batch(txs)) => {
                let first = txs.first().map(Transaction::id);
                let ours = self.in_flight.iter().position(|&id| Some(id) == first);
                for tx in txs {
                    // Exactly-once: client timestamps deduplicate
                    // deterministic re-proposals after view changes.
                    if !self.delivered.insert(tx.id()) {
                        continue;
                    }
                    let now = self.shared.clock.now();
                    if traces {
                        self.shared
                            .trace
                            .record_at(tx.id(), parblock_trace::Stage::Sequenced, now);
                    }
                    if self.cutter.first_pending().is_none() {
                        self.uncut_from = seq;
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
        // Set last: a floor read while this payload is half pushed (an
        // `apply` nested in a flush) must not pass it.
        self.next_seq = seq + 1;
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

impl<P: Hosted> Node for Orderer<P> {
    fn on_msg(&mut self, from: NodeId, msg: Msg) {
        match msg {
            Msg::Request { tx, sig } => {
                // §III-A: orderers check signatures and access rights and
                // simply discard invalid requests.
                let signer = self.shared.spec.client_signer(tx.client());
                let (keys, registry) = (&self.shared.keys, &self.shared.registry);
                let admitted = self.batch.push(&tx, |signed| {
                    keys.verify(signer, signed, &sig)
                        && registry.check_access(tx.app()).is_ok()
                });
                let full = self.batch.len() >= self.shared.spec.batch_max;
                if admitted && (full || self.in_flight.is_empty()) {
                    self.flush_batch(self.shared.clock.now());
                }
            }
            Msg::Cons(m) => {
                if let Some(m) = P::unwrap(m) {
                    let actions = self.protocol.on_message(from, m);
                    self.apply(actions);
                }
            }
            Msg::CatchUp(catch_up) => self.on_catch_up(from, &catch_up),
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

    fn chain_position(&self) -> Option<(BlockNumber, Hash32)> {
        Some((self.next_number, self.prev_hash))
    }

    fn catch_ups(&self) -> u64 {
        self.catch_ups
    }

    fn rejoin(&mut self) {
        let actions = self.protocol.rejoin();
        self.apply(actions);
    }
}

/// The block cutter an orderer of `shared.spec` starts with.
fn new_cutter(shared: &Shared) -> BlockCutter {
    let cut = shared.spec.block_cut.clone();
    match shared.spec.graph_mode() {
        None => BlockCutter::new(cut),
        Some(mode) => BlockCutter::with_graph(cut, mode),
    }
}

#[cfg(test)]
mod tests {
    use parblock_net::NetworkBuilder;
    use parblock_types::wire::Wire;
    use parblock_types::{AppId, ClientId, Clock, RwSet};
    use parblock_workload::WorkloadGen;
    use proptest::prelude::*;

    use super::*;
    use crate::cluster::{ClusterSpec, SystemKind};
    use crate::node::tests::Driven;

    /// The entry orderer alone on a manual network under a simulated
    /// clock, with one follower's mailbox to read what it broadcasts.
    struct Entry {
        shared: Arc<Shared>,
        net: parblock_net::SimNetwork<Msg>,
        orderer: Orderer<QuorumSequencer>,
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
            let orderer =
                Orderer::<QuorumSequencer>::new(Arc::clone(&shared), net.endpoint(ids[0]));
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
            entry.orderer.on_delivery(0, payload);
            assert!(entry.appended().is_empty(), "a batch is still in flight");
        }
        entry.orderer.on_delivery(0, last);
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
            .on_delivery(0, &Payload::Batch(vec![first]).encode());
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
        let mut orderer = Orderer::<QuorumSequencer>::new(Arc::clone(&shared), mailbox.clone());
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

    /// The hosted sequencer's broadcasts leave as its arm of `ConsMsg`.
    #[test]
    fn wrapped_sequencer_orders_payloads() {
        let mut entry = Entry::new();
        let (_, request) = entry.request(AppId(0), 1);
        entry.orderer.on_msg(NodeId(100), request);
        let all_due = entry.shared.clock.now() + Duration::from_secs(1);
        entry.net.deliver_due(all_due);
        let mut appends = 0;
        while let Some(envelope) = entry.follower.try_recv() {
            let Msg::Cons(ConsMsg::Seq(msg)) = envelope.msg else {
                panic!("a sequencer orderer sent {:?}", envelope.msg);
            };
            appends += usize::from(matches!(msg, SeqMsg::Append { .. }));
        }
        assert_eq!(appends, 1);
    }

    /// A PBFT cluster's orderer hosts a PBFT replica at its own id.
    #[test]
    fn wrapped_pbft_reports_identity() {
        let shared = Shared::new(ClusterSpec::new(SystemKind::Oxii).with_pbft());
        let id = shared.spec.orderer_ids()[2];
        let endpoint = NetworkBuilder::new().build::<Msg>().endpoint(id);
        let replica = Orderer::<Pbft>::new(shared, endpoint).protocol;
        assert_eq!(replica.id(), id);
        assert!(!replica.is_leader());
        assert_eq!(replica.current_view(), 0);
    }

    /// Whatever state `orderer` holds that a consensus message could
    /// move: its protocol replica, timers and chain position.
    fn consensus_state<P: Hosted + std::fmt::Debug>(orderer: &Orderer<P>) -> String {
        format!(
            "{:?} {:?} {:?} {}",
            orderer.protocol,
            orderer.timers,
            orderer.chain_position(),
            orderer.next_seq
        )
    }

    /// The other protocol's traffic changes nothing and sends nothing, at
    /// a sequencer orderer and at a PBFT one.
    #[test]
    fn mixed_protocol_traffic_is_dropped() {
        fn drops<P: Hosted + std::fmt::Debug>(spec: ClusterSpec, foreign: ConsMsg) {
            let shared = Shared::with_clock(spec, Clock::simulated());
            let net = shared
                .spec
                .network_builder()
                .clock(shared.clock.clone())
                .manual_delivery()
                .build::<Msg>();
            let ids = shared.spec.orderer_ids();
            let mut orderer = Orderer::<P>::new(Arc::clone(&shared), net.endpoint(ids[0]));
            let before = consensus_state(&orderer);
            orderer.on_msg(ids[1], Msg::Cons(foreign));
            assert_eq!(consensus_state(&orderer), before);
            net.deliver_due(shared.clock.now() + Duration::from_secs(1));
            for id in &ids {
                assert!(net.endpoint(*id).try_recv().is_none(), "{id} got a message");
            }
        }
        // A forward to the leader, which its own protocol would order.
        let payload: Arc<[u8]> = Arc::from(&b"p"[..]);
        let spec = ClusterSpec::new(SystemKind::Oxii);
        let pbft = PbftMsg::Forward {
            payload: Arc::clone(&payload),
        };
        drops::<QuorumSequencer>(spec.clone(), ConsMsg::Pbft(pbft));
        let seq = SeqMsg::Forward { payload };
        drops::<Pbft>(spec.with_pbft(), ConsMsg::Seq(seq));
    }

    #[test]
    fn timer_table_tracks_deadlines() {
        let mut table = TimerTable::default();
        let now = Instant::now();
        let actions: Vec<Action<ConsMsg>> = vec![
            Action::SetTimer {
                id: TimerId(1),
                after: Duration::ZERO,
            },
            Action::SetTimer {
                id: TimerId(2),
                after: Duration::from_secs(60),
            },
        ];
        table.absorb(&actions, now);
        assert!(table.next_deadline().is_some());
        let expired = table.take_expired(now);
        assert_eq!(expired, vec![TimerId(1)]);
        let cancel: Vec<Action<ConsMsg>> = vec![Action::CancelTimer { id: TimerId(2) }];
        table.absorb(&cancel, now);
        assert!(table.next_deadline().is_none());
    }

    #[test]
    fn timer_table_expiry_is_deterministic_and_time_driven() {
        let mut table = TimerTable::default();
        let now = Instant::now();
        let actions: Vec<Action<ConsMsg>> = (0..4)
            .map(|i| Action::SetTimer {
                id: TimerId(3 - i),
                after: Duration::from_millis(5),
            })
            .collect();
        table.absorb(&actions, now);
        assert!(table.take_expired(now).is_empty(), "nothing due yet");
        let expired = table.take_expired(now + Duration::from_millis(5));
        assert_eq!(
            expired,
            vec![TimerId(0), TimerId(1), TimerId(2), TimerId(3)],
            "expiry order is id order, not insertion or hash order"
        );
    }

    /// Timestamps drawn so that duplicates, neighbours and both ends of
    /// the range meet often: a small window near 0, the same near
    /// `u64::MAX`, and now and then anything at all.
    fn arb_timestamp() -> impl Strategy<Value = u64> {
        (0u8..8, 0u64..24, any::<u64>()).prop_map(|(pick, near, anything)| match pick {
            0..=3 => near,
            4..=6 => u64::MAX - near,
            _ => anything,
        })
    }

    proptest! {
        /// The ranges answer every insert as a `HashSet<TxId>` does, for
        /// several clients interleaved, out of order and with repeats.
        #[test]
        fn delivered_ranges_answer_as_a_hash_set(
            inserts in proptest::collection::vec((0u32..4, arb_timestamp()), 0..200),
        ) {
            let mut ranges = Delivered::default();
            let mut model = std::collections::HashSet::new();
            for (client, ts) in inserts {
                let id = TxId::new(ClientId(client), ts);
                prop_assert_eq!(ranges.insert(id), model.insert(id), "{:?}", id);
            }
            for (client, held) in &ranges.clients {
                let mut prev: Option<u64> = None;
                for (&first, &last) in held {
                    prop_assert!(first <= last);
                    // Disjoint and not adjacent: adjacent ranges merge.
                    prop_assert!(prev.is_none_or(|p| p + 1 < first));
                    prev = Some(last);
                }
                let held: u128 = held.iter().map(|(&f, &l)| u128::from(l - f) + 1).sum();
                let modelled = model.iter().filter(|id| id.client == *client).count();
                prop_assert_eq!(held, modelled as u128);
            }
        }
    }

    /// How many ranges `client` holds.
    fn ranges(delivered: &Delivered, client: u32) -> usize {
        let held = delivered.clients.get(&ClientId(client));
        held.map_or(0, BTreeMap::len)
    }

    /// The generator numbers each client's transactions 1, 2, 3, … and
    /// shuffles only within a window, so a whole stream leaves one range
    /// per client.
    #[test]
    fn a_whole_workload_stream_leaves_one_range_per_client() {
        let spec = ClusterSpec::new(SystemKind::Oxii);
        let config = spec.workload_config();
        let clients = config.clients;
        let mut delivered = Delivered::default();
        for tx in WorkloadGen::new(config).stream().take(4_000) {
            assert!(delivered.insert(tx.id()), "{:?} twice", tx.id());
        }
        for client in 0..clients {
            assert_eq!(ranges(&delivered, client), 1, "client {client}");
        }
    }

    /// Both ends of the timestamp space merge without overflow.
    #[test]
    fn delivered_ranges_merge_at_zero_and_u64_max() {
        let mut delivered = Delivered::default();
        let id = |ts| TxId::new(ClientId(0), ts);
        for ts in [u64::MAX, 0, u64::MAX - 1, 2, 1] {
            assert!(delivered.insert(id(ts)), "{ts}");
        }
        assert_eq!(ranges(&delivered, 0), 2);
        for ts in [0, 1, 2, u64::MAX - 1, u64::MAX] {
            assert!(!delivered.insert(id(ts)), "{ts} again");
        }
        assert_eq!(ranges(&delivered, 1), 0);
    }
}
