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
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parblock_consensus::{Action, OrderingProtocol};
use parblock_crypto::hash_wire;
use parblock_depgraph::DependencyMode;
use parblock_ledger::Ledger;
use parblock_net::Endpoint;
use parblock_types::wire::Wire;
use parblock_types::{Block, BlockNumber, Hash32, NodeId, Transaction, TxId};

use crate::batch::Payload;
use crate::cutter::{BlockCutter, CutBlock};
use crate::hostcons::{AnyConsensus, TimerTable};
use crate::msg::{BlockBundle, ConsMsg, Msg};
use crate::shared::Shared;

/// How often buffered requests are flushed into a consensus batch.
const BATCH_INTERVAL: Duration = Duration::from_millis(1);
/// Idle receive timeout (stop-flag poll granularity).
const IDLE_TICK: Duration = Duration::from_micros(500);

pub(crate) struct Orderer {
    shared: Arc<Shared>,
    endpoint: Endpoint<Msg>,
    protocol: AnyConsensus,
    cutter: BlockCutter,
    timers: TimerTable,
    batch: Vec<Transaction>,
    last_flush: Instant,
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
        graph_mode: Option<DependencyMode>,
    ) -> Self {
        let cutter = match graph_mode {
            None => BlockCutter::new(shared.spec.block_cut.clone()),
            Some(mode) => BlockCutter::with_graph(
                shared.spec.block_cut.clone(),
                mode,
                shared.spec.graph_construction,
            ),
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
            batch: Vec::new(),
            last_flush: now,
            marker_sent: None,
            seen,
            prev_hash,
            next_number,
            dests,
            store,
        }
    }

    pub(crate) fn run(mut self) {
        while !self.shared.stop.load(Ordering::Relaxed) {
            let wait = self
                .timers
                .next_deadline()
                .map(|d| d.saturating_duration_since(self.shared.clock.now()))
                .unwrap_or(IDLE_TICK)
                .min(IDLE_TICK);
            if let Ok(envelope) = self.endpoint.recv_timeout(wait) {
                self.on_msg(envelope.from, envelope.msg);
                // Drain whatever else is queued before housekeeping.
                while let Some(envelope) = self.endpoint.try_recv() {
                    self.on_msg(envelope.from, envelope.msg);
                }
            }
            self.tick();
        }
    }

    /// One housekeeping pass against the cluster clock: expired protocol
    /// timers, batch flushing, and the leader's time-cut marker. The
    /// threaded loop calls this after every receive; the deterministic
    /// scheduler calls it at every virtual-time step.
    pub(crate) fn tick(&mut self) {
        let now = self.shared.clock.now();
        for timer in self.timers.take_expired(now) {
            let actions = self.protocol.on_timer(timer);
            self.apply(actions);
        }
        self.flush_batch_if_due(now);
        self.order_time_cut_if_due(now);
    }

    /// Drains the mailbox without blocking, then ticks. The deterministic
    /// scheduler's step function. Returns how many messages were handled.
    pub(crate) fn step(&mut self) -> usize {
        let mut handled = 0;
        while let Some(envelope) = self.endpoint.try_recv() {
            self.on_msg(envelope.from, envelope.msg);
            handled += 1;
        }
        self.tick();
        handled
    }

    /// The orderer's chain position: next block number to emit and the
    /// hash of the last emitted block. The simulation's orderer-
    /// convergence oracle compares these across replicas.
    pub(crate) fn chain_position(&self) -> (BlockNumber, Hash32) {
        (self.next_number, self.prev_hash)
    }

    /// The earliest instant this orderer has *time-driven* work: a
    /// consensus timer, a due batch flush, or (as leader) the cutter's
    /// time-cut deadline / marker resend. The deterministic scheduler
    /// advances virtual time straight to this instant when no message
    /// traffic is due, so wall-clock cut behaviour fires exactly on its
    /// deadline instead of being polled.
    pub(crate) fn next_due(&self) -> Option<Instant> {
        let mut due = self.timers.next_deadline();
        let mut merge = |candidate: Option<Instant>| {
            due = match (due, candidate) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
        };
        if !self.batch.is_empty() {
            merge(Some(self.last_flush + BATCH_INTERVAL));
        }
        if self.protocol.is_leader() {
            merge(self.cutter.time_cut_deadline());
            if self.cutter.first_pending().is_some() {
                if let Some(sent) = self.marker_sent {
                    merge(Some(sent + self.shared.spec.block_cut.max_wait));
                }
            }
        }
        due
    }

    fn on_msg(&mut self, from: NodeId, msg: Msg) {
        match msg {
            Msg::Request { tx, sig } => {
                // §III-A: orderers check signatures and access rights and
                // simply discard invalid requests.
                let signer = self.shared.spec.client_signer(tx.client());
                if !self.shared.keys.verify(signer, &tx.wire_bytes(), &sig) {
                    return;
                }
                if self
                    .shared
                    .registry
                    .check_access(tx.client(), tx.app())
                    .is_err()
                {
                    return;
                }
                self.batch.push(tx);
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

    fn flush_batch_if_due(&mut self, now: Instant) {
        if self.batch.is_empty() {
            return;
        }
        let due = self.batch.len() >= self.shared.spec.batch_max
            || now.saturating_duration_since(self.last_flush) >= BATCH_INTERVAL;
        if due {
            let txs = std::mem::take(&mut self.batch);
            let payload = Payload::Batch(txs).encode();
            let actions = self.protocol.submit(payload);
            self.apply(actions);
            self.last_flush = now;
        }
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
        // `>=` so the resend fires exactly at the instant `next_due`
        // advertises (`sent + max_wait`) — the deterministic scheduler
        // advances the clock to precisely that deadline.
        let resend_due = self.marker_sent.is_none_or(|at| {
            now.saturating_duration_since(at) >= self.shared.spec.block_cut.max_wait
        });
        if resend_due {
            self.marker_sent = Some(now);
            let actions = self
                .protocol
                .submit(Payload::CutMarker { first_pending }.encode());
            self.apply(actions);
        }
    }
}

/// Spawns an orderer thread.
pub(crate) fn spawn_orderer(
    shared: Arc<Shared>,
    endpoint: Endpoint<Msg>,
    protocol: AnyConsensus,
    graph_mode: Option<DependencyMode>,
) -> std::thread::JoinHandle<()> {
    let name = format!("orderer-{}", endpoint.id());
    // lint:allow(thread-spawn) — node threads are the threaded runner's
    // execution model; the deterministic harness uses the sim scheduler
    std::thread::Builder::new()
        .name(name)
        .spawn(move || Orderer::new(shared, endpoint, protocol, graph_mode).run())
        .expect("spawn orderer")
}
