//! The order-execute (OX) baseline (§II, §V): orderers establish a total
//! order, then *every* peer executes every transaction sequentially with
//! its local copy of every smart contract.
//!
//! There is no commit-message exchange: each peer's sequential execution
//! is self-sufficient (this is exactly why OX has no confidentiality and
//! no parallelism).
//!
//! The state is the same [`MvccState`] OXII executes on, and the access
//! rule is OXII's: each transaction reads a snapshot of its declared read
//! set at its own position `(block, seq)` through `pool::execute`,
//! which aborts an undeclared read or write. The block loop around it,
//! `SerialChain`, is the one XOV validators run too: writes are
//! versioned puts at the transaction's position, and versions are pruned
//! at every sealed block. Its cost is charged on the cluster clock, not
//! slept: a decision waits in an `InlineQueue` until its cost has passed.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parblock_crypto::Signature;
use parblock_ledger::{prune_to_sealed, Ledger, MvccState, Version};
use parblock_net::Endpoint;
use parblock_types::{Key, NodeId, SeqNo, Transaction, TxId, Value};

use crate::msg::{BlockBundle, Msg};
use crate::node::{Node, Peer, PeerSummary};
use crate::pool::{self, InlineQueue, SnapshotReader};
use crate::quorum::NewBlockQuorum;
use crate::shared::Shared;

/// The writes a transaction commits, or `None` to abort it.
type Decision = Option<Vec<(Key, Value)>>;

/// Decides one transaction at its position against the state before it.
pub(crate) type Decide = fn(&Shared, &MvccState, &Transaction, Version) -> Decision;

/// What OX peers and XOV validators share: NEWBLOCK admission, then
/// blocks taken one at a time in ledger order, each transaction decided
/// in position order, and a seal after each block (ledger append and
/// version pruning).
pub(crate) struct SerialChain {
    pub(crate) shared: Arc<Shared>,
    pub(crate) state: MvccState,
    pub(crate) ledger: Ledger,
    admission: NewBlockQuorum,
    /// Admitted blocks waiting their turn, each with when it was admitted.
    ready: BTreeMap<u64, (Arc<BlockBundle>, Instant)>,
    /// In-block position of the head block's next undecided transaction.
    next_seq: u32,
    /// How a transaction is decided, and what deciding one costs.
    decide: Decide,
    cost: Duration,
    /// The decision being made, held in turn until its cost has passed.
    running: InlineQueue<(TxId, Version, Decision)>,
    is_observer: bool,
}

impl SerialChain {
    pub(crate) fn new(shared: Arc<Shared>, me: NodeId, decide: Decide, cost: Duration) -> Self {
        SerialChain {
            state: MvccState::over(shared.genesis.clone()),
            ledger: Ledger::new(),
            admission: NewBlockQuorum::new(shared.spec.newblock_quorum()),
            ready: BTreeMap::new(),
            next_seq: 0,
            decide,
            cost,
            running: InlineQueue::default(),
            is_observer: me == shared.spec.observer(),
            shared,
        }
    }

    /// Counts one NEWBLOCK copy; a block that reaches its quorum waits
    /// its turn. Then decides what is due.
    pub(crate) fn on_new_block(
        &mut self,
        from: NodeId,
        bundle: Arc<BlockBundle>,
        orderer: NodeId,
        sig: &Signature,
    ) {
        let next_needed = self.ledger.next_number().0;
        let now = self.shared.clock.now();
        if let Some(validated) =
            self.admission
                .admit(&self.shared, from, bundle, orderer, sig, next_needed)
        {
            self.ready.insert(validated.block.number().0, (validated, now));
        }
        self.advance(now);
    }

    /// Applies the decisions due by `now`; whenever none is running,
    /// decides the next transaction, due `cost` after the previous one or
    /// its block's admission, whichever is later (a late wake-up shifts
    /// nothing after it). Seals each block after its last transaction.
    /// Returns how many decisions it applied.
    pub(crate) fn advance(&mut self, now: Instant) -> usize {
        let mut applied = 0;
        loop {
            while let Some((tx, position, decided)) = self.running.pop_due(now) {
                let committed = decided.map(|writes| self.state.apply(writes, position));
                if self.is_observer {
                    match committed {
                        Some(()) => self.shared.metrics.record_commit(tx),
                        None => self.shared.metrics.record_abort(tx),
                    }
                }
                self.next_seq += 1;
                applied += 1;
            }
            if self.running.next_due().is_some() {
                return applied;
            }
            let Some((bundle, admitted)) = self.ready.get(&self.ledger.next_number().0) else {
                return applied;
            };
            let Some(tx) = bundle.block.transactions().get(self.next_seq as usize) else {
                self.seal();
                continue;
            };
            let position = Version::new(bundle.block.number(), SeqNo(self.next_seq));
            let decided = (self.decide)(&self.shared, &self.state, tx, position);
            let job = (tx.id(), position, decided);
            self.running.hold_in_turn(job, *admitted, self.cost);
        }
    }

    fn seal(&mut self) {
        let head = self.ledger.next_number().0;
        let (bundle, _) = self.ready.remove(&head).expect("the head block is ready");
        self.next_seq = 0;
        self.ledger
            .append_hashed(Arc::clone(&bundle.block), bundle.hash)
            .expect("blocks arrive in order with verified links");
        prune_to_sealed(&bundle.block, &mut self.state);
    }

    /// The chain's summary: it starts from genesis and persists nothing.
    pub(crate) fn summary(&self) -> PeerSummary {
        let capture_state = self.shared.spec.capture_state;
        PeerSummary::sealed(&self.ledger, &self.state, 0, capture_state)
    }
}

/// §II: "the node executes the transactions within a block
/// sequentially", each against a snapshot at its own position.
fn execute(shared: &Shared, state: &MvccState, tx: &Transaction, position: Version) -> Decision {
    let contract = shared.registry.contract(tx.app()).ok()?;
    pool::execute(contract.as_ref(), tx, &SnapshotReader::at(state, tx, position)).into_writes()
}

/// An OX peer: validates NEWBLOCK quorums and executes blocks serially,
/// each transaction costing `costs.per_tx`.
pub(crate) struct OxPeer(SerialChain);

impl OxPeer {
    pub(crate) fn new(shared: Arc<Shared>, endpoint: Endpoint<Msg>) -> Self {
        let cost = shared.spec.costs.per_tx;
        OxPeer(SerialChain::new(shared, endpoint.id(), execute, cost))
    }
}

impl Peer for OxPeer {
    fn chain(&self) -> (&Ledger, &MvccState) {
        (&self.0.ledger, &self.0.state)
    }

    fn summary(&self) -> PeerSummary {
        self.0.summary()
    }
}

/// An OX peer reacts to NEWBLOCKs; its only deadline is the end of the
/// execution it is running.
impl Node for OxPeer {
    fn on_msg(&mut self, from: NodeId, msg: Msg) {
        if let Msg::NewBlock { bundle, orderer, sig } = msg {
            self.0.on_new_block(from, bundle, orderer, &sig);
        }
    }

    fn tick(&mut self, now: Instant) -> usize {
        self.0.advance(now)
    }

    fn next_deadline(&self, now: Instant) -> Option<Instant> {
        self.0.running.next_due().filter(|&due| due > now)
    }

    fn as_peer(&self) -> Option<&dyn Peer> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use parblock_types::{Block, BlockNumber, ExecutionCosts};

    use super::*;
    use crate::cluster::{ClusterSpec, SystemKind};
    use crate::shared::testing;

    /// OX executes under OXII's access rule: a contract that writes one
    /// key outside the transaction's declared write set aborts it, where
    /// executing against the whole state used to commit the write.
    #[test]
    fn an_undeclared_write_aborts_instead_of_committing() {
        let mut spec = ClusterSpec::new(SystemKind::Ox);
        spec.costs = ExecutionCosts::zero();
        let (shared, _clock, net, tx) = testing::lying(spec);
        let mut peer = OxPeer::new(Arc::clone(&shared), net.endpoint(shared.spec.observer()));
        peer.0.state = MvccState::with_genesis([(Key(1), Value::Int(10))]);
        let block = Arc::new(Block::new(BlockNumber(1), Ledger::genesis_hash(), vec![tx]));
        testing::submit_all(&shared, &block);
        let (orderer, msg) = testing::new_block(&shared, &block, None);
        peer.on_msg(orderer, msg);
        let report = shared.metrics.report();
        assert_eq!((report.committed, report.aborted), (0, 1));
        assert_eq!(
            peer.0.ledger.next_number(),
            BlockNumber(2),
            "the block sealed"
        );
        assert_eq!(peer.0.state.latest_version(Key(99)), None);
        assert_eq!(peer.0.state.latest(Key(1)), Value::Int(10));
    }

    /// Execution cost is a deadline on the clock: a block of two
    /// transactions at 1 ms each finishes its first at 1 ms and seals at
    /// 2 ms, each surfaced by a tick.
    #[test]
    fn execution_cost_is_charged_on_the_clock() {
        let mut spec = ClusterSpec::new(SystemKind::Ox);
        spec.costs = ExecutionCosts::per_tx(Duration::from_millis(1));
        let (shared, clock, net) = testing::stepped(spec);
        let mut peer = OxPeer::new(Arc::clone(&shared), net.endpoint(shared.spec.observer()));
        let txs = parblock_workload::WorkloadGen::new(shared.spec.workload_config()).take_txs(2);
        let block = Arc::new(Block::new(BlockNumber(1), Ledger::genesis_hash(), txs));
        let (orderer, msg) = testing::new_block(&shared, &block, None);
        let start = clock.now();
        peer.on_msg(orderer, msg);
        assert_eq!(
            peer.next_deadline(start),
            Some(start + Duration::from_millis(1))
        );
        clock.advance_to(start + Duration::from_millis(1));
        assert_eq!(peer.tick(clock.now()), 1);
        assert_eq!(
            peer.0.ledger.next_number(),
            BlockNumber(1),
            "one still runs"
        );
        clock.advance_to(start + Duration::from_millis(2));
        assert_eq!(peer.tick(clock.now()), 1);
        assert_eq!(
            peer.0.ledger.next_number(),
            BlockNumber(2),
            "the block sealed"
        );
        assert_eq!(peer.next_deadline(clock.now()), None);
    }
}
