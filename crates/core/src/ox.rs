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
//! at every sealed block.

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use parblock_crypto::Signature;
use parblock_ledger::{prune_to_sealed, Ledger, MvccState, Version};
use parblock_net::Endpoint;
use parblock_types::{Key, NodeId, Transaction, Value};

use crate::msg::{BlockBundle, Msg};
use crate::node::Node;
use crate::pool::{self, SnapshotReader};
use crate::quorum::NewBlockQuorum;
use crate::shared::Shared;

/// Decides one transaction at its position against the state before it:
/// the writes it commits, or `None` to abort it.
pub(crate) type Decide =
    fn(&Shared, &MvccState, &Transaction, Version) -> Option<Vec<(Key, Value)>>;

/// What OX peers and XOV validators share: NEWBLOCK admission, then
/// blocks taken one at a time in ledger order, each transaction decided
/// in position order, and a seal after each block (ledger append, version
/// pruning, the observer's metrics).
pub(crate) struct SerialChain {
    pub(crate) shared: Arc<Shared>,
    pub(crate) state: MvccState,
    pub(crate) ledger: Ledger,
    admission: NewBlockQuorum,
    ready: BTreeMap<u64, Arc<BlockBundle>>,
    is_observer: bool,
}

impl SerialChain {
    pub(crate) fn new(shared: Arc<Shared>, me: NodeId) -> Self {
        SerialChain {
            state: MvccState::with_genesis(shared.genesis.iter().cloned()),
            ledger: Ledger::new(),
            admission: NewBlockQuorum::new(shared.spec.newblock_quorum()),
            ready: BTreeMap::new(),
            is_observer: me == shared.spec.observer(),
            shared,
        }
    }

    /// Counts one NEWBLOCK copy, then runs every block that is next in
    /// ledger order through `decide`.
    pub(crate) fn on_new_block(
        &mut self,
        from: NodeId,
        bundle: Arc<BlockBundle>,
        orderer: NodeId,
        sig: &Signature,
        decide: Decide,
    ) {
        let next_needed = self.ledger.next_number().0;
        let Some(validated) =
            self.admission
                .admit(&self.shared, from, bundle, orderer, sig, next_needed)
        else {
            return;
        };
        self.ready.insert(validated.block.number().0, validated);
        while let Some(bundle) = self.ready.remove(&self.ledger.next_number().0) {
            self.run_block(&bundle, decide);
            if self.shared.stop.load(Ordering::Relaxed) {
                return;
            }
        }
    }

    fn run_block(&mut self, bundle: &BlockBundle, decide: Decide) {
        for (seq, tx) in bundle.block.iter_seq() {
            let position = Version::new(bundle.block.number(), seq);
            let decided = decide(&self.shared, &self.state, tx, position);
            let committed = decided.map(|writes| self.state.apply(writes, position));
            if self.is_observer {
                match committed {
                    Some(()) => self.shared.metrics.record_commit(tx.id()),
                    None => self.shared.metrics.record_abort(tx.id()),
                }
            }
        }
        self.ledger
            .append_hashed(Arc::clone(&bundle.block), bundle.hash)
            .expect("blocks arrive in order with verified links");
        prune_to_sealed(&bundle.block, &mut self.state);
        if self.is_observer {
            self.shared.metrics.record_block();
            if self.shared.spec.capture_state {
                self.shared.metrics.set_state_digest(self.state.digest());
            }
        }
    }
}

/// §II: "the node executes the transactions within a block
/// sequentially", each against a snapshot at its own position, after
/// sleeping its cost model.
fn execute(
    shared: &Shared,
    state: &MvccState,
    tx: &Transaction,
    position: Version,
) -> Option<Vec<(Key, Value)>> {
    let per_tx = shared.spec.costs.per_tx;
    if !per_tx.is_zero() {
        std::thread::sleep(per_tx);
    }
    let contract = shared.registry.contract(tx.app()).ok()?;
    pool::execute(contract.as_ref(), tx, &SnapshotReader::at(state, tx, position)).into_writes()
}

/// An OX peer: validates NEWBLOCK quorums and executes blocks serially.
pub(crate) struct OxPeer(SerialChain);

impl OxPeer {
    pub(crate) fn new(shared: Arc<Shared>, endpoint: Endpoint<Msg>) -> Self {
        OxPeer(SerialChain::new(shared, endpoint.id()))
    }
}

/// Everything an OX peer does is a reaction to a NEWBLOCK, inside which
/// it sleeps its cost model; nothing is ever due later.
impl Node for OxPeer {
    fn on_msg(&mut self, from: NodeId, msg: Msg) {
        if let Msg::NewBlock {
            bundle,
            orderer,
            sig,
        } = msg
        {
            self.0.on_new_block(from, bundle, orderer, &sig, execute);
        }
    }
}

#[cfg(test)]
mod tests {
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
        let (orderer, msg) = testing::new_block(&shared, &block, None);
        peer.on_msg(orderer, msg);
        let report = shared.metrics.report();
        assert_eq!((report.committed, report.aborted), (0, 1));
        assert_eq!(peer.0.ledger.next_number(), BlockNumber(2), "the block sealed");
        assert_eq!(peer.0.state.latest_version(Key(99)), None);
        assert_eq!(peer.0.state.latest(Key(1)), Value::Int(10));
    }
}
