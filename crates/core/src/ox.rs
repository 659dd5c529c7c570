//! The order-execute (OX) baseline (§II, §V): orderers establish a total
//! order, then *every* peer executes every transaction sequentially with
//! its local copy of every smart contract.
//!
//! There is no commit-message exchange: each peer's sequential execution
//! is self-sufficient (this is exactly why OX has no confidentiality and
//! no parallelism).

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use parblock_contracts::ExecOutcome;
use parblock_crypto::Signature;
use parblock_ledger::{KvState, Ledger, Version};
use parblock_net::Endpoint;
use parblock_types::NodeId;

use crate::msg::{BlockBundle, Msg};
use crate::node::Node;
use crate::quorum::NewBlockQuorum;
use crate::shared::Shared;

/// An OX peer: validates NEWBLOCK quorums and executes blocks serially.
pub(crate) struct OxPeer {
    shared: Arc<Shared>,
    state: KvState,
    ledger: Ledger,
    admission: NewBlockQuorum,
    ready: BTreeMap<u64, Arc<BlockBundle>>,
    is_observer: bool,
}

impl OxPeer {
    pub(crate) fn new(shared: Arc<Shared>, endpoint: Endpoint<Msg>) -> Self {
        let state = KvState::with_genesis(shared.genesis.iter().cloned());
        let is_observer = endpoint.id() == shared.spec.observer();
        let admission = NewBlockQuorum::new(shared.spec.newblock_quorum());
        OxPeer {
            shared,
            state,
            ledger: Ledger::new(),
            admission,
            ready: BTreeMap::new(),
            is_observer,
        }
    }

    fn on_new_block(
        &mut self,
        from: NodeId,
        bundle: Arc<BlockBundle>,
        orderer: NodeId,
        sig: &Signature,
    ) {
        let next_needed = self.ledger.next_number().0;
        if let Some(validated) =
            self.admission
                .admit(&self.shared, from, bundle, orderer, sig, next_needed)
        {
            self.ready.insert(validated.block.number().0, validated);
            self.execute_ready_blocks();
        }
    }

    fn execute_ready_blocks(&mut self) {
        loop {
            let next = self.ledger.next_number().0;
            let Some(bundle) = self.ready.remove(&next) else {
                return;
            };
            self.execute_block(&bundle);
            if self.shared.stop.load(Ordering::Relaxed) {
                return;
            }
        }
    }

    /// §II: "the node executes the transactions within a block
    /// sequentially."
    fn execute_block(&mut self, bundle: &Arc<BlockBundle>) {
        let per_tx = self.shared.spec.costs.per_tx;
        for (seq, tx) in bundle.block.iter_seq() {
            if !per_tx.is_zero() {
                std::thread::sleep(per_tx);
            }
            let Ok(contract) = self.shared.registry.contract(tx.app()) else {
                continue;
            };
            let outcome = contract.execute(tx, &self.state);
            match outcome {
                ExecOutcome::Commit(writes) => {
                    let version = Version::new(bundle.block.number(), seq);
                    self.state.apply(writes, version);
                    if self.is_observer {
                        self.shared.metrics.record_commit(tx.id());
                    }
                }
                ExecOutcome::Abort(_) => {
                    if self.is_observer {
                        self.shared.metrics.record_abort(tx.id());
                    }
                }
            }
        }
        self.ledger
            .append_hashed(Arc::clone(&bundle.block), bundle.hash)
            .expect("blocks arrive in order with verified links");
        if self.is_observer {
            self.shared.metrics.record_block();
            if self.shared.spec.capture_state {
                self.shared.metrics.set_state_digest(self.state.digest());
            }
        }
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
            self.on_new_block(from, bundle, orderer, &sig);
        }
    }
}
