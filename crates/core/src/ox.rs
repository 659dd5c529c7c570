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
use std::time::Duration;

use parblock_contracts::ExecOutcome;
use parblock_crypto::Signature;
use parblock_ledger::{KvState, Ledger, Version};
use parblock_net::Endpoint;
use parblock_types::NodeId;

use crate::msg::{BlockBundle, Msg};
use crate::quorum::NewBlockQuorum;
use crate::shared::Shared;

const IDLE_TICK: Duration = Duration::from_micros(500);

/// An OX peer: validates NEWBLOCK quorums and executes blocks serially.
pub(crate) struct OxPeer {
    shared: Arc<Shared>,
    endpoint: Endpoint<Msg>,
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
            endpoint,
            state,
            ledger: Ledger::new(),
            admission,
            ready: BTreeMap::new(),
            is_observer,
        }
    }

    pub(crate) fn run(mut self) {
        while !self.shared.stop.load(Ordering::Relaxed) {
            if let Ok(envelope) = self.endpoint.recv_timeout(IDLE_TICK) {
                if let Msg::NewBlock {
                    bundle,
                    orderer,
                    sig,
                } = envelope.msg
                {
                    self.on_new_block(envelope.from, bundle, orderer, &sig);
                }
            }
            self.execute_ready_blocks();
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

/// Spawns an OX peer thread.
pub(crate) fn spawn_peer(
    shared: Arc<Shared>,
    endpoint: Endpoint<Msg>,
) -> std::thread::JoinHandle<()> {
    let name = format!("ox-peer-{}", endpoint.id());
    // lint:allow(thread-spawn) — node threads are the threaded runner's
    // execution model; the deterministic harness uses the sim scheduler
    std::thread::Builder::new()
        .name(name)
        .spawn(move || OxPeer::new(shared, endpoint).run())
        .expect("spawn ox peer")
}
