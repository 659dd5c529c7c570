//! The execute-order-validate (XOV) baseline: Hyperledger Fabric's
//! paradigm (§II, Fig 1c).
//!
//! 1. The client sends its signed request to the endorsers of the
//!    application (the driver does this, on the same arrival schedule as
//!    OX and OXII); each endorser *simulates* the transaction against its
//!    current state and returns the read versions and proposed writes,
//!    with the transaction and the client's signature.
//! 2. The client (`XovClient`, a node at the client's address) checks
//!    its own signature on each returned transaction, assembles an
//!    envelope from a sufficient number of matching endorsements and
//!    submits it to the ordering service.
//! 3. Orderers sequence envelopes into blocks (no dependency graph).
//! 4. Every peer validates each envelope in block order — stale read
//!    versions (MVCC check) abort the transaction — and applies the
//!    surviving writes.
//!
//! Contention therefore translates directly into validation aborts, which
//! is the effect Figs 5–6 measure.
//!
//! The state is OXII's [`MvccState`] and the validation loop is OX's
//! `SerialChain`. An endorser simulates through `pool::execute` at the
//! position just after its ledger head, so an undeclared read or write
//! endorses an empty write set; a validator aborts an envelope whose
//! writes leave the transaction's declared write set.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parblock_crypto::{sha256, Signature};
use parblock_ledger::{Ledger, MvccState, Version};
use parblock_net::Endpoint;
use parblock_types::wire::{encode_writes, Reader, Wire};
use parblock_types::{BlockNumber, Hash32, Key, NodeId, RwSet, SeqNo, Transaction, TxId, Value};

use crate::msg::{Envelope, Msg};
use crate::node::{Node, Peer, PeerSummary};
use crate::ox::SerialChain;
use crate::pool::{self, undeclared_write, InlineQueue, SnapshotReader};
use crate::quorum::completes;
use crate::shared::Shared;

// ---- envelope wire format ---------------------------------------------

impl Envelope {
    /// Serializes the envelope into a transaction payload.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        (self.read_versions.len() as u64).encode(&mut out);
        for (key, version) in &self.read_versions {
            key.0.encode(&mut out);
            match version {
                None => out.push(0),
                Some(v) => {
                    out.push(1);
                    v.block.0.encode(&mut out);
                    v.seq.0.encode(&mut out);
                }
            }
        }
        encode_writes(&self.writes, &mut out);
        out
    }

    /// Deserializes an envelope from a transaction payload.
    #[must_use]
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        let mut reader = Reader::new(bytes);
        let n_reads = usize::try_from(reader.u64()?).ok()?;
        let mut read_versions = Vec::with_capacity(n_reads.min(4096));
        for _ in 0..n_reads {
            let key = Key(reader.u64()?);
            let version = match reader.u8()? {
                0 => None,
                1 => Some(Version::new(
                    BlockNumber(reader.u64()?),
                    SeqNo(reader.u32()?),
                )),
                _ => return None,
            };
            read_versions.push((key, version));
        }
        let writes = reader.writes()?;
        reader.is_exhausted().then_some(Envelope {
            read_versions,
            writes,
        })
    }

    /// What an endorser signs: the endorsed transaction's wire bytes
    /// (`tx_wire`, self-delimiting), then the envelope.
    #[must_use]
    pub fn digest(&self, tx_wire: &[u8]) -> Hash32 {
        let mut bytes = tx_wire.to_vec();
        bytes.extend(self.encode());
        sha256(&bytes)
    }
}

// ---- peer (endorser + validator) ----------------------------------------

/// An endorsement request: the client, the transaction and the
/// client's signature, and when the request arrived.
type Request = (NodeId, Transaction, Signature, Instant);

/// An XOV peer: endorser for its applications, validator for all blocks.
pub(crate) struct XovPeer {
    endpoint: Endpoint<Msg>,
    chain: SerialChain,
    /// Requests waiting for the endorser, in arrival order.
    requests: VecDeque<Request>,
    /// The signed endorsement being simulated, due at its client when
    /// the endorser is done with it.
    endorsing: InlineQueue<(NodeId, Msg)>,
}

impl XovPeer {
    pub(crate) fn new(shared: Arc<Shared>, endpoint: Endpoint<Msg>) -> Self {
        // Validation costs no time.
        let chain = SerialChain::new(shared, endpoint.id(), validate, Duration::ZERO);
        XovPeer {
            endpoint,
            chain,
            requests: VecDeque::new(),
            endorsing: InlineQueue::default(),
        }
    }

    /// Phase 1: simulate the transaction as its turn starts, against the
    /// blocks validated by then, and hold the endorsement until it is
    /// done.
    ///
    /// Endorsers execute requests one at a time (the paper: "XOV can
    /// execute 3 — the number of applications — transactions in
    /// parallel", i.e. one per endorser): each takes `costs.per_tx` from
    /// when the previous one is done or it arrives, whichever is later.
    fn endorse(&mut self, (client_node, tx, client_sig, arrived): Request) {
        let me = self.endpoint.id();
        let (shared, state) = (&self.chain.shared, &self.chain.state);
        if !shared.registry.is_agent(me, tx.app()) {
            return;
        }
        let Ok(contract) = shared.registry.contract(tx.app()) else {
            return;
        };
        // Just after the ledger head, where every sealed write is visible.
        let head = Version::new(self.chain.ledger.next_number(), SeqNo(0));
        let snapshot = SnapshotReader::at(state, &tx, head);
        // A rejection, by the application or by the access rule, endorses
        // an empty write set; the client will still order it and
        // validation will commit the no-op (Fabric endorsers would
        // refuse; the difference does not affect the measured paths
        // because the workload's transactions are balance-valid).
        let writes = pool::execute(contract.as_ref(), &tx, &snapshot)
            .into_writes()
            .unwrap_or_default();
        let read_versions = tx
            .rw_set()
            .reads()
            .iter()
            .map(|k| (*k, state.latest_version(*k)))
            .collect();
        let envelope = Envelope {
            read_versions,
            writes,
        };
        let signer = shared.spec.node_signer(me);
        let sig = shared
            .keys
            .sign(signer, &envelope.digest(&tx.wire_bytes()).0);
        let cost = shared.spec.costs.per_tx;
        let endorsement = Msg::Endorsement {
            tx,
            client_sig,
            envelope,
            endorser: me,
            sig,
        };
        self.endorsing
            .hold_in_turn((client_node, endorsement), arrived, cost);
    }
}

/// Phase 3: the MVCC validation pass (§II: Fabric "validates a
/// transaction … by checking the endorsement policy and read-write
/// conflicts and then updates the ledger"), plus the access rule: an
/// envelope writing outside its transaction's declared write set aborts.
fn validate(
    _shared: &Shared,
    state: &MvccState,
    tx: &Transaction,
    _position: Version,
) -> Option<Vec<(Key, Value)>> {
    Envelope::decode(tx.payload())
        .filter(|env| {
            env.read_versions
                .iter()
                .all(|(key, version)| state.latest_version(*key) == *version)
                && undeclared_write(tx, &env.writes).is_none()
        })
        .map(|env| env.writes)
}

impl Peer for XovPeer {
    fn chain(&self) -> (&Ledger, &MvccState) {
        (&self.chain.ledger, &self.chain.state)
    }

    fn summary(&self) -> PeerSummary {
        self.chain.summary()
    }
}

/// An XOV peer validates each admitted block at once and sends each
/// endorsement when its simulation is done.
impl Node for XovPeer {
    fn on_msg(&mut self, from: NodeId, msg: Msg) {
        match msg {
            Msg::EndorseReq { tx, sig } => {
                let arrived = self.chain.shared.clock.now();
                self.requests.push_back((from, tx, sig, arrived));
            }
            Msg::NewBlock {
                bundle,
                orderer,
                sig,
            } => {
                self.chain.on_new_block(from, bundle, orderer, &sig);
            }
            _ => {}
        }
    }

    /// Sends the endorsements done by `now` and, whenever the endorser is
    /// free, starts the next request.
    fn tick(&mut self, now: Instant) -> usize {
        let mut sent = 0;
        loop {
            while let Some((client, endorsement)) = self.endorsing.pop_due(now) {
                self.endpoint.send(client, endorsement);
                sent += 1;
            }
            if self.endorsing.next_due().is_some() {
                return sent;
            }
            let Some(request) = self.requests.pop_front() else {
                return sent;
            };
            self.endorse(request);
        }
    }

    fn next_deadline(&self, now: Instant) -> Option<Instant> {
        self.endorsing.next_due().filter(|&due| due > now)
    }

    fn as_peer(&self) -> Option<&dyn Peer> {
        Some(self)
    }
}

// ---- client ----------------------------------------------------------------

/// An endorsed transaction and the envelope its endorser signed.
type Endorsed = (Transaction, Envelope);

/// Phase 2 at the client node: collects the endorsements of the requests
/// the driver sent, and once τ(A) of them match on (transaction,
/// envelope) signs the envelope transaction and submits it to the
/// ordering service. The client keeps no copy of what it sent: its own
/// signature, returned with each transaction, shows an endorser did not
/// alter or invent it.
pub(crate) struct XovClient {
    shared: Arc<Shared>,
    endpoint: Endpoint<Msg>,
    /// Verified endorsements per transaction, one per endorser, until
    /// τ(A) match or every agent has answered.
    votes: HashMap<TxId, Vec<(NodeId, Endorsed)>>,
    /// Transactions whose tally is over before every agent answered,
    /// with the agents still to answer: their endorsements are dropped,
    /// and the entry goes with the last of them.
    decided: HashMap<TxId, Vec<NodeId>>,
}

impl XovClient {
    pub(crate) fn new(shared: Arc<Shared>, endpoint: Endpoint<Msg>) -> Self {
        XovClient {
            shared,
            endpoint,
            votes: HashMap::new(),
            decided: HashMap::new(),
        }
    }
}

/// The client reacts to endorsements; nothing is ever due later.
impl Node for XovClient {
    fn on_msg(&mut self, from: NodeId, msg: Msg) {
        let Msg::Endorsement {
            tx,
            client_sig,
            envelope,
            endorser,
            sig,
        } = msg
        else {
            return;
        };
        let (shared, id) = (&self.shared, tx.id());
        if from != endorser || !shared.registry.is_agent(endorser, tx.app()) {
            return;
        }
        if let Some(pending) = self.decided.get_mut(&id) {
            pending.retain(|&agent| agent != endorser);
            if pending.is_empty() {
                self.decided.remove(&id);
            }
            return;
        }
        let wire = tx.wire_bytes();
        let (client, node) = (
            shared.spec.client_signer(tx.client()),
            shared.spec.node_signer(endorser),
        );
        if !shared.keys.verify(client, &wire, &client_sig)
            || !shared.keys.verify(node, &envelope.digest(&wire).0, &sig)
        {
            return;
        }
        let required = shared.spec.tau();
        let endorsed = (tx, envelope);
        let votes = self.votes.entry(id).or_default();
        let Some(matched) = completes(votes, endorser, &endorsed, required, PartialEq::eq) else {
            return;
        };
        let answered = votes.len() + 1;
        if !matched && answered < shared.spec.executors_per_app {
            votes.push((endorser, endorsed));
            return;
        }
        let votes = self.votes.remove(&id).unwrap_or_default();
        if answered < shared.spec.executors_per_app {
            let mut pending = shared.registry.agents(endorsed.0.app());
            pending.retain(|&agent| agent != endorser && votes.iter().all(|(v, _)| *v != agent));
            self.decided.insert(id, pending);
        }
        if !matched {
            return;
        }
        let (tx, envelope) = endorsed;
        let envelope_tx = Transaction::new(
            tx.app(),
            tx.client(),
            id.client_ts,
            RwSet::from(tx.rw_set()),
            envelope.encode(),
        );
        let sig = shared.keys.sign(client, &envelope_tx.wire_bytes());
        let entry = shared.spec.entry_orderer();
        self.endpoint.send(
            entry,
            Msg::Request {
                tx: envelope_tx,
                sig,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use parblock_net::SimNetwork;
    use parblock_types::{Block, Clock, ExecutionCosts};
    use parblock_workload::WorkloadGen;

    use super::*;
    use crate::cluster::{ClusterSpec, SystemKind};
    use crate::shared::testing;

    /// The observer, an agent of application 0, as a stepped XOV peer
    /// with `Key(1)` at 10, under [`testing::lying`].
    fn lying_peer() -> (Arc<Shared>, Clock, SimNetwork<Msg>, XovPeer, Transaction) {
        let mut spec = ClusterSpec::new(SystemKind::Xov);
        spec.costs = ExecutionCosts::zero();
        let (shared, clock, net, tx) = testing::lying(spec);
        let mut peer = XovPeer::new(Arc::clone(&shared), net.endpoint(shared.spec.observer()));
        peer.chain.state = MvccState::with_genesis([(Key(1), Value::Int(10))]);
        (shared, clock, net, peer, tx)
    }

    /// `tx`'s client signature.
    fn client_sig(shared: &Shared, tx: &Transaction) -> Signature {
        shared
            .keys
            .sign(shared.spec.client_signer(tx.client()), &tx.wire_bytes())
    }

    /// `endorser`'s endorsement of `tx` with an empty envelope, signed
    /// by the endorser and carrying `client_sig`.
    fn endorsement(
        shared: &Shared,
        endorser: NodeId,
        tx: Transaction,
        client_sig: Signature,
    ) -> Msg {
        let envelope = Envelope {
            read_versions: vec![],
            writes: vec![],
        };
        let digest = envelope.digest(&tx.wire_bytes());
        let sig = shared
            .keys
            .sign(shared.spec.node_signer(endorser), &digest.0);
        Msg::Endorsement {
            tx,
            client_sig,
            envelope,
            endorser,
            sig,
        }
    }

    /// An endorser simulates under the access rule: the lying contract's
    /// undeclared write aborts, so it endorses an empty write set.
    #[test]
    fn an_undeclared_write_is_endorsed_as_an_empty_write_set() {
        let (shared, clock, net, mut peer, tx) = lying_peer();
        let client = net.endpoint(shared.spec.client_node());
        let sig = client_sig(&shared, &tx);
        peer.on_msg(client.id(), Msg::EndorseReq { tx, sig });
        assert_eq!(peer.tick(clock.now()), 1, "endorsing costs nothing here");
        net.deliver_due(clock.now() + Duration::from_secs(1));
        let Some(Msg::Endorsement { envelope, .. }) = client.try_recv().map(|e| e.msg) else {
            panic!("no endorsement reached the client");
        };
        assert_eq!(envelope.writes, vec![]);
        let genesis = Some(Version::GENESIS);
        assert_eq!(
            envelope.read_versions,
            vec![(Key(1), genesis), (Key(2), None)]
        );
    }

    /// A request queued behind another is simulated when its turn starts:
    /// a block validated while the first is endorsed shows in the
    /// second's read versions.
    #[test]
    fn a_queued_request_reads_the_state_at_its_turn() {
        let mut spec = ClusterSpec::new(SystemKind::Xov);
        spec.costs = ExecutionCosts::per_tx(Duration::from_millis(1));
        let (shared, clock, net) = testing::stepped(spec);
        let me = shared.spec.observer();
        let mut peer = XovPeer::new(Arc::clone(&shared), net.endpoint(me));
        let tx = WorkloadGen::new(shared.spec.workload_config())
            .take_txs(20)
            .into_iter()
            .find(|tx| shared.registry.is_agent(me, tx.app()))
            .expect("the observer endorses some application");
        let client = net.endpoint(shared.spec.client_node());
        for _ in 0..2 {
            let sig = client_sig(&shared, &tx);
            peer.on_msg(
                client.id(),
                Msg::EndorseReq {
                    tx: tx.clone(),
                    sig,
                },
            );
        }
        let start = clock.now();
        assert_eq!(peer.tick(start), 0);
        assert_eq!(
            peer.next_deadline(start),
            Some(start + Duration::from_millis(1))
        );

        // Halfway through the first endorsement, a block overwrites a key
        // both requests read.
        let key = tx.rw_set().writes()[0];
        assert!(tx.rw_set().reads().contains(&key));
        let envelope = Envelope {
            read_versions: vec![],
            writes: vec![(key, Value::Int(7))],
        };
        let ts = tx.id().client_ts + 1_000;
        let write = Transaction::new(
            tx.app(),
            tx.client(),
            ts,
            RwSet::from(tx.rw_set()),
            envelope.encode(),
        );
        let block = Arc::new(Block::new(
            BlockNumber(1),
            Ledger::genesis_hash(),
            vec![write],
        ));
        clock.advance_to(start + Duration::from_micros(500));
        let (orderer, msg) = testing::new_block(&shared, &block, None);
        peer.on_msg(orderer, msg);
        assert_eq!(peer.chain.ledger.next_number(), BlockNumber(2), "validated");

        for ms in [1, 2] {
            clock.advance_to(start + Duration::from_millis(ms));
            assert_eq!(peer.tick(clock.now()), 1, "one endorsement done at {ms} ms");
        }
        net.deliver_due(clock.now() + Duration::from_secs(1));
        let read_of_key = || {
            let Some(Msg::Endorsement { envelope, .. }) = client.try_recv().map(|e| e.msg) else {
                panic!("an endorsement is missing");
            };
            envelope
                .read_versions
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| *v)
        };
        assert_ne!(
            read_of_key(),
            Some(Some(Version::new(BlockNumber(1), SeqNo(0))))
        );
        assert_eq!(
            read_of_key(),
            Some(Some(Version::new(BlockNumber(1), SeqNo(0))))
        );
    }

    /// The client submits only the transaction it signed, and once: an
    /// endorser that returns an altered transaction (signing its own
    /// endorsement of it) gets nothing ordered, and a repeated
    /// endorsement after the submission is dropped while the
    /// application's other agent has yet to answer.
    #[test]
    fn the_client_submits_only_the_transaction_it_signed() {
        let mut spec = ClusterSpec::new(SystemKind::Xov);
        spec.executors_per_app = 2;
        spec.commit_quorum = Some(1);
        let (shared, clock, net) = testing::stepped(spec);
        let mut client =
            XovClient::new(Arc::clone(&shared), net.endpoint(shared.spec.client_node()));
        let orderer = net.endpoint(shared.spec.entry_orderer());
        let tx = WorkloadGen::new(shared.spec.workload_config())
            .take_txs(1)
            .remove(0);
        let endorser = shared.registry.agents(tx.app())[0];
        assert_eq!(shared.spec.tau(), 1, "τ(A) = 1");
        let sig = client_sig(&shared, &tx);
        let ts = tx.id().client_ts;
        let rw = RwSet::from(tx.rw_set());
        let altered = Transaction::new(tx.app(), tx.client(), ts, rw, vec![9]);
        let submitted = || {
            net.deliver_due(clock.now() + Duration::from_secs(1));
            std::iter::from_fn(|| orderer.try_recv()).count()
        };

        client.on_msg(endorser, endorsement(&shared, endorser, altered, sig));
        assert_eq!(submitted(), 0, "the altered transaction is not submitted");
        client.on_msg(endorser, endorsement(&shared, endorser, tx.clone(), sig));
        assert_eq!(submitted(), 1, "the signed one is");
        client.on_msg(endorser, endorsement(&shared, endorser, tx, sig));
        assert_eq!(submitted(), 0, "a late endorsement is dropped");
    }

    /// Once every agent of its application has answered, the client
    /// holds nothing for a transaction, whether the deciding answer came
    /// first (τ(A) = 1 of 2) or last (τ(A) = 2 of 2).
    #[test]
    fn the_client_forgets_a_transaction_every_agent_answered() {
        for quorum in [1, 2] {
            let mut spec = ClusterSpec::new(SystemKind::Xov);
            spec.executors_per_app = 2;
            spec.commit_quorum = Some(quorum);
            let (shared, _clock, net) = testing::stepped(spec);
            let mut client =
                XovClient::new(Arc::clone(&shared), net.endpoint(shared.spec.client_node()));
            let block = WorkloadGen::new(shared.spec.workload_config()).take_txs(20);
            for agent in 0..2 {
                for tx in &block {
                    let endorser = shared.registry.agents(tx.app())[agent];
                    let sig = client_sig(&shared, tx);
                    client.on_msg(endorser, endorsement(&shared, endorser, tx.clone(), sig));
                }
                let held = client.votes.len() + client.decided.len();
                assert_eq!(
                    held,
                    [block.len(), 0][agent],
                    "τ(A) = {quorum}, {} answered",
                    agent + 1
                );
            }
        }
    }

    /// A validator aborts an envelope whose writes leave its
    /// transaction's declared write set, even with fresh read versions.
    #[test]
    fn an_envelope_writing_outside_the_declared_set_aborts() {
        let (shared, _clock, _net, mut peer, tx) = lying_peer();
        let envelope = Envelope {
            read_versions: vec![(Key(1), Some(Version::GENESIS)), (Key(2), None)],
            writes: vec![(Key(1), Value::Int(5)), (Key(99), Value::Int(1))],
        };
        let rw = RwSet::from(tx.rw_set());
        let lying = Transaction::new(tx.app(), tx.client(), 0, rw, envelope.encode());
        let block = Arc::new(Block::new(
            BlockNumber(1),
            Ledger::genesis_hash(),
            vec![lying],
        ));
        testing::submit_all(&shared, &block);
        let (orderer, msg) = testing::new_block(&shared, &block, None);
        peer.on_msg(orderer, msg);
        let report = shared.metrics.report();
        assert_eq!((report.committed, report.aborted), (0, 1));
        assert_eq!(peer.chain.state.latest_version(Key(99)), None);
        assert_eq!(peer.chain.state.latest(Key(1)), Value::Int(10));
    }

    #[test]
    fn envelope_round_trip() {
        let envelope = Envelope {
            read_versions: vec![
                (Key(1), None),
                (Key(2), Some(Version::new(BlockNumber(3), SeqNo(4)))),
            ],
            writes: vec![
                (Key(1), Value::Int(-9)),
                (Key(5), Value::Unit),
                (Key(6), Value::Text("hi".into())),
                (Key(7), Value::Bytes(vec![1, 2])),
            ],
        };
        assert_eq!(Envelope::decode(&envelope.encode()), Some(envelope));
    }

    #[test]
    fn envelope_decode_rejects_garbage() {
        assert_eq!(Envelope::decode(&[1, 2, 3]), None);
        let mut bytes = Envelope {
            read_versions: vec![],
            writes: vec![(Key(1), Value::Int(1))],
        }
        .encode();
        bytes.push(0); // trailing garbage
        assert_eq!(Envelope::decode(&bytes), None);
    }

    #[test]
    fn digest_changes_with_content() {
        let a = Envelope {
            read_versions: vec![(Key(1), None)],
            writes: vec![],
        };
        let b = Envelope {
            read_versions: vec![(Key(2), None)],
            writes: vec![],
        };
        assert_ne!(a.digest(&[]), b.digest(&[]));
        assert_ne!(
            a.digest(&[1]),
            a.digest(&[2]),
            "the transaction is signed too"
        );
    }
}
