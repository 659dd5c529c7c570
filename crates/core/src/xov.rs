//! The execute-order-validate (XOV) baseline: Hyperledger Fabric's
//! paradigm (§II, Fig 1c).
//!
//! 1. The client sends its request to the endorsers of the application;
//!    each endorser *simulates* the transaction against its current state
//!    and returns the read versions and proposed writes.
//! 2. The client assembles an envelope from a sufficient number of
//!    matching endorsements and submits it to the ordering service.
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

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use parblock_crypto::sha256;
use parblock_ledger::{MvccState, Version};
use parblock_net::Endpoint;
use parblock_types::wire::{Reader, Wire};
use parblock_types::{BlockNumber, Hash32, Key, NodeId, SeqNo, Transaction, TxId, Value};
use parblock_workload::WorkloadGen;

use crate::msg::{Envelope, Msg};
use crate::node::Node;
use crate::ox::SerialChain;
use crate::pool::{self, undeclared_write, SnapshotReader};
use crate::quorum::matched_by;
use crate::shared::Shared;

const TICK: Duration = Duration::from_millis(1);

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
        (self.writes.len() as u64).encode(&mut out);
        for (key, value) in &self.writes {
            key.0.encode(&mut out);
            value.encode(&mut out);
        }
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
        let n_writes = usize::try_from(reader.u64()?).ok()?;
        let mut writes = Vec::with_capacity(n_writes.min(4096));
        for _ in 0..n_writes {
            let key = Key(reader.u64()?);
            writes.push((key, Value::decode(&mut reader)?));
        }
        reader.is_exhausted().then_some(Envelope {
            read_versions,
            writes,
        })
    }

    /// Digest for endorsement signatures and matching.
    #[must_use]
    pub fn digest(&self) -> Hash32 {
        sha256(&self.encode())
    }
}

// ---- peer (endorser + validator) ----------------------------------------

/// An XOV peer: endorser for its applications, validator for all blocks.
pub(crate) struct XovPeer {
    endpoint: Endpoint<Msg>,
    chain: SerialChain,
}

impl XovPeer {
    pub(crate) fn new(shared: Arc<Shared>, endpoint: Endpoint<Msg>) -> Self {
        let chain = SerialChain::new(shared, endpoint.id());
        XovPeer { endpoint, chain }
    }

    /// Phase 1: simulate the transaction and return the endorsement.
    ///
    /// Endorsers execute requests one at a time (the paper: "XOV can
    /// execute 3 — the number of applications — transactions in
    /// parallel", i.e. one per endorser).
    fn endorse(&mut self, client_node: NodeId, tx: Transaction) {
        let me = self.endpoint.id();
        let (shared, state) = (&self.chain.shared, &self.chain.state);
        if !shared.registry.is_agent(me, tx.app()) {
            return;
        }
        let per_tx = shared.spec.costs.per_tx;
        if !per_tx.is_zero() {
            std::thread::sleep(per_tx);
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
        let sig = shared.keys.sign(signer, &envelope.digest().0);
        self.endpoint.send(
            client_node,
            Msg::Endorsement {
                tx: tx.id(),
                envelope,
                endorser: me,
                sig,
            },
        );
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

// ---- client driver -------------------------------------------------------

/// Pending endorsement collection at the client.
struct PendingTx {
    tx: Transaction,
    votes: Vec<(NodeId, Envelope)>,
}

/// Runs the XOV client driver: rate-paced endorsement requests, envelope
/// assembly, and submission to the orderers.
pub(crate) fn run_xov_driver(
    shared: &Arc<Shared>,
    endpoint: &Endpoint<Msg>,
    rate_tps: f64,
    duration: Duration,
) {
    let mut gen = WorkloadGen::new(shared.spec.workload_config());
    let mut buffer: std::collections::VecDeque<Transaction> = Default::default();
    let mut pending: HashMap<TxId, PendingTx> = HashMap::new();
    let entry = shared.spec.entry_orderer();
    let mut acc = 0.0f64;
    let start = shared.clock.now();
    let mut last_accrual = start;

    while !shared.stop.load(Ordering::Relaxed) {
        let in_submit_window = shared.clock.now().duration_since(start) < duration;
        if !in_submit_window && pending.is_empty() {
            break;
        }
        let tick_start = shared.clock.now();
        if in_submit_window {
            // Accrue budget by the time actually elapsed, not one tick
            // per iteration: an endorsement phase that overruns its tick
            // must not silently shrink the offered rate (pacing drift).
            acc += rate_tps * tick_start.duration_since(last_accrual).as_secs_f64();
            last_accrual = tick_start;
            let n = acc.floor() as usize;
            acc -= n as f64;
            for _ in 0..n {
                let tx = match buffer.pop_front() {
                    Some(tx) => tx,
                    None => {
                        buffer.extend(gen.window());
                        buffer.pop_front().expect("window is non-empty")
                    }
                };
                shared.metrics.record_submit(tx.id());
                // Phase 1: ask every agent of the application.
                for agent in shared.registry.agents(tx.app()) {
                    endpoint.send(agent, Msg::EndorseReq { tx: tx.clone() });
                }
                pending.insert(tx.id(), PendingTx { tx, votes: Vec::new() });
            }
        }
        // Phase 2: collect endorsements until the tick budget is spent.
        while shared.clock.now().duration_since(tick_start) < TICK {
            let wait = TICK.saturating_sub(shared.clock.now().duration_since(tick_start));
            let Ok(envelope) = endpoint.recv_timeout(wait.max(Duration::from_micros(50))) else {
                break;
            };
            let Msg::Endorsement {
                tx: tx_id,
                envelope: endorsement,
                endorser,
                sig,
            } = envelope.msg
            else {
                continue;
            };
            let signer = shared.spec.node_signer(endorser);
            if !shared.keys.verify(signer, &endorsement.digest().0, &sig) {
                continue;
            }
            let Some(entry_state) = pending.get_mut(&tx_id) else {
                continue;
            };
            if !shared.registry.is_agent(endorser, entry_state.tx.app()) {
                continue;
            }
            if entry_state.votes.iter().any(|(a, _)| *a == endorser) {
                continue;
            }
            entry_state.votes.push((endorser, endorsement));
            let required = shared.spec.commit_policy().required(entry_state.tx.app());
            // Enough matching endorsements → assemble and order.
            let matched = matched_by(&entry_state.votes, required, Envelope::eq).cloned();
            if let Some(envelope) = matched {
                let pending_tx = pending.remove(&tx_id).expect("present");
                let tx = pending_tx.tx;
                let envelope_tx = Transaction::new(
                    tx.app(),
                    tx.client(),
                    tx.id().client_ts,
                    tx.rw_set().clone(),
                    envelope.encode(),
                );
                let signer = shared.spec.client_signer(envelope_tx.client());
                let sig = shared.keys.sign(signer, &envelope_tx.wire_bytes());
                endpoint.send(entry, Msg::Request { tx: envelope_tx, sig });
            }
        }
        // Give up on endorsements only when the run is over.
        if !in_submit_window
            && shared.clock.now().duration_since(start) > duration + Duration::from_secs(5)
        {
            break;
        }
    }
}

/// An XOV peer reacts to endorsement requests (sleeping its cost model
/// inside) and to NEWBLOCKs; nothing is ever due later.
impl Node for XovPeer {
    fn on_msg(&mut self, from: NodeId, msg: Msg) {
        match msg {
            Msg::EndorseReq { tx } => self.endorse(from, tx),
            Msg::NewBlock {
                bundle,
                orderer,
                sig,
            } => self
                .chain
                .on_new_block(from, bundle, orderer, &sig, validate),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use parblock_ledger::Ledger;
    use parblock_net::SimNetwork;
    use parblock_types::{Block, Clock, ExecutionCosts};

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

    /// An endorser simulates under the access rule: the lying contract's
    /// undeclared write aborts, so it endorses an empty write set.
    #[test]
    fn an_undeclared_write_is_endorsed_as_an_empty_write_set() {
        let (shared, clock, net, mut peer, tx) = lying_peer();
        let client = net.endpoint(shared.spec.client_node());
        peer.on_msg(client.id(), Msg::EndorseReq { tx });
        net.deliver_due(clock.now() + Duration::from_secs(1));
        let Some(Msg::Endorsement { envelope, .. }) = client.try_recv().map(|e| e.msg) else {
            panic!("no endorsement reached the client");
        };
        assert_eq!(envelope.writes, vec![]);
        let genesis = Some(Version::GENESIS);
        assert_eq!(envelope.read_versions, vec![(Key(1), genesis), (Key(2), None)]);
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
        let rw = tx.rw_set().clone();
        let lying = Transaction::new(tx.app(), tx.client(), 0, rw, envelope.encode());
        let block = Arc::new(Block::new(BlockNumber(1), Ledger::genesis_hash(), vec![lying]));
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
        assert_ne!(a.digest(), b.digest());
    }
}
