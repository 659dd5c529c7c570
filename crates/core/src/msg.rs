//! The cluster-wide message type.
//!
//! All three systems share one message enum so they can share the network
//! substrate and node runtime; each system simply never sends the other's
//! variants.

use std::sync::Arc;

use parblock_consensus::{PbftMsg, SeqMsg};
use parblock_contracts::ExecOutcome;
use parblock_crypto::{hash_wire, Sha256, Signature};
use parblock_depgraph::DependencyGraph;
use parblock_types::{Block, BlockNumber, Hash32, Key, NodeId, SeqNo, Transaction, Value};

/// Consensus-internal messages (orderer ↔ orderer).
#[derive(Debug, Clone)]
pub enum ConsMsg {
    /// PBFT traffic.
    Pbft(PbftMsg),
    /// Quorum-sequencer traffic.
    Seq(SeqMsg),
}

/// The immutable content of a NEWBLOCK announcement, shared by reference
/// between orderer copies (§IV-B: ⟨NEWBLOCK, n, B, G(B), A, o, h⟩).
#[derive(Debug)]
pub struct BlockBundle {
    /// The block `B` with sequence number `n` and hash link `h` inside
    /// its header. A peer's ledger appends this very object.
    pub block: Arc<Block>,
    /// `G(B)` — present in OXII; `None` in OX and XOV.
    pub graph: Option<DependencyGraph>,
    /// `H(B)`, the chain's hash link.
    pub hash: Hash32,
    /// What orderers sign and peers quorum-match on:
    /// [`BlockBundle::digest_of`] `hash` and `graph`.
    pub digest: Hash32,
}

impl BlockBundle {
    /// Bundles `block` with its graph, hashing both.
    #[must_use]
    pub fn new(block: Arc<Block>, graph: Option<DependencyGraph>) -> Self {
        let hash = hash_wire(block.as_ref());
        let digest = Self::digest_of(hash, graph.as_ref());
        BlockBundle {
            block,
            graph,
            hash,
            digest,
        }
    }

    /// The announcement digest: H(H(B) ‖ H(G(B))) over the graph's wire
    /// encoding in OXII, H(B) itself in OX and XOV, which carry no graph.
    #[must_use]
    pub fn digest_of(hash: Hash32, graph: Option<&DependencyGraph>) -> Hash32 {
        graph.map_or(hash, |graph| {
            let mut hasher = Sha256::new();
            hasher.update(&hash.0);
            hasher.update(&hash_wire(graph).0);
            hasher.finalize()
        })
    }
}

/// A sequencer leader's answer to an orderer that fetched offsets below
/// the leader's log start, sent ahead of the replay from the log start
/// (DESIGN.md §9). Only a restarted orderer fetches there.
#[derive(Debug)]
pub struct CatchUp {
    /// The leader's epoch; accepted only as an append from it would be.
    pub(crate) epoch: u64,
    /// The first offset the replay carries.
    pub(crate) log_start: u64,
    /// The leader orderer's state between two deliveries. An in-memory
    /// receiver installs it; a durable one keeps what its store
    /// recovered.
    pub(crate) state: crate::orderer::OrdererState,
}

/// An executor's COMMIT message (§IV-C, Algorithm 2): the execution
/// results `S = {(x, r)}` of one block that one node tick finished.
#[derive(Debug)]
pub struct CommitMsg {
    /// The block the results belong to.
    pub block: BlockNumber,
    /// Results per in-block position.
    pub results: Vec<(SeqNo, ExecOutcome)>,
    /// The executing agent.
    pub executor: NodeId,
    /// Signature over the results digest.
    pub sig: Signature,
}

/// An XOV endorsement envelope: the endorser's simulated execution
/// results, carried inside the ordered transaction's payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// Read set with the versions observed at endorsement time (`None`
    /// for keys absent from the endorser's state).
    pub read_versions: Vec<(Key, Option<parblock_ledger::Version>)>,
    /// The proposed writes.
    pub writes: Vec<(Key, Value)>,
}

/// Every message exchanged in a simulated cluster.
#[derive(Debug, Clone)]
pub enum Msg {
    /// Client REQUEST: ⟨REQUEST, op, A, ts_c, c⟩ signed by the client.
    Request {
        /// The transaction (operation, app, client timestamp).
        tx: Transaction,
        /// Client signature over the transaction bytes.
        sig: Signature,
    },
    /// Orderer ↔ orderer consensus traffic.
    Cons(ConsMsg),
    /// Sequencer leader → restarted orderer: where to resume.
    CatchUp(Arc<CatchUp>),
    /// NEWBLOCK from one orderer (bundle shared across orderer copies).
    NewBlock {
        /// The announced block (+ graph in OXII).
        bundle: Arc<BlockBundle>,
        /// The announcing orderer.
        orderer: NodeId,
        /// Orderer signature over the bundle's announcement digest.
        sig: Signature,
    },
    /// OXII executor COMMIT message.
    Commit(Arc<CommitMsg>),
    /// XOV: client asks an endorser to simulate a transaction.
    EndorseReq {
        /// The original transaction.
        tx: Transaction,
        /// Client signature over the transaction bytes.
        sig: Signature,
    },
    /// XOV: an endorser's reply.
    Endorsement {
        /// The endorsed transaction (its body shared with the request's).
        tx: Transaction,
        /// The client's signature over `tx`, returned with it.
        client_sig: Signature,
        /// The simulated results.
        envelope: Envelope,
        /// The endorsing peer.
        endorser: NodeId,
        /// Endorser signature over [`Envelope::digest`] of `tx`.
        sig: Signature,
    },
}
