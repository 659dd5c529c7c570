//! Pluggable ordering consensus for OXII (§III-A).
//!
//! "OXII, similar to Fabric, uses a pluggable consensus protocol for
//! ordering … Depending on the characteristics of the network and peers
//! OXII might employ a Byzantine, a crash, or a hybrid fault-tolerant
//! protocol."
//!
//! Two protocols are provided behind the [`OrderingProtocol`] trait:
//!
//! * [`Pbft`] — Practical Byzantine Fault Tolerance (the protocol of the
//!   paper's Fig 2): three-phase pre-prepare/prepare/commit with view
//!   changes, tolerating `f` Byzantine orderers out of `3f + 1`.
//! * [`QuorumSequencer`] — a crash-fault-tolerant leader/follower
//!   replicated log modelling the Kafka ordering service the paper's
//!   evaluation deploys (leader appends, majority acks, commit), with a
//!   bully-style epoch change on leader failure.
//!
//! # Sans-io design
//!
//! Protocol instances are *pure state machines*: they consume events
//! (submitted payloads, messages, timer expirations) and emit
//! [`Action`]s (send, deliver, set timer). The hosting node performs I/O.
//! This makes every protocol decision deterministic and unit-testable
//! without threads; the `testing` module provides a single-threaded
//! cluster harness used across the workspace.
//!
//! # Simplifications (documented per DESIGN.md)
//!
//! * Message authenticity is provided by the transport (the simulated
//!   network stamps true sender identities), so protocol messages carry
//!   no per-message signatures.
//! * PBFT omits the checkpoint/garbage-collection sub-protocol (delivered
//!   slots are pruned directly) and view-change messages carry prepared
//!   payloads instead of signed proofs.
//! * The sequencer's epoch change re-proposes the new leader's stored
//!   suffix; appends stored only by a minority of followers may be lost
//!   and are the host's responsibility to resubmit (at-most-once, like an
//!   unacknowledged Kafka produce).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod action;
mod pbft;
mod sequencer;
pub mod testing;
mod traits;

pub use action::{Action, TimerId};
pub use pbft::{Pbft, PbftMsg};
pub use sequencer::{QuorumSequencer, SeqMsg};
pub use traits::{OrderingProtocol, Payload, ProtocolConfig};
