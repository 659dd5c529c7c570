//! Core data types for the ParBlockchain (OXII) reproduction.
//!
//! This crate defines the vocabulary shared by every other crate in the
//! workspace: identifiers for nodes, applications and clients; transactions
//! with declared read/write sets (§III-A of the paper); blocks; and the
//! deterministic wire encoding used for hashing and signing.
//!
//! # Examples
//!
//! ```
//! use parblock_types::{AppId, ClientId, Key, RwSet, Transaction};
//!
//! let rw = RwSet::new([Key(1001)], [Key(1001), Key(1002)]);
//! let tx = Transaction::new(AppId(0), ClientId(7), 1, rw, vec![1, 2, 3]);
//! assert!(tx.rw_set().conflicts_with(tx.rw_set()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod block;
mod clock;
mod config;
mod error;
mod ids;
mod rwset;
mod transaction;
mod value;
pub mod wire;

pub use block::{Block, BlockHeader, Hash32};
pub use clock::Clock;
pub use config::{ArrivalProcess, BlockCutConfig, DurabilityConfig, ExecutionCosts, ExecutionMode};
pub use error::TypeError;
pub use ids::{AppId, BlockNumber, ClientId, NodeId, Role, SeqNo, TxId};
pub use rwset::{Key, RwRef, RwSet};
pub use transaction::{Timestamp, Transaction};
pub use value::Value;
