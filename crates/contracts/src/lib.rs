//! Smart contracts for the ParBlockchain reproduction.
//!
//! "For each application a program code including the logic of that
//! application (smart contract) is installed on a (non-empty) subset of
//! executor peers called the agents of the application" (§III).
//!
//! This crate provides:
//!
//! * the [`SmartContract`] trait — deterministic execution of a
//!   transaction against a read view of the state, producing an
//!   [`ExecOutcome`] (writes or an abort), the one result type every
//!   paradigm executes to and an OXII agent votes with in its COMMIT
//!   messages;
//! * [`AccountingContract`] — the paper's §V evaluation application
//!   (accounts, transfers, balance checks);
//! * [`KvContract`] — a contract with arbitrary read and write sets, for
//!   property tests of scheduling and serializability;
//! * [`AppRegistry`] — the Σ : A → 2^E agent mapping plus client access
//!   control, shared by orderers (for routing/ACL) and executors.
//!
//! # Examples
//!
//! ```
//! use parblock_contracts::{AccountingContract, AccountingOp, SmartContract};
//! use parblock_ledger::MvccState;
//! use parblock_types::{AppId, ClientId, Key, Value};
//!
//! let contract = AccountingContract::new(AppId(0));
//! let state = MvccState::with_genesis([(Key(1), Value::Int(100)), (Key(2), Value::Int(0))]);
//! let op = AccountingOp::Transfer { from: Key(1), to: Key(2), amount: 30 };
//! let tx = contract.transaction(ClientId(1), 0, &op);
//! let outcome = contract.execute(&tx, &state);
//! assert_eq!(outcome.writes().unwrap().len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod accounting;
mod kv_app;
mod registry;
mod traits;

pub use accounting::{AccountingContract, AccountingOp};
pub use kv_app::{KvContract, KvOp};
pub use registry::AppRegistry;
pub use traits::{ExecOutcome, SmartContract, StateReader};
