//! Durable node storage for the ParBlockchain reproduction.
//!
//! ParBlockchain's nodes are stateful services: orderers own the
//! blockchain ledger and agents own the application datastore (§III).
//! This crate gives each node a crash-safe on-disk substrate — the same
//! role the persistent block/state stores play under DiPETrans' and
//! Conflux's parallel-execution layers — using only `std`:
//!
//! * [`wal::Wal`] — a segmented append-only **write-ahead log** of
//!   committed transaction effects and block-seal markers, with
//!   length+CRC32-framed records, group-commit fsync batching, and
//!   torn-tail truncation on open.
//! * A **block store** (`blocks.log`) persisting sealed blocks and
//!   their dependency graphs in commit order.
//! * Periodic **state checkpoints** snapshotting the multi-version
//!   state at the commit watermark, after which WAL segments below the
//!   checkpoint are deleted.
//! * [`Store::open`] — the **recovery path**: newest intact checkpoint
//!   plus WAL replay rebuilds the chain head, the [`MvccState`] (via
//!   [`Recovered::overlay_state`]), and the executor watermark.
//!
//! A durable node holds one [`Store`]: it logs each committed
//! write-set with [`Store::log_effects`], seals each block with
//! [`Store::seal_block`], and writes a checkpoint whenever
//! [`Store::checkpoint_due`]; [`Store::stats`] reports the
//! [`DurabilityStats`] those calls accumulate. [`reconcile_cluster`]
//! performs the file-level startup state transfer that brings every
//! node of a killed cluster to one consistent watermark before a
//! restart.
//!
//! The durability invariants (persist-before-COMMIT, seal ordering,
//! checkpoint/truncation coupling) are documented in DESIGN.md §9.
//!
//! [`MvccState`]: parblock_ledger::MvccState
//!
//! # Examples
//!
//! ```
//! use parblock_ledger::{Ledger, Version};
//! use parblock_store::Store;
//! use parblock_types::{Block, BlockNumber, DurabilityConfig, Key, SeqNo, Value};
//!
//! let dir = std::env::temp_dir().join(format!("store-doc-{}", std::process::id()));
//! let (mut store, recovered) = Store::open(&dir, DurabilityConfig::default())?;
//! assert!(recovered.is_empty());
//!
//! // Log a transaction's effects, then seal the block they belong to.
//! let version = Version::new(BlockNumber(1), SeqNo(0));
//! store.log_effects(version, &[(Key(1), Value::Int(42))])?;
//! let block = Block::new(BlockNumber(1), Ledger::genesis_hash(), vec![]);
//! let head = parblock_crypto::hash_wire(&block);
//! store.seal_block(&block, None, head)?;
//!
//! // A reopened store recovers the sealed chain and state.
//! drop(store);
//! let (_, recovered) = Store::open(&dir, DurabilityConfig::default())?;
//! assert_eq!(recovered.watermark, BlockNumber(1));
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok::<(), std::io::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod blocks;
mod checkpoint;
mod frame;
mod store;
#[doc(hidden)]
pub mod testutil;
pub mod wal;

pub use checkpoint::Checkpoint;
pub use frame::crc32;
pub use store::{reconcile_cluster, DurabilityStats, Recovered, Store};
pub use wal::tear_wal_tail;
