//! Dependency graphs for OXII blocks — the core contribution of the
//! ParBlockchain paper (§III-A).
//!
//! Given a block of transactions with declared read/write sets, orderers
//! build a *dependency graph*: a DAG whose vertices are the block's
//! transactions and whose edges are the *ordering dependencies*
//! `Ti ⤳ Tj` (with `ts(Ti) < ts(Tj)`) induced by read-write, write-read and
//! write-write conflicts. The graph, on the one hand, gives a partial order
//! based on the conflicts between transactions; on the other hand, it
//! enables higher concurrency by allowing parallel execution of
//! non-conflicting transactions.
//!
//! # Examples
//!
//! Reconstructing the paper's Fig 2 example block
//! `[T1, T5, T4, T3, T2]`:
//!
//! ```
//! use parblock_depgraph::DependencyGraph;
//! use parblock_types::{AppId, Block, BlockNumber, ClientId, Hash32, Key, RwSet, SeqNo,
//!     Transaction};
//!
//! let tx = |client: u32, rw: RwSet| {
//!     Transaction::new(AppId(0), ClientId(client), 0, rw, vec![])
//! };
//! // Keys: a=1, b=2, d=4, e=5, f=6. T1 reads a, writes b; T5 reads e,
//! // writes d; T4 reads b, writes f; T3 writes e; T2 writes d.
//! let block = Block::new(BlockNumber(1), Hash32::ZERO, vec![
//!     tx(1, RwSet::new([Key(1)], [Key(2)])),          // T1 @0
//!     tx(5, RwSet::new([Key(5)], [Key(4)])),          // T5 @1
//!     tx(4, RwSet::new([Key(2)], [Key(6)])),          // T4 @2
//!     tx(3, RwSet::new([], [Key(5)])),                // T3 @3
//!     tx(2, RwSet::new([], [Key(4)])),                // T2 @4
//! ]);
//! let graph = DependencyGraph::build(&block);
//! // Edges of Fig 2: (T1,T4), (T5,T2), (T5,T3).
//! assert!(graph.has_edge(SeqNo(0), SeqNo(2)));
//! assert!(graph.has_edge(SeqNo(1), SeqNo(4)));
//! assert!(graph.has_edge(SeqNo(1), SeqNo(3)));
//! assert_eq!(graph.edge_count(), 3);
//! // Every pair conflicts at most once here, so the pairwise reference
//! // has the very same edges.
//! assert_eq!(graph, DependencyGraph::pairwise(&block));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
mod builder;
mod graph;
mod schedule;
mod streaming;

pub use analysis::ConflictStats;
pub use builder::DependencyMode;
pub use graph::DependencyGraph;
pub use schedule::{ExecutionLayers, ReadyTracker};
pub use streaming::{CrossBlockIndex, StreamingBuilder};
