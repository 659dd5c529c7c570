//! An in-process simulated network for the ParBlockchain reproduction.
//!
//! The paper's network model (§III): every pair of peers is connected by a
//! point-to-point, pairwise-authenticated, bidirectional channel in an
//! asynchronous distributed network. The evaluation additionally places
//! node groups in different Amazon datacenters (Fig 7).
//!
//! This crate reproduces that model in one process:
//!
//! * each node owns an [`Endpoint`] with a private mailbox;
//! * a send applies the link latency of a [`Topology`] of datacenters
//!   and holds the message in its destination's shard until it is due;
//!   the receiving endpoint then moves it into its own mailbox when it
//!   next receives or waits (or, under manual delivery,
//!   [`SimNetwork::deliver_due`] does). No thread runs inside the
//!   network;
//! * [`Faults`] silences links, crashes nodes and partitions groups at
//!   runtime;
//! * [`NetStats`] counts traffic for the message-complexity ablations.
//!
//! The network draws no randomness: a message's fate and due time are
//! a function of the topology, the fault plan and the clock, so under
//! manual delivery on a simulated clock a run replays exactly.
//!
//! Messages are plain Rust values (`M: Send`): transport serialization is
//! not simulated, signatures/hashes are applied by the protocol layers
//! where the paper requires them.
//!
//! # Examples
//!
//! ```
//! use std::time::Duration;
//! use parblock_net::{NetworkBuilder, Topology};
//! use parblock_types::NodeId;
//!
//! let net = NetworkBuilder::new()
//!     .topology(Topology::single_dc(Duration::from_micros(100)))
//!     .build::<String>();
//! let a = net.endpoint(NodeId(0));
//! let b = net.endpoint(NodeId(1));
//! a.send(NodeId(1), "hello".to_string());
//! let envelope = b.recv_timeout(Duration::from_secs(1)).unwrap();
//! assert_eq!(envelope.from, NodeId(0));
//! assert_eq!(envelope.msg, "hello");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Unit tests may read the wall clock, spawn threads and touch files;
// product code answers to `clippy.toml` (DESIGN.md §12).
#![cfg_attr(test, allow(clippy::disallowed_methods))]

mod endpoint;
mod engine;
mod faults;
mod stats;
mod topology;

pub use endpoint::{Endpoint, Envelope, RecvError, Waker};
pub use engine::{NetworkBuilder, SimNetwork};
pub use faults::Faults;
pub use stats::NetStats;
pub use topology::{DcId, Topology};
