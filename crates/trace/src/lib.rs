//! Per-transaction lifecycle tracing (DESIGN.md §14).
//!
//! The saturation harness (DESIGN.md §13) says *that* the knee sits at a
//! rate; this crate says *where* the latency goes. Every transaction
//! moves through a fixed pipeline of stages — submitted → sequenced →
//! cut → graph-ready → dispatched → executed → committed → durable —
//! and the [`TraceRecorder`] stamps each stage with a timestamp from
//! the injectable [`parblock_types::Clock`], so the virtual-time sim
//! leg produces bit-reproducible traces.
//!
//! Two products come out of a run:
//!
//! * **Stage-pair histograms** ([`Histogram`]): mergeable, log-bucketed
//!   (HDR-style) latency distributions between consecutive recorded
//!   stages, exact enough that p50/p99/p999 agree with a sorted-vec
//!   nearest-rank percentile within one bucket (≤ 6.25% relative
//!   error).
//! * **Sampled timelines** ([`TxTimeline`]): full per-stage timestamp
//!   vectors for a deterministic (seed-independent, [`TxId`]-hashed)
//!   sample of transactions, bounded by a ring buffer, renderable as
//!   Chrome trace events.
//!
//! The recorder is near-free when disabled: a disabled
//! [`TraceRecorder`] is a `None` and every record call is a single
//! branch.
//!
//! [`TxId`]: parblock_types::TxId

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod histogram;
mod recorder;
mod report;
mod stage;

pub use histogram::{Histogram, BUCKETS, SUB_BUCKETS};
pub use recorder::{TraceConfig, TraceRecorder};
pub use report::{StagePair, TraceReport, TxTimeline};
pub use stage::{Stage, STAGE_COUNT};
