//! The snapshot a [`TraceRecorder`](crate::TraceRecorder) produces.

use parblock_types::wire::Wire;
use parblock_types::TxId;

use crate::histogram::Histogram;
use crate::stage::{Stage, STAGE_COUNT};

/// Latency distribution between two consecutively recorded stages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StagePair {
    /// Earlier stage.
    pub from: Stage,
    /// Later stage (the next one actually recorded for the
    /// transaction; one that skips a stage — e.g. the observer never
    /// dispatches another application's transaction — produces the
    /// skipping pair).
    pub to: Stage,
    /// Gap distribution in nanoseconds.
    pub hist: Histogram,
}

/// One sampled transaction's full lifecycle, as nanosecond offsets from
/// the recorder's origin (`None` = stage never recorded).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxTimeline {
    /// The transaction.
    pub tx: TxId,
    /// Per-stage timestamps, indexed by [`Stage::index`].
    pub stages: [Option<u64>; STAGE_COUNT],
}

/// Everything a run's tracing produced. The default value is the
/// disabled/empty report, which existing `RunReport` digests never see
/// (digest gating, DESIGN.md §14).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceReport {
    /// Whether tracing was on for the run.
    pub enabled: bool,
    /// Stage-pair latency histograms, ascending `(from, to)` order.
    pub pairs: Vec<StagePair>,
    /// Durability-layer seal (WAL append + fsync) durations in
    /// nanoseconds, recorded by the observer executor around its
    /// store's seal.
    pub seal: Histogram,
    /// Sampled full timelines (ring-buffer bounded).
    pub timelines: Vec<TxTimeline>,
    /// Transactions that reached [`Stage::Durable`] and folded into the
    /// histograms.
    pub finished: u64,
    /// Transactions dropped after an abort.
    pub aborted: u64,
    /// Transactions still in flight when the snapshot was taken.
    pub incomplete: u64,
    /// Sampled timelines evicted by the ring-buffer bound.
    pub dropped_timelines: u64,
}

impl TraceReport {
    /// `true` when this report carries (or could have carried) data:
    /// tracing was enabled, or something was recorded. A default report
    /// is inactive.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.enabled
            || !self.pairs.is_empty()
            || self.finished != 0
            || self.incomplete != 0
    }

    /// The histogram for a stage pair, if any transaction produced it.
    #[must_use]
    pub fn pair(&self, from: Stage, to: Stage) -> Option<&Histogram> {
        self.pairs
            .iter()
            .find(|pair| pair.from == from && pair.to == to)
            .map(|pair| &pair.hist)
    }

    /// Appends a canonical byte encoding. Iteration covers only the
    /// already-sorted `pairs` and `timelines` vectors, so the encoding
    /// is deterministic; under the virtual clock it is a pure function
    /// of the seed.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        u64::from(self.enabled).encode(out);
        self.finished.encode(out);
        self.aborted.encode(out);
        self.incomplete.encode(out);
        self.dropped_timelines.encode(out);
        self.seal.encode_into(out);
        (self.pairs.len() as u64).encode(out);
        for pair in &self.pairs {
            (pair.from.index() as u64).encode(out);
            (pair.to.index() as u64).encode(out);
            pair.hist.encode_into(out);
        }
        (self.timelines.len() as u64).encode(out);
        for timeline in &self.timelines {
            u64::from(timeline.tx.client.0).encode(out);
            timeline.tx.client_ts.encode(out);
            for slot in &timeline.stages {
                match slot {
                    Some(ns) => {
                        1u64.encode(out);
                        ns.encode(out);
                    }
                    None => 0u64.encode(out),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use parblock_types::ClientId;

    use super::*;

    #[test]
    fn default_report_is_inactive_and_encodes_stably() {
        let report = TraceReport::default();
        assert!(!report.is_active());
        let mut a = Vec::new();
        let mut b = Vec::new();
        report.encode_into(&mut a);
        report.encode_into(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn encoding_distinguishes_timelines() {
        let timeline = TxTimeline {
            tx: TxId::new(ClientId(1), 9),
            stages: [None; STAGE_COUNT],
        };
        let mut with = TraceReport {
            enabled: true,
            timelines: vec![timeline],
            ..TraceReport::default()
        };
        let mut bytes_with = Vec::new();
        with.encode_into(&mut bytes_with);
        with.timelines[0].stages[0] = Some(5);
        let mut bytes_changed = Vec::new();
        with.encode_into(&mut bytes_changed);
        assert_ne!(bytes_with, bytes_changed);
        assert!(with.is_active());
    }

    #[test]
    fn pair_lookup_finds_exact_pairs_only() {
        let mut hist = Histogram::new();
        hist.record(10);
        let report = TraceReport {
            enabled: true,
            pairs: vec![StagePair {
                from: Stage::Cut,
                to: Stage::GraphReady,
                hist,
            }],
            ..TraceReport::default()
        };
        assert!(report.pair(Stage::Cut, Stage::GraphReady).is_some());
        assert!(report.pair(Stage::Cut, Stage::Dispatched).is_none());
    }
}
