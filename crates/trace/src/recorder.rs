//! The per-transaction lifecycle recorder.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use parblock_types::{Clock, TxId};

use crate::histogram::Histogram;
use crate::report::{StagePair, TraceReport, TxTimeline};
use crate::stage::{Stage, STAGE_COUNT};

/// Sentinel for "stage not recorded" in a timestamp slot (a real offset
/// of `u64::MAX` ns is ~584 years past the clock origin).
const UNSET: u64 = u64::MAX;

/// Tracing configuration, carried by `ClusterSpec`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Master switch. Disabled (the default) costs one branch per
    /// record call.
    pub enabled: bool,
    /// Timeline sampling rate: a transaction's full timeline is kept
    /// when the low `sample_shift` bits of its hashed [`TxId`] are zero
    /// (1 in `2^sample_shift`; 0 keeps every transaction). Hashing the
    /// id — not counting arrivals — keeps the sample deterministic
    /// across runs and engines.
    pub sample_shift: u32,
    /// Ring-buffer bound on retained timelines: beyond this the oldest
    /// sampled timeline is dropped (and counted).
    pub sample_cap: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            enabled: false,
            sample_shift: 4,
            sample_cap: 256,
        }
    }
}

impl TraceConfig {
    /// An enabled configuration with default sampling (1 in 16, 256
    /// retained timelines).
    #[must_use]
    pub fn on() -> Self {
        TraceConfig {
            enabled: true,
            ..TraceConfig::default()
        }
    }
}

/// SplitMix64 finalizer: disperses [`TxId`]s for sampling.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn sampled(tx: TxId, shift: u32) -> bool {
    shift == 0 || mix64((u64::from(tx.client.0) << 32) ^ tx.client_ts) & ((1 << shift) - 1) == 0
}

#[derive(Debug)]
struct State {
    /// Stage timestamps (ns since origin, [`UNSET`] until recorded) for
    /// transactions that have not yet reached [`Stage::Durable`].
    inflight: HashMap<TxId, [u64; STAGE_COUNT]>,
    /// `pairs[from * STAGE_COUNT + to]`: latency between consecutive
    /// *recorded* stages, folded in when a transaction finishes.
    pairs: Vec<Histogram>,
    /// Durability-layer seal (WAL append + fsync) durations, recorded
    /// by the observer executor around its store's seal.
    seal: Histogram,
    timelines: VecDeque<TxTimeline>,
    finished: u64,
    aborted: u64,
    dropped_timelines: u64,
}

#[derive(Debug)]
struct Inner {
    config: TraceConfig,
    clock: Clock,
    origin: Instant,
    state: Mutex<State>,
}

/// Records stage timestamps for every transaction and folds them into
/// stage-pair histograms when the transaction completes.
///
/// Cheap to clone (an `Arc`); the default value is disabled and records
/// nothing. All timestamps come from the injected [`Clock`], stored as
/// nanoseconds since the recorder's creation instant — under the
/// virtual clock this makes whole traces a pure function of the seed.
#[derive(Debug, Clone, Default)]
pub struct TraceRecorder {
    inner: Option<Arc<Inner>>,
}

impl TraceRecorder {
    /// Creates a recorder reading `clock`; disabled configs yield the
    /// free recorder.
    #[must_use]
    pub fn new(clock: &Clock, config: TraceConfig) -> Self {
        if !config.enabled {
            return TraceRecorder::default();
        }
        TraceRecorder {
            inner: Some(Arc::new(Inner {
                config,
                clock: clock.clone(),
                origin: clock.now(),
                state: Mutex::new(State {
                    inflight: HashMap::new(),
                    pairs: vec![Histogram::new(); STAGE_COUNT * STAGE_COUNT],
                    seal: Histogram::new(),
                    timelines: VecDeque::new(),
                    finished: 0,
                    aborted: 0,
                    dropped_timelines: 0,
                }),
            })),
        }
    }

    /// `true` when this recorder actually records.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Records `stage` for `tx` at the clock's current instant.
    pub fn record(&self, tx: TxId, stage: Stage) {
        let Some(inner) = self.inner.as_deref() else {
            return;
        };
        self.record_offset(inner, tx, stage, inner.clock.ns_since(inner.origin));
    }

    /// Records `stage` for `tx` at an explicit instant (the driver
    /// stamps [`Stage::Submitted`] with the *intended* arrival, so
    /// driver overruns are charged to the pipeline, not hidden).
    pub fn record_at(&self, tx: TxId, stage: Stage, at: Instant) {
        let Some(inner) = self.inner.as_deref() else {
            return;
        };
        self.record_offset(inner, tx, stage, offset_ns(inner.origin, at));
    }

    /// Records [`Stage::Durable`] for a whole block's transactions at
    /// one instant (one lock, one clock read).
    pub fn record_durable_block(&self, ids: impl IntoIterator<Item = TxId>) {
        let Some(inner) = self.inner.as_deref() else {
            return;
        };
        let ns = inner.clock.ns_since(inner.origin);
        let mut state = inner.state.lock().expect("trace state");
        for tx in ids {
            record_slot(&mut state, &inner.config, tx, Stage::Durable, ns);
        }
    }

    /// Records one durability-layer seal (WAL append + fsync) duration.
    pub fn record_seal(&self, started: Instant) {
        let Some(inner) = self.inner.as_deref() else {
            return;
        };
        let ns = duration_ns(inner.clock.now().saturating_duration_since(started));
        let mut state = inner.state.lock().expect("trace state");
        state.seal.record(ns);
    }

    /// Forgets an aborted transaction (its partial timeline would
    /// otherwise be counted as incomplete).
    pub fn drop_tx(&self, tx: TxId) {
        let Some(inner) = self.inner.as_deref() else {
            return;
        };
        let mut state = inner.state.lock().expect("trace state");
        if state.inflight.remove(&tx).is_some() {
            state.aborted += 1;
        }
    }

    fn record_offset(&self, inner: &Inner, tx: TxId, stage: Stage, ns: u64) {
        let mut state = inner.state.lock().expect("trace state");
        record_slot(&mut state, &inner.config, tx, stage, ns);
    }

    /// Snapshots the recorded data. Transactions still in flight are
    /// counted as incomplete and discarded (mirroring
    /// `Metrics::report`'s submit-map prune).
    #[must_use]
    pub fn snapshot(&self) -> TraceReport {
        let Some(inner) = self.inner.as_deref() else {
            return TraceReport::default();
        };
        let mut state = inner.state.lock().expect("trace state");
        let incomplete = state.inflight.len() as u64;
        state.inflight.clear();
        let mut pairs = Vec::new();
        for (index, hist) in state.pairs.iter().enumerate() {
            if !hist.is_empty() {
                let from = Stage::from_index(index / STAGE_COUNT).expect("pair index");
                let to = Stage::from_index(index % STAGE_COUNT).expect("pair index");
                pairs.push(StagePair {
                    from,
                    to,
                    hist: hist.clone(),
                });
            }
        }
        TraceReport {
            enabled: true,
            pairs,
            seal: state.seal.clone(),
            timelines: state.timelines.iter().cloned().collect(),
            finished: state.finished,
            aborted: state.aborted,
            incomplete,
            dropped_timelines: state.dropped_timelines,
        }
    }
}

fn offset_ns(origin: Instant, at: Instant) -> u64 {
    duration_ns(at.saturating_duration_since(origin))
}

fn duration_ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// First-record-wins slot write; a [`Stage::Durable`] record finishes
/// the transaction: consecutive recorded stages fold into the pair
/// histograms and the (sampled) timeline enters the ring buffer.
fn record_slot(state: &mut State, config: &TraceConfig, tx: TxId, stage: Stage, ns: u64) {
    let slots = state.inflight.entry(tx).or_insert([UNSET; STAGE_COUNT]);
    if slots[stage.index()] == UNSET {
        slots[stage.index()] = ns;
    }
    if stage != Stage::Durable {
        return;
    }
    let slots = state.inflight.remove(&tx).expect("just inserted");
    let mut previous: Option<(usize, u64)> = None;
    for (index, &at) in slots.iter().enumerate() {
        if at == UNSET {
            continue;
        }
        if let Some((from, from_ns)) = previous {
            state.pairs[from * STAGE_COUNT + index].record(at.saturating_sub(from_ns));
        }
        previous = Some((index, at));
    }
    state.finished += 1;
    if sampled(tx, config.sample_shift) {
        let stages = slots.map(|at| (at != UNSET).then_some(at));
        state.timelines.push_back(TxTimeline { tx, stages });
        if state.timelines.len() > config.sample_cap {
            state.timelines.pop_front();
            state.dropped_timelines += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use parblock_types::ClientId;

    use super::*;

    fn tx(n: u64) -> TxId {
        TxId::new(ClientId(0), n)
    }

    #[test]
    fn disabled_recorder_is_free_and_reports_nothing() {
        let recorder = TraceRecorder::default();
        assert!(!recorder.enabled());
        recorder.record(tx(1), Stage::Submitted);
        recorder.record_durable_block([tx(1)]);
        let report = recorder.snapshot();
        assert_eq!(report, TraceReport::default());
        assert!(!report.enabled);
    }

    #[test]
    fn stage_deltas_fold_into_pair_histograms_on_durable() {
        let clock = Clock::simulated();
        let recorder = TraceRecorder::new(
            &clock,
            TraceConfig {
                sample_shift: 0,
                ..TraceConfig::on()
            },
        );
        recorder.record(tx(1), Stage::Submitted);
        clock.advance(Duration::from_micros(100));
        recorder.record(tx(1), Stage::Sequenced);
        clock.advance(Duration::from_micros(50));
        // Cut … Executed never recorded: the fold skips them.
        recorder.record(tx(1), Stage::Committed);
        clock.advance(Duration::from_micros(10));
        recorder.record_durable_block([tx(1)]);

        let report = recorder.snapshot();
        assert_eq!(report.finished, 1);
        assert_eq!(report.incomplete, 0);
        let submit_seq = report.pair(Stage::Submitted, Stage::Sequenced).expect("pair");
        assert_eq!(submit_seq.count(), 1);
        assert_eq!(submit_seq.min(), Some(100_000));
        let seq_commit = report.pair(Stage::Sequenced, Stage::Committed).expect("pair");
        assert_eq!(seq_commit.min(), Some(50_000));
        assert!(report.pair(Stage::Sequenced, Stage::Cut).is_none());
        assert_eq!(report.timelines.len(), 1);
        let timeline = &report.timelines[0];
        assert_eq!(timeline.stages[Stage::Submitted.index()], Some(0));
        assert_eq!(timeline.stages[Stage::Cut.index()], None);
        assert_eq!(timeline.stages[Stage::Durable.index()], Some(160_000));
    }

    #[test]
    fn first_record_wins_and_unfinished_count_as_incomplete() {
        let clock = Clock::simulated();
        let recorder = TraceRecorder::new(&clock, TraceConfig::on());
        recorder.record(tx(7), Stage::Dispatched);
        clock.advance(Duration::from_millis(1));
        recorder.record(tx(7), Stage::Dispatched); // re-execution: ignored
        let report = recorder.snapshot();
        assert_eq!(report.incomplete, 1);
        assert_eq!(report.finished, 0);
        // The snapshot drained the in-flight map.
        assert_eq!(recorder.snapshot().incomplete, 0);
    }

    #[test]
    fn aborted_transactions_are_dropped_not_incomplete() {
        let clock = Clock::simulated();
        let recorder = TraceRecorder::new(&clock, TraceConfig::on());
        recorder.record(tx(3), Stage::Submitted);
        recorder.drop_tx(tx(3));
        let report = recorder.snapshot();
        assert_eq!(report.aborted, 1);
        assert_eq!(report.incomplete, 0);
    }

    #[test]
    fn ring_buffer_bounds_sampled_timelines() {
        let clock = Clock::simulated();
        let recorder = TraceRecorder::new(
            &clock,
            TraceConfig {
                sample_shift: 0,
                sample_cap: 2,
                ..TraceConfig::on()
            },
        );
        for n in 0..5 {
            recorder.record(tx(n), Stage::Submitted);
            clock.advance(Duration::from_micros(1));
            recorder.record_durable_block([tx(n)]);
        }
        let report = recorder.snapshot();
        assert_eq!(report.finished, 5);
        assert_eq!(report.timelines.len(), 2, "ring keeps the most recent");
        assert_eq!(report.dropped_timelines, 3);
        assert_eq!(report.timelines[0].tx, tx(3));
        assert_eq!(report.timelines[1].tx, tx(4));
    }

    #[test]
    fn sampling_is_a_deterministic_function_of_the_id() {
        let keep_all: Vec<bool> = (0..64).map(|n| sampled(tx(n), 0)).collect();
        assert!(keep_all.iter().all(|&k| k));
        let one_in_16a: Vec<bool> = (0..256).map(|n| sampled(tx(n), 4)).collect();
        let one_in_16b: Vec<bool> = (0..256).map(|n| sampled(tx(n), 4)).collect();
        assert_eq!(one_in_16a, one_in_16b);
        let kept = one_in_16a.iter().filter(|&&k| k).count();
        assert!(kept > 0 && kept < 256, "roughly 1 in 16, got {kept}/256");
    }

    #[test]
    fn seal_durations_land_in_the_seal_histogram() {
        let clock = Clock::simulated();
        let recorder = TraceRecorder::new(&clock, TraceConfig::on());
        let started = clock.now();
        clock.advance(Duration::from_micros(250));
        recorder.record_seal(started);
        let report = recorder.snapshot();
        assert_eq!(report.seal.count(), 1);
        assert_eq!(report.seal.min(), Some(250_000));
    }
}
