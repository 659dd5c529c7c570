//! End-to-end measurement: submit/commit timestamps, throughput and
//! latency reporting.
//!
//! Latency follows the paper's definition for OXII: "when the executors
//! execute the messages and receive enough number of matching results
//! from other executors, the transaction is counted as committed"
//! (§V-C) — i.e. submit-at-client → commit-at-observer-peer.
//!
//! # Coordinated omission
//!
//! Latency is stamped from each transaction's **intended** arrival time
//! ([`Metrics::record_submit_at`]), not the instant the driver actually
//! managed to send it. A driver that stalls — generation hiccup, sleep
//! overshoot, backpressure — submits late, and stamping at send time
//! would silently subtract exactly the queueing delay the percentiles
//! exist to expose (Tene's "coordinated omission"). With intended-time
//! stamping a stalled tick *inflates* the reported latency of every
//! delayed transaction instead of hiding it. The driver-side lag is
//! additionally surfaced as [`RunReport::driver_overruns`] /
//! [`RunReport::driver_max_lag`] so harness self-checks can tell driver
//! pathology apart from system queueing.
//!
//! # Measurement windows
//!
//! [`Metrics::set_measurement_window`] marks the `[begin, end)` span of
//! intended arrival times whose transactions count into the *measured*
//! rate and the latency percentiles; warm-up and cool-down traffic is
//! still tracked (and still commits) but contributes no samples. Without
//! a window every transaction is measured (the legacy behaviour).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use parblock_ledger::DurabilityStats;
use parblock_trace::{Histogram, Stage, TraceRecorder, TraceReport};
use parblock_types::{Clock, TxId};

/// Send lag at which a submission counts as a driver overrun — one
/// pacing tick of the open-loop driver.
const DRIVER_OVERRUN_LAG: Duration = Duration::from_millis(1);

/// Bound on the exact per-sample latency buffer: the first this many
/// measured commits keep exact samples, later ones land only in the
/// log-bucketed histogram (which sees *every* sample from the first).
/// The cap sits well above any pinned run's sample count, so historical
/// reports and their digests are unchanged; a sweep that does overflow
/// reports percentiles from the histogram — within one bucket (≤ 6.25%)
/// of the exact answer — instead of growing one `u64` per commit
/// forever.
const LATENCY_SAMPLE_CAP: usize = 65_536;

/// Shared metrics sink. Cloning shares the underlying state.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    inner: Arc<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    /// The time source submit/commit stamps are taken from — the wall
    /// clock by default, the simulated clock under the deterministic
    /// scheduler so latency samples and the measurement window are a
    /// pure function of the schedule.
    clock: Clock,
    /// Intended arrival instant and whether the transaction falls inside
    /// the measurement window (always `true` when no window is set), for
    /// every submission not yet resolved. Removing the entry is what
    /// counts a commit or abort, so a transaction resolves once and one
    /// way: re-observations (quorum re-delivery, duplicate COMMIT
    /// processing) find no entry and are ignored.
    submits: Mutex<HashMap<TxId, (Instant, bool)>>,
    /// `[begin, end)` of intended arrival times that count as measured.
    measure_window: Mutex<Option<(Instant, Instant)>>,
    /// Latencies of committed transactions (µs), exact samples capped
    /// at [`LATENCY_SAMPLE_CAP`].
    latencies: Mutex<Vec<u64>>,
    /// Log-bucketed histogram over **all** measured latencies (µs),
    /// authoritative once the exact buffer overflows.
    latency_hist: Mutex<Histogram>,
    /// Measured samples that arrived after the exact buffer was full.
    latency_overflow: AtomicU64,
    /// Lifecycle recorder ([`Stage::Committed`] is stamped here, where
    /// commit dedup already lives; aborts drop their partial trace).
    trace: TraceRecorder,
    committed: AtomicU64,
    aborted: AtomicU64,
    blocks: AtomicU64,
    /// Driver-side open-loop accounting: total submissions, submissions
    /// whose intended arrival fell inside the measurement window, and
    /// commits of those measured submissions.
    submitted: AtomicU64,
    measured_submitted: AtomicU64,
    measured_committed: AtomicU64,
    /// Driver self-checks: submissions sent ≥ one pacing tick after
    /// their intended arrival, the worst such lag (µs), and arrivals
    /// shed by an admission-control cap instead of being submitted.
    driver_overruns: AtomicU64,
    driver_max_lag_us: AtomicU64,
    admission_shed: AtomicU64,
    first_submit: Mutex<Option<Instant>>,
    last_commit: Mutex<Option<Instant>>,
    state_digest: Mutex<Option<parblock_types::Hash32>>,
    ledger_head: Mutex<Option<parblock_types::Hash32>>,
    /// `pipeline_occupancy[d]` counts block starts observed with `d`
    /// blocks in flight (the just-started one included); index 0 unused.
    pipeline_occupancy: Mutex<Vec<u64>>,
    /// Time the observer's next block sat admitted-but-unstarted because
    /// the execution pipeline was full (µs), and how often that happened.
    boundary_stall_us: AtomicU64,
    boundary_stalls: AtomicU64,
    /// Durability counters of the observer's executor (zeroes when
    /// running in-memory), set once when the executor shuts down.
    durability: Mutex<DurabilityStats>,
}

impl Metrics {
    /// Creates an empty sink stamping against the wall clock.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty sink stamping against `clock`. Under a simulated
    /// clock every duration in the resulting [`RunReport`] — latency
    /// samples, the measurement window, boundary stalls — is
    /// bit-deterministic for a given schedule.
    #[must_use]
    pub fn with_clock(clock: Clock) -> Self {
        Self::with_clock_and_trace(clock, TraceRecorder::default())
    }

    /// Creates an empty sink stamping against `clock` that also records
    /// the [`Stage::Committed`] lifecycle stage into `trace` (the
    /// commit-dedup logic lives here, so the trace inherits it).
    #[must_use]
    pub fn with_clock_and_trace(clock: Clock, trace: TraceRecorder) -> Self {
        Metrics {
            inner: Arc::new(Inner {
                clock,
                trace,
                ..Inner::default()
            }),
        }
    }

    /// Records a client submission stamped at its **intended** arrival
    /// instant, which may be earlier than now if the driver is running
    /// behind schedule — the commit latency then includes the driver-side
    /// queueing delay instead of silently omitting it (see the module
    /// docs on coordinated omission). Send lag of at least one pacing
    /// tick is counted as a driver overrun.
    pub fn record_submit_at(&self, tx: TxId, intended: Instant) {
        let now = self.inner.clock.now();
        let lag = now.saturating_duration_since(intended);
        if lag >= DRIVER_OVERRUN_LAG {
            self.inner.driver_overruns.fetch_add(1, Ordering::Relaxed);
        }
        self.inner
            .driver_max_lag_us
            .fetch_max(lag.as_micros() as u64, Ordering::Relaxed);
        let measured = self
            .inner
            .measure_window
            .lock()
            .is_none_or(|(begin, end)| intended >= begin && intended < end);
        self.inner.submitted.fetch_add(1, Ordering::Relaxed);
        if measured {
            self.inner.measured_submitted.fetch_add(1, Ordering::Relaxed);
        }
        self.inner.submits.lock().insert(tx, (intended, measured));
        let mut first = self.inner.first_submit.lock();
        if first.is_none() {
            *first = Some(intended);
        }
    }

    /// Marks the `[begin, end)` span of intended arrival times whose
    /// transactions count into [`RunReport::measured_submitted`] /
    /// [`RunReport::measured_committed`] and the latency samples. Call
    /// before the first submission; traffic outside the window (warm-up,
    /// cool-down) is tracked but contributes no samples.
    pub fn set_measurement_window(&self, begin: Instant, end: Instant) {
        *self.inner.measure_window.lock() = Some((begin, end));
    }

    /// Records one arrival shed by the driver's admission-control cap
    /// (never submitted, so it can neither commit nor count as
    /// outstanding — only this counter remembers it).
    pub fn record_admission_shed(&self) {
        self.inner.admission_shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a commit observed at the designated observer peer.
    ///
    /// A commit counts only if it resolves a submission recorded on this
    /// sink, and so at most once per transaction: a re-observed commit
    /// (e.g. duplicate quorum delivery), or one for a transaction nobody
    /// submitted here, is ignored entirely, so the committed count and
    /// the latency samples stay in step. Warm-up and cool-down traffic
    /// counts but contributes no latency sample.
    pub fn record_commit(&self, tx: TxId) {
        let Some((intended, measured)) = self.inner.submits.lock().remove(&tx) else {
            return;
        };
        let now = self.inner.clock.now();
        self.inner.trace.record_at(tx, Stage::Committed, now);
        self.inner.committed.fetch_add(1, Ordering::Relaxed);
        if measured {
            let micros = now.saturating_duration_since(intended).as_micros() as u64;
            self.inner.latency_hist.lock().record(micros);
            let mut latencies = self.inner.latencies.lock();
            if latencies.len() < LATENCY_SAMPLE_CAP {
                latencies.push(micros);
            } else {
                self.inner.latency_overflow.fetch_add(1, Ordering::Relaxed);
            }
            drop(latencies);
            self.inner.measured_committed.fetch_add(1, Ordering::Relaxed);
        }
        *self.inner.last_commit.lock() = Some(now);
    }

    /// Records an abort observed at the observer peer (XOV validation
    /// failures, contract-level rejections). Counted like
    /// [`Metrics::record_commit`]: only when it resolves a submission, so
    /// a re-observed abort, or an abort for a transaction already
    /// counted as committed, is ignored.
    pub fn record_abort(&self, tx: TxId) {
        if self.inner.submits.lock().remove(&tx).is_none() {
            return;
        }
        self.inner.aborted.fetch_add(1, Ordering::Relaxed);
        self.inner.trace.drop_tx(tx);
    }

    /// Records a block fully processed at the observer.
    pub fn record_block(&self) {
        self.inner.blocks.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of committed transactions so far.
    #[must_use]
    pub fn committed(&self) -> u64 {
        self.inner.committed.load(Ordering::Relaxed)
    }

    /// Number of processed (committed + aborted) transactions so far.
    #[must_use]
    pub fn processed(&self) -> u64 {
        self.inner.committed.load(Ordering::Relaxed) + self.inner.aborted.load(Ordering::Relaxed)
    }

    /// Submitted transactions that have neither committed nor aborted —
    /// in-flight during a run; dropped (fault injection) once it ends.
    /// Without [`Metrics::report`]'s pruning these entries would
    /// accumulate in the submit map for as long as the sink lives.
    #[must_use]
    pub fn outstanding(&self) -> u64 {
        self.inner.submits.lock().len() as u64
    }

    /// Records the observer's state digest after a block (see
    /// `ClusterSpec::capture_state`).
    pub fn set_state_digest(&self, digest: parblock_types::Hash32) {
        *self.inner.state_digest.lock() = Some(digest);
    }

    /// Records the observer's ledger head hash after a block append. The
    /// hash chain covers block contents *and* order, so two runs with
    /// equal heads committed the same blocks in the same order.
    pub fn set_ledger_head(&self, head: parblock_types::Hash32) {
        *self.inner.ledger_head.lock() = Some(head);
    }

    /// Records how many blocks were in flight on the observer's executor
    /// when a block started (the started block included, so depth-1
    /// execution always records 1).
    pub fn record_pipeline_occupancy(&self, in_flight: usize) {
        let mut occupancy = self.inner.pipeline_occupancy.lock();
        if occupancy.len() <= in_flight {
            occupancy.resize(in_flight + 1, 0);
        }
        occupancy[in_flight] += 1;
    }

    /// Records the observer executor's durability counters (WAL bytes,
    /// fsyncs, checkpoints, recovery replay length). Called once at
    /// executor shutdown; all zeroes under in-memory durability.
    pub fn set_durability_stats(&self, stats: DurabilityStats) {
        *self.inner.durability.lock() = stats;
    }

    /// Records one boundary stall: the observer's next block was admitted
    /// and ready, but the execution pipeline was at capacity for `stall`.
    pub fn record_boundary_stall(&self, stall: Duration) {
        self.inner
            .boundary_stall_us
            .fetch_add(stall.as_micros() as u64, Ordering::Relaxed);
        self.inner.boundary_stalls.fetch_add(1, Ordering::Relaxed);
    }

    /// Freezes the sink into a report.
    ///
    /// Pruning: submissions still unmatched at report time (dropped by
    /// the network under fault injection, or in flight when the run
    /// ended) are counted into [`RunReport::outstanding`] and **removed**
    /// from the submit map, so a long-lived sink does not keep
    /// per-transaction state past the end of a run; a commit or abort
    /// that arrives after the report resolves nothing and is not counted.
    /// (The aggregate counters stay monotonic; per-run measurements
    /// should use a fresh sink, as the runner does.)
    #[must_use]
    pub fn report(&self) -> RunReport {
        let outstanding = {
            let mut submits = self.inner.submits.lock();
            let n = submits.len() as u64;
            submits.clear();
            submits.shrink_to_fit();
            n
        };
        let mut latencies = self.inner.latencies.lock().clone();
        latencies.sort_unstable();
        let window = match (
            *self.inner.first_submit.lock(),
            *self.inner.last_commit.lock(),
        ) {
            (Some(a), Some(b)) if b > a => b - a,
            _ => Duration::ZERO,
        };
        let durability = *self.inner.durability.lock();
        let measure_window = self
            .inner
            .measure_window
            .lock()
            .map_or(Duration::ZERO, |(begin, end)| {
                end.saturating_duration_since(begin)
            });
        RunReport {
            committed: self.inner.committed.load(Ordering::Relaxed),
            aborted: self.inner.aborted.load(Ordering::Relaxed),
            outstanding,
            blocks: self.inner.blocks.load(Ordering::Relaxed),
            window,
            latencies_us: latencies,
            latency_hist: self.inner.latency_hist.lock().clone(),
            latency_overflow: self.inner.latency_overflow.load(Ordering::Relaxed),
            trace: TraceReport::default(),
            state_digest: *self.inner.state_digest.lock(),
            ledger_head: *self.inner.ledger_head.lock(),
            pipeline_occupancy: self.inner.pipeline_occupancy.lock().clone(),
            boundary_stall: Duration::from_micros(
                self.inner.boundary_stall_us.load(Ordering::Relaxed),
            ),
            boundary_stalls: self.inner.boundary_stalls.load(Ordering::Relaxed),
            wal_bytes_written: durability.wal_bytes_written,
            fsync_count: durability.fsync_count,
            checkpoint_count: durability.checkpoint_count,
            recovery_replay_len: durability.recovery_replay_len,
            messages: 0,
            submitted: self.inner.submitted.load(Ordering::Relaxed),
            measured_submitted: self.inner.measured_submitted.load(Ordering::Relaxed),
            measured_committed: self.inner.measured_committed.load(Ordering::Relaxed),
            measure_window,
            driver_overruns: self.inner.driver_overruns.load(Ordering::Relaxed),
            driver_max_lag: Duration::from_micros(
                self.inner.driver_max_lag_us.load(Ordering::Relaxed),
            ),
            admission_shed: self.inner.admission_shed.load(Ordering::Relaxed),
        }
    }
}

/// The outcome of one experiment run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunReport {
    /// Transactions committed at the observer.
    pub committed: u64,
    /// Transactions aborted at the observer.
    pub aborted: u64,
    /// Submitted transactions that never reached a commit or abort by the
    /// end of the run (lost to fault injection, or still in flight).
    pub outstanding: u64,
    /// Blocks processed at the observer.
    pub blocks: u64,
    /// First submission → last commit.
    pub window: Duration,
    /// Sorted commit latencies in microseconds — exact samples, capped
    /// at the first 65 536 measured commits (see
    /// [`RunReport::latency_overflow`]).
    pub latencies_us: Vec<u64>,
    /// Log-bucketed histogram over **all** measured latencies (µs).
    /// When [`RunReport::latency_overflow`] is nonzero the percentile
    /// accessors read from here instead of the truncated exact buffer.
    pub latency_hist: parblock_trace::Histogram,
    /// Measured commits whose exact sample was dropped by the buffer
    /// cap (they still count in [`RunReport::latency_hist`]).
    pub latency_overflow: u64,
    /// Per-transaction lifecycle trace: stage-pair latency histograms
    /// and sampled timelines (DESIGN.md §14). Default/empty unless the
    /// spec enabled tracing; filled in by the runner alongside
    /// [`RunReport::messages`].
    pub trace: parblock_trace::TraceReport,
    /// Observer's final state digest (when capture was enabled).
    pub state_digest: Option<parblock_types::Hash32>,
    /// Observer's final ledger head hash — equal heads mean the same
    /// blocks were committed in the same order.
    pub ledger_head: Option<parblock_types::Hash32>,
    /// `pipeline_occupancy[d]` = block starts at the observer with `d`
    /// blocks in flight (index 0 unused); `[0, n, 0, …]` means strictly
    /// block-at-a-time execution.
    pub pipeline_occupancy: Vec<u64>,
    /// Total time the observer's next block sat ready but unstarted
    /// because the execution pipeline was full.
    pub boundary_stall: Duration,
    /// Number of boundary stalls behind [`RunReport::boundary_stall`].
    pub boundary_stalls: u64,
    /// Bytes the observer's executor appended to its write-ahead log
    /// (zero under in-memory durability).
    pub wal_bytes_written: u64,
    /// Fsync barriers the observer's executor issued (WAL group
    /// commits, block seals, checkpoint publishes).
    pub fsync_count: u64,
    /// State checkpoints the observer's executor wrote.
    pub checkpoint_count: u64,
    /// WAL records the observer's executor replayed above its checkpoint
    /// when it recovered at startup (zero for a fresh store).
    pub recovery_replay_len: u64,
    /// Total network messages sent during the run (filled by the runner).
    pub messages: u64,
    /// Total client submissions recorded by the sink (all phases).
    pub submitted: u64,
    /// Submissions whose intended arrival fell inside the measurement
    /// window (equals [`RunReport::submitted`] when no window was set).
    pub measured_submitted: u64,
    /// Commits of measured submissions — the numerator of
    /// [`RunReport::achieved_tps`], and exactly the population the
    /// latency percentiles are drawn from (plus any measured
    /// transactions still outstanding; report those alongside the
    /// percentiles or the tail is survivor-biased).
    pub measured_committed: u64,
    /// Length of the `[begin, end)` measurement window (zero when none
    /// was set and every transaction was measured).
    pub measure_window: Duration,
    /// Submissions sent ≥ one pacing tick after their intended arrival —
    /// the driver, not the system, was behind. A healthy open-loop run
    /// keeps this near zero; see the module docs on coordinated omission.
    pub driver_overruns: u64,
    /// Worst send lag behind the intended arrival schedule.
    pub driver_max_lag: Duration,
    /// Arrivals shed by the driver's admission-control cap (never
    /// submitted; excluded from every other counter).
    pub admission_shed: u64,
}

/// Version tag leading every [`RunReport::digest`] preimage, which then
/// holds every scalar field as a `u64`, both sample lists length-prefixed,
/// both optional hashes tagged, and the histogram and trace encodings.
/// Bump it on any layout change, and re-pin the golden digests with it.
const REPORT_DIGEST_VERSION: u8 = 1;

impl RunReport {
    /// A digest over every field of the report, for bit-reproducibility
    /// checks: two deterministic-simulation runs of the same seed must
    /// produce byte-identical reports, and comparing 32 bytes is how the
    /// explorer (and CI) asserts that without diffing structures.
    #[must_use]
    pub fn digest(&self) -> parblock_types::Hash32 {
        use parblock_types::wire::Wire;
        let mut bytes = vec![REPORT_DIGEST_VERSION];
        for v in [
            self.committed,
            self.aborted,
            self.outstanding,
            self.blocks,
            self.window.as_nanos() as u64,
            self.boundary_stall.as_nanos() as u64,
            self.boundary_stalls,
            self.wal_bytes_written,
            self.fsync_count,
            self.checkpoint_count,
            self.recovery_replay_len,
            self.messages,
            self.submitted,
            self.measured_submitted,
            self.measured_committed,
            self.measure_window.as_nanos() as u64,
            self.driver_overruns,
            self.driver_max_lag.as_nanos() as u64,
            self.admission_shed,
            self.latency_overflow,
        ] {
            v.encode(&mut bytes);
        }
        for list in [&self.latencies_us, &self.pipeline_occupancy] {
            (list.len() as u64).encode(&mut bytes);
            for &v in list {
                v.encode(&mut bytes);
            }
        }
        for digest in [self.state_digest, self.ledger_head] {
            match digest {
                Some(h) => {
                    bytes.push(1);
                    bytes.extend_from_slice(&h.0);
                }
                None => bytes.push(0),
            }
        }
        self.latency_hist.encode_into(&mut bytes);
        self.trace.encode_into(&mut bytes);
        parblock_crypto::sha256(&bytes)
    }

    /// Committed transactions per second over the measurement window.
    #[must_use]
    pub fn throughput_tps(&self) -> f64 {
        if self.window.is_zero() {
            return 0.0;
        }
        self.committed as f64 / self.window.as_secs_f64()
    }

    /// Achieved throughput over the *measurement* window: commits of
    /// measured submissions divided by the window length. Falls back to
    /// [`RunReport::throughput_tps`] when no window was set. This is the
    /// rate the saturation sweep compares against the offered rate.
    #[must_use]
    pub fn achieved_tps(&self) -> f64 {
        if self.measure_window.is_zero() {
            return self.throughput_tps();
        }
        self.measured_committed as f64 / self.measure_window.as_secs_f64()
    }

    /// Mean end-to-end latency (over every measured sample — the
    /// histogram sees samples the capped exact buffer dropped).
    #[must_use]
    pub fn avg_latency(&self) -> Duration {
        if self.latency_overflow != 0 {
            return Duration::from_micros(self.latency_hist.mean());
        }
        if self.latencies_us.is_empty() {
            return Duration::ZERO;
        }
        let sum: u64 = self.latencies_us.iter().sum();
        Duration::from_micros(sum / self.latencies_us.len() as u64)
    }

    /// Latency percentile (`p` in `0.0..=1.0`), by the nearest-rank
    /// definition: the smallest sample such that at least `p·N` samples
    /// are ≤ it (`p = 0` returns the minimum). Unlike interpolating or
    /// rounding definitions this always returns an observed sample and
    /// never understates the tail: p99 over 100 samples is the 99th
    /// smallest, not a blend with the 100th.
    ///
    /// When the exact buffer overflowed its cap the percentile is read
    /// from the histogram instead (which saw every sample) — within one
    /// log bucket (≤ 6.25%) of the exact nearest-rank answer.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    #[must_use]
    pub fn latency_percentile(&self, p: f64) -> Duration {
        assert!((0.0..=1.0).contains(&p), "percentile must be in [0, 1]");
        if self.latency_overflow != 0 {
            return Duration::from_micros(self.latency_hist.percentile(p));
        }
        let n = self.latencies_us.len();
        if n == 0 {
            return Duration::ZERO;
        }
        let rank = (p * n as f64).ceil() as usize;
        let idx = rank.max(1) - 1;
        Duration::from_micros(self.latencies_us[idx.min(n - 1)])
    }

    /// The deepest pipeline overlap the observer recorded: the largest
    /// number of simultaneously in-flight blocks at any block start
    /// (0 when no block started). Strictly block-at-a-time execution
    /// yields 1.
    #[must_use]
    pub fn max_occupancy(&self) -> usize {
        self.pipeline_occupancy
            .iter()
            .rposition(|&count| count > 0)
            .unwrap_or(0)
    }

    /// Abort rate among processed transactions.
    #[must_use]
    pub fn abort_rate(&self) -> f64 {
        let total = self.committed + self.aborted;
        if total == 0 {
            return 0.0;
        }
        self.aborted as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use parblock_types::ClientId;

    use super::*;

    fn tx(n: u64) -> TxId {
        TxId::new(ClientId(0), n)
    }

    impl Metrics {
        /// A submission stamped at the current instant: every driver,
        /// XOV's included, stamps its intended arrival instead.
        fn record_submit(&self, tx: TxId) {
            let now = self.inner.clock.now();
            self.record_submit_at(tx, now);
        }
    }

    #[test]
    fn submit_commit_produces_latency_sample() {
        let m = Metrics::new();
        m.record_submit(tx(1));
        std::thread::sleep(Duration::from_millis(2));
        m.record_commit(tx(1));
        let r = m.report();
        assert_eq!(r.committed, 1);
        assert_eq!(r.latencies_us.len(), 1);
        assert!(r.avg_latency() >= Duration::from_millis(2));
        assert!(r.throughput_tps() > 0.0);
    }

    #[test]
    fn commit_or_abort_of_an_unsubmitted_tx_is_ignored() {
        let m = Metrics::new();
        m.record_commit(tx(9));
        m.record_abort(tx(8));
        let r = m.report();
        assert_eq!((r.committed, r.aborted), (0, 0));
        assert!(r.latencies_us.is_empty());
        assert_eq!(r.window, Duration::ZERO, "no commit stamped");
    }

    #[test]
    fn aborts_tracked_separately() {
        let m = Metrics::new();
        m.record_submit(tx(1));
        m.record_abort(tx(1));
        m.record_submit(tx(2));
        m.record_commit(tx(2));
        let r = m.report();
        assert_eq!(r.aborted, 1);
        assert_eq!(r.committed, 1);
        assert!((r.abort_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn duplicate_commit_counts_once() {
        let m = Metrics::new();
        m.record_submit(tx(1));
        m.record_commit(tx(1));
        m.record_commit(tx(1));
        assert_eq!(m.committed(), 1, "re-observed commit double-counted");
        let r = m.report();
        assert_eq!(r.committed, 1);
        assert_eq!(r.latencies_us.len(), 1);
    }

    #[test]
    fn duplicate_abort_counts_once_and_commit_wins_over_late_abort() {
        let m = Metrics::new();
        m.record_submit(tx(1));
        m.record_abort(tx(1));
        m.record_abort(tx(1));
        let r = m.report();
        assert_eq!(r.aborted, 1, "re-observed abort double-counted");

        let m = Metrics::new();
        m.record_submit(tx(2));
        m.record_commit(tx(2));
        m.record_abort(tx(2));
        assert_eq!(m.committed(), 1);
        assert_eq!(m.report().aborted, 0, "a resolved tx must not re-resolve");
    }

    #[test]
    fn outstanding_submits_are_pruned_at_report_time() {
        let m = Metrics::new();
        m.record_submit(tx(1));
        m.record_submit(tx(2));
        m.record_submit(tx(3));
        m.record_commit(tx(1));
        assert_eq!(m.outstanding(), 2, "two submits never resolved");
        let r = m.report();
        assert_eq!(r.outstanding, 2);
        assert_eq!(
            m.outstanding(),
            0,
            "report must prune dropped submissions from the map"
        );
    }

    #[test]
    fn percentiles_on_known_distribution() {
        let r = RunReport {
            committed: 100,
            blocks: 1,
            window: Duration::from_secs(1),
            latencies_us: (1..=100).collect(),
            ..RunReport::default()
        };
        // Nearest rank: the k-th percentile of 1..=100 is exactly k.
        assert_eq!(r.latency_percentile(0.0), Duration::from_micros(1));
        assert_eq!(r.latency_percentile(1.0), Duration::from_micros(100));
        assert_eq!(r.latency_percentile(0.5), Duration::from_micros(50));
        assert_eq!(r.latency_percentile(0.99), Duration::from_micros(99));
        assert_eq!(r.latency_percentile(0.999), Duration::from_micros(100));
        assert_eq!(r.avg_latency(), Duration::from_micros(50));
    }

    #[test]
    fn nearest_rank_on_tiny_samples() {
        let one = RunReport {
            latencies_us: vec![7],
            ..RunReport::default()
        };
        for p in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(one.latency_percentile(p), Duration::from_micros(7));
        }
        let two = RunReport {
            latencies_us: vec![3, 9],
            ..RunReport::default()
        };
        assert_eq!(two.latency_percentile(0.5), Duration::from_micros(3));
        assert_eq!(two.latency_percentile(0.51), Duration::from_micros(9));
    }

    #[test]
    fn empty_report_is_zeroes() {
        let r = Metrics::new().report();
        assert_eq!(r.throughput_tps(), 0.0);
        assert_eq!(r.latency_percentile(0.9), Duration::ZERO);
        assert_eq!(r.abort_rate(), 0.0);
        assert!(r.pipeline_occupancy.is_empty());
        assert_eq!(r.boundary_stall, Duration::ZERO);
        assert_eq!(r.ledger_head, None);
    }

    #[test]
    fn pipeline_occupancy_and_stalls_accumulate() {
        let m = Metrics::new();
        m.record_pipeline_occupancy(1);
        m.record_pipeline_occupancy(2);
        m.record_pipeline_occupancy(2);
        m.record_boundary_stall(Duration::from_micros(300));
        m.record_boundary_stall(Duration::from_micros(200));
        let r = m.report();
        assert_eq!(r.pipeline_occupancy, vec![0, 1, 2]);
        assert_eq!(r.max_occupancy(), 2);
        assert_eq!(r.boundary_stall, Duration::from_micros(500));
        assert_eq!(r.boundary_stalls, 2);
        assert_eq!(Metrics::new().report().max_occupancy(), 0);
    }

    #[test]
    fn durability_stats_flow_into_report() {
        let m = Metrics::new();
        assert_eq!(m.report().fsync_count, 0);
        m.set_durability_stats(DurabilityStats {
            wal_bytes_written: 100,
            fsync_count: 7,
            checkpoint_count: 2,
            recovery_replay_len: 42,
        });
        let r = m.report();
        assert_eq!(r.wal_bytes_written, 100);
        assert_eq!(r.fsync_count, 7);
        assert_eq!(r.checkpoint_count, 2);
        assert_eq!(r.recovery_replay_len, 42);
    }

    #[test]
    fn ledger_head_records_latest() {
        let m = Metrics::new();
        m.set_ledger_head(parblock_types::Hash32([1; 32]));
        m.set_ledger_head(parblock_types::Hash32([2; 32]));
        assert_eq!(m.report().ledger_head, Some(parblock_types::Hash32([2; 32])));
    }

    #[test]
    #[should_panic(expected = "percentile must be in [0, 1]")]
    fn invalid_percentile_panics() {
        let _ = Metrics::new().report().latency_percentile(1.5);
    }

    #[test]
    fn stalled_submit_inflates_latency_instead_of_hiding_it() {
        // Coordinated omission: the driver intended to send at t=0 but
        // only managed at t=5ms; the commit at t=6ms must report 6ms of
        // latency (queueing included), not the 1ms since the send.
        let clock = Clock::simulated();
        let m = Metrics::with_clock(clock.clone());
        let intended = clock.now();
        clock.advance(Duration::from_millis(5));
        m.record_submit_at(tx(1), intended);
        clock.advance(Duration::from_millis(1));
        m.record_commit(tx(1));
        let r = m.report();
        assert_eq!(r.latencies_us, vec![6_000], "latency must include the stall");
        assert_eq!(r.driver_overruns, 1, "a 5ms send lag is an overrun");
        assert_eq!(r.driver_max_lag, Duration::from_millis(5));

        // An on-schedule submit is not an overrun.
        let m = Metrics::with_clock(clock.clone());
        m.record_submit_at(tx(2), clock.now());
        m.record_commit(tx(2));
        let r = m.report();
        assert_eq!(r.driver_overruns, 0);
        assert_eq!(r.driver_max_lag, Duration::ZERO);
    }

    #[test]
    fn measurement_window_filters_samples_but_not_commits() {
        let clock = Clock::simulated();
        let m = Metrics::with_clock(clock.clone());
        let start = clock.now();
        m.set_measurement_window(
            start + Duration::from_millis(10),
            start + Duration::from_millis(20),
        );
        // Warm-up (before), measured (inside), cool-down (at end, exclusive).
        m.record_submit_at(tx(1), start);
        m.record_submit_at(tx(2), start + Duration::from_millis(10));
        m.record_submit_at(tx(3), start + Duration::from_millis(20));
        clock.advance(Duration::from_millis(25));
        m.record_commit(tx(1));
        m.record_commit(tx(2));
        m.record_commit(tx(3));
        let r = m.report();
        assert_eq!(r.committed, 3, "warm-up traffic still commits");
        assert_eq!(r.submitted, 3);
        assert_eq!(r.measured_submitted, 1, "only the in-window arrival");
        assert_eq!(r.measured_committed, 1);
        assert_eq!(
            r.latencies_us.len(),
            1,
            "warm-up/cool-down must not contribute samples"
        );
        assert_eq!(r.latencies_us[0], 15_000, "stamped from intended arrival");
        assert_eq!(r.measure_window, Duration::from_millis(10));
        assert!((r.achieved_tps() - 100.0).abs() < 1e-9, "1 commit / 10 ms");
    }

    #[test]
    fn no_window_measures_everything() {
        let m = Metrics::new();
        m.record_submit(tx(1));
        m.record_commit(tx(1));
        let r = m.report();
        assert_eq!(r.submitted, 1);
        assert_eq!(r.measured_submitted, 1);
        assert_eq!(r.measured_committed, 1);
        assert_eq!(r.measure_window, Duration::ZERO);
    }

    #[test]
    fn admission_shed_is_counted_separately() {
        let m = Metrics::new();
        m.record_submit(tx(1));
        m.record_admission_shed();
        m.record_admission_shed();
        let r = m.report();
        assert_eq!(r.admission_shed, 2);
        assert_eq!(r.submitted, 1, "shed arrivals were never submitted");
    }

    #[test]
    fn simulated_clock_makes_latencies_exact() {
        let clock = Clock::simulated();
        let m = Metrics::with_clock(clock.clone());
        m.record_submit(tx(1));
        clock.advance(Duration::from_micros(1234));
        m.record_commit(tx(1));
        let r = m.report();
        assert_eq!(r.latencies_us, vec![1234], "no wall-clock drift");
        assert_eq!(r.window, Duration::from_micros(1234));
    }

    #[test]
    fn overflowing_latency_buffer_keeps_percentiles_within_one_bucket() {
        // Push 10% past the exact-sample cap; percentiles must then come
        // from the histogram and stay within one log bucket (≤ 6.25%
        // relative error, exact below 16 µs) of the full sorted-vec
        // answer.
        let clock = Clock::simulated();
        clock.advance(Duration::from_secs(10));
        let m = Metrics::with_clock(clock.clone());
        let total = LATENCY_SAMPLE_CAP + LATENCY_SAMPLE_CAP / 10;
        let mut exact: Vec<u64> = Vec::with_capacity(total);
        let mut rng: u64 = 7;
        let now = clock.now();
        for i in 0..total {
            // LCG latencies spanning 0..~1 s keep every octave populated.
            rng = rng.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            let lat = rng >> 44; // 0..2^20 µs
            exact.push(lat);
            m.record_submit_at(tx(i as u64), now - Duration::from_micros(lat));
            m.record_commit(tx(i as u64));
        }
        let r = m.report();
        assert_eq!(r.latency_overflow as usize, total - LATENCY_SAMPLE_CAP);
        assert_eq!(r.latencies_us.len(), LATENCY_SAMPLE_CAP);
        assert_eq!(r.latency_hist.count() as usize, total, "histogram sees every sample");
        exact.sort_unstable();
        for p in [0.0, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let rank = ((p * total as f64).ceil() as usize).max(1) - 1;
            let want = exact[rank.min(total - 1)];
            let got = r.latency_percentile(p).as_micros() as u64;
            assert!(
                got.abs_diff(want) as f64 <= want as f64 / 16.0 + 1.0,
                "p{p}: histogram {got} vs exact {want}"
            );
        }
    }

    #[test]
    fn under_cap_runs_keep_exact_percentiles() {
        let clock = Clock::simulated();
        let m = Metrics::with_clock(clock.clone());
        m.record_submit(tx(1));
        clock.advance(Duration::from_micros(17));
        m.record_commit(tx(1));
        let r = m.report();
        assert_eq!(r.latency_overflow, 0);
        assert_eq!(r.latency_percentile(1.0), Duration::from_micros(17), "exact path");
        assert_eq!(r.latency_hist.count(), 1, "histogram fed in parallel");
    }

    #[test]
    fn committed_stage_and_abort_drop_flow_into_the_trace() {
        let clock = Clock::simulated();
        let trace = TraceRecorder::new(&clock, parblock_trace::TraceConfig::on());
        let m = Metrics::with_clock_and_trace(clock.clone(), trace.clone());
        m.record_submit(tx(1));
        clock.advance(Duration::from_micros(40));
        m.record_commit(tx(1));
        m.record_commit(tx(1)); // dedup: no second Committed stamp
        trace.record_durable_block([tx(1)]);
        m.record_submit(tx(2));
        trace.record(tx(2), Stage::Submitted); // the driver stamps this
        m.record_abort(tx(2));
        let t = trace.snapshot();
        assert_eq!(t.finished, 1);
        assert_eq!(t.aborted, 1, "aborts drop their partial trace");
        let pair = t.pair(Stage::Committed, Stage::Durable).expect("pair");
        assert_eq!(pair.count(), 1);
    }

    #[test]
    fn report_digest_reflects_content() {
        let clock = Clock::simulated();
        let run = || {
            let m = Metrics::with_clock(clock.clone());
            m.record_submit(tx(1));
            m.record_commit(tx(1));
            m.record_block();
            m.report()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.digest(), b.digest(), "identical runs share a digest");
        let m = Metrics::with_clock(clock.clone());
        m.record_submit(tx(1));
        m.record_abort(tx(1));
        assert_ne!(a.digest(), m.report().digest());
    }
}
