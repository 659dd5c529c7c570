//! End-to-end measurement: the client's books of submit/commit
//! timestamps, and the [`RunReport`] a run ends with.
//!
//! Latency follows the paper's definition for OXII: "when the executors
//! execute the messages and receive enough number of matching results
//! from other executors, the transaction is counted as committed"
//! (§V-C) — i.e. submit-at-client → commit-at-observer-peer.
//!
//! # Where a report's fields come from
//!
//! [`RunReport::assemble`] builds every report, under the threaded
//! runner and the simulator alike, from four sources:
//!
//! * the client's [`Metrics`]: submissions, the measurement window,
//!   latency samples, commit and abort counts, driver self-checks. A
//!   peer writes here only through [`Metrics::record_commit`] and
//!   [`Metrics::record_abort`], the observer's stamp of §V-C;
//! * the network's count of messages sent;
//! * the lifecycle trace's snapshot;
//! * the observer's own summary, read once when the run ends: blocks
//!   sealed, ledger head, state digest at its watermark, durability
//!   counters and pipeline gauges (`PeerSummary`, DESIGN.md §17).
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
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use parblock_trace::{Histogram, Stage, TraceRecorder, TraceReport};
use parblock_types::{Clock, TxId};

use crate::node::PeerSummary;

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

/// The client's books: what was submitted when, and how the observer
/// resolved it. Cloning shares the underlying state.
#[derive(Debug, Clone, Default)]
pub(crate) struct Metrics {
    /// The time source submit/commit stamps are taken from — the wall
    /// clock by default, the simulated clock under the deterministic
    /// scheduler so latency samples and the measurement window are a
    /// pure function of the schedule.
    clock: Clock,
    /// Lifecycle recorder ([`Stage::Committed`] is stamped here, where
    /// commit dedup already lives; aborts drop their partial trace).
    trace: TraceRecorder,
    books: Arc<Mutex<Books>>,
}

/// Everything [`Metrics`] counts, behind its one lock.
#[derive(Debug, Default)]
struct Books {
    /// Intended arrival instant and whether the transaction falls inside
    /// the measurement window (always `true` when no window is set), for
    /// every submission not yet resolved. Removing the entry is what
    /// counts a commit or abort, so a transaction resolves once and one
    /// way: re-observations (quorum re-delivery, duplicate COMMIT
    /// processing) find no entry and are ignored.
    submits: HashMap<TxId, (Instant, bool)>,
    /// `[begin, end)` of intended arrival times that count as measured.
    measure_window: Option<(Instant, Instant)>,
    /// Latencies of committed transactions (µs), exact samples capped
    /// at [`LATENCY_SAMPLE_CAP`].
    latencies: Vec<u64>,
    /// Log-bucketed histogram over **all** measured latencies (µs),
    /// authoritative once the exact buffer overflows.
    latency_hist: Histogram,
    /// Measured samples that arrived after the exact buffer was full.
    latency_overflow: u64,
    committed: u64,
    aborted: u64,
    /// Driver-side open-loop accounting: total submissions, submissions
    /// whose intended arrival fell inside the measurement window, and
    /// commits of those measured submissions.
    submitted: u64,
    measured_submitted: u64,
    measured_committed: u64,
    /// Driver self-checks: submissions sent ≥ one pacing tick after
    /// their intended arrival, the worst such lag (µs), and arrivals
    /// shed by an admission-control cap instead of being submitted.
    driver_overruns: u64,
    driver_max_lag_us: u64,
    admission_shed: u64,
    first_submit: Option<Instant>,
    last_commit: Option<Instant>,
}

impl Metrics {
    /// Creates empty books stamping against `clock` that also record the
    /// [`Stage::Committed`] lifecycle stage into `trace` (the
    /// commit-dedup logic lives here, so the trace inherits it). Under a
    /// simulated clock every duration in the resulting [`RunReport`] is
    /// bit-deterministic for a given schedule.
    pub(crate) fn with_clock_and_trace(clock: Clock, trace: TraceRecorder) -> Self {
        Metrics {
            clock,
            trace,
            books: Arc::default(),
        }
    }

    /// Records a client submission stamped at its **intended** arrival
    /// instant, which may be earlier than now if the driver is running
    /// behind schedule — the commit latency then includes the driver-side
    /// queueing delay instead of silently omitting it (see the module
    /// docs on coordinated omission). Send lag of at least one pacing
    /// tick is counted as a driver overrun.
    pub(crate) fn record_submit_at(&self, tx: TxId, intended: Instant) {
        let lag = self.clock.now().saturating_duration_since(intended);
        let mut books = self.books.lock();
        if lag >= DRIVER_OVERRUN_LAG {
            books.driver_overruns += 1;
        }
        books.driver_max_lag_us = books.driver_max_lag_us.max(lag.as_micros() as u64);
        let measured = books
            .measure_window
            .is_none_or(|(begin, end)| intended >= begin && intended < end);
        books.submitted += 1;
        if measured {
            books.measured_submitted += 1;
        }
        books.submits.insert(tx, (intended, measured));
        books.first_submit.get_or_insert(intended);
    }

    /// Marks the `[begin, end)` span of intended arrival times whose
    /// transactions count into [`RunReport::measured_submitted`] /
    /// [`RunReport::measured_committed`] and the latency samples. Call
    /// before the first submission; traffic outside the window (warm-up,
    /// cool-down) is tracked but contributes no samples.
    pub(crate) fn set_measurement_window(&self, begin: Instant, end: Instant) {
        self.books.lock().measure_window = Some((begin, end));
    }

    /// Records one arrival shed by the driver's admission-control cap
    /// (never submitted, so it can neither commit nor count as
    /// outstanding — only this counter remembers it).
    pub(crate) fn record_admission_shed(&self) {
        self.books.lock().admission_shed += 1;
    }

    /// Records a commit observed at the designated observer peer.
    ///
    /// A commit counts only if it resolves a submission recorded in these
    /// books, and so at most once per transaction: a re-observed commit
    /// (e.g. duplicate quorum delivery), or one for a transaction nobody
    /// submitted here, is ignored entirely, so the committed count and
    /// the latency samples stay in step. Warm-up and cool-down traffic
    /// counts but contributes no latency sample.
    pub(crate) fn record_commit(&self, tx: TxId) {
        let now = self.clock.now();
        let mut books = self.books.lock();
        let Some((intended, measured)) = books.submits.remove(&tx) else {
            return;
        };
        books.committed += 1;
        if measured {
            let micros = now.saturating_duration_since(intended).as_micros() as u64;
            books.latency_hist.record(micros);
            if books.latencies.len() < LATENCY_SAMPLE_CAP {
                books.latencies.push(micros);
            } else {
                books.latency_overflow += 1;
            }
            books.measured_committed += 1;
        }
        books.last_commit = Some(now);
        drop(books);
        self.trace.record_at(tx, Stage::Committed, now);
    }

    /// Records an abort observed at the observer peer (XOV validation
    /// failures, contract-level rejections). Counted like
    /// [`Metrics::record_commit`]: only when it resolves a submission, so
    /// a re-observed abort, or an abort for a transaction already
    /// counted as committed, is ignored.
    pub(crate) fn record_abort(&self, tx: TxId) {
        let mut books = self.books.lock();
        if books.submits.remove(&tx).is_none() {
            return;
        }
        books.aborted += 1;
        drop(books);
        self.trace.drop_tx(tx);
    }

    /// Number of processed (committed + aborted) transactions so far.
    pub(crate) fn processed(&self) -> u64 {
        let books = self.books.lock();
        books.committed + books.aborted
    }

    /// Submitted transactions that have neither committed nor aborted —
    /// in-flight during a run; dropped (fault injection) once it ends.
    /// Without [`Metrics::report`]'s pruning these entries would
    /// accumulate in the submit map for as long as the books live.
    pub(crate) fn outstanding(&self) -> u64 {
        self.books.lock().submits.len() as u64
    }

    /// Freezes the books into the client's half of a report: every
    /// field but the observer's and the run-wide counts
    /// ([`RunReport::assemble`] adds those).
    ///
    /// Pruning: submissions still unmatched at report time (dropped by
    /// the network under fault injection, or in flight when the run
    /// ended) are counted into [`RunReport::outstanding`] and **removed**
    /// from the submit map, so long-lived books do not keep
    /// per-transaction state past the end of a run; a commit or abort
    /// that arrives after the report resolves nothing and is not counted.
    /// (The aggregate counters stay monotonic; per-run measurements
    /// should use fresh books, as the runner does.)
    pub(crate) fn report(&self) -> RunReport {
        let mut books = self.books.lock();
        let outstanding = books.submits.len() as u64;
        books.submits = HashMap::new();
        let mut latencies_us = books.latencies.clone();
        latencies_us.sort_unstable();
        let window = match (books.first_submit, books.last_commit) {
            (Some(a), Some(b)) if b > a => b - a,
            _ => Duration::ZERO,
        };
        let measure_window = books.measure_window.map_or(Duration::ZERO, |(begin, end)| {
            end.saturating_duration_since(begin)
        });
        RunReport {
            committed: books.committed,
            aborted: books.aborted,
            outstanding,
            window,
            latencies_us,
            latency_hist: books.latency_hist.clone(),
            latency_overflow: books.latency_overflow,
            submitted: books.submitted,
            measured_submitted: books.measured_submitted,
            measured_committed: books.measured_committed,
            measure_window,
            driver_overruns: books.driver_overruns,
            driver_max_lag: Duration::from_micros(books.driver_max_lag_us),
            admission_shed: books.admission_shed,
            ..RunReport::default()
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
    /// Blocks the observer sealed during the run (a prefix it recovered
    /// at start is not counted).
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
    /// spec enabled tracing.
    pub trace: parblock_trace::TraceReport,
    /// The observer's state digest at its sealed watermark when the run
    /// ended (when capture was enabled and it sealed a block).
    pub state_digest: Option<parblock_types::Hash32>,
    /// Observer's final ledger head hash — equal heads mean the same
    /// blocks were committed in the same order. `None` when it sealed no
    /// block during the run.
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
    /// Total network messages sent during the run.
    pub messages: u64,
    /// Total client submissions (all phases).
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
    /// Builds a run's report from its four sources, on either clock: the
    /// client's books, the messages the network sent, the trace snapshot
    /// and the observer's own summary (`None` when the observer was down
    /// at the end). The only place a report field's source is decided.
    pub(crate) fn assemble(
        client: &Metrics,
        messages: u64,
        trace: TraceReport,
        observer: Option<PeerSummary>,
    ) -> RunReport {
        let observer = observer.unwrap_or_default();
        let durability = observer.durability;
        RunReport {
            blocks: observer.blocks,
            trace,
            state_digest: observer.state_digest,
            ledger_head: observer.ledger_head,
            pipeline_occupancy: observer.pipeline_occupancy,
            boundary_stall: observer.boundary_stall,
            boundary_stalls: observer.boundary_stalls,
            wal_bytes_written: durability.wal_bytes_written,
            fsync_count: durability.fsync_count,
            checkpoint_count: durability.checkpoint_count,
            recovery_replay_len: durability.recovery_replay_len,
            messages,
            ..client.report()
        }
    }

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
    use parblock_contracts::{AccountingContract, AccountingOp};
    use parblock_depgraph::DependencyGraph;
    use parblock_ledger::Ledger;
    use parblock_types::{AppId, Block, BlockNumber, ClientId, ExecutionCosts, Key};

    use super::*;
    use crate::cluster::{ClusterSpec, DurabilityMode, SystemKind};
    use crate::node::{Node, Peer};
    use crate::oxii::Executor;
    use crate::shared::{testing, Shared};

    fn tx(n: u64) -> TxId {
        TxId::new(ClientId(0), n)
    }

    impl Metrics {
        fn new() -> Self {
            Self::default()
        }

        fn with_clock(clock: Clock) -> Self {
            Self::with_clock_and_trace(clock, TraceRecorder::default())
        }

        fn committed(&self) -> u64 {
            self.books.lock().committed
        }

        /// A submission stamped at the current instant: every driver,
        /// XOV's included, stamps its intended arrival instead.
        fn record_submit(&self, tx: TxId) {
            let now = self.clock.now();
            self.record_submit_at(tx, now);
        }
    }

    const COST: Duration = Duration::from_micros(500);

    /// An executor at the first agent of `app`, τ(A) = 1 and 500 µs per
    /// transaction, stepped by hand under a simulated clock.
    fn stepped_agent(mut spec: ClusterSpec, app: AppId) -> (Arc<Shared>, Clock, Executor) {
        spec.costs = ExecutionCosts::per_tx(COST);
        spec.commit_quorum = Some(1);
        let agent = spec.agents_of(app)[0];
        let (shared, clock, net) = testing::stepped(spec);
        let executor = Executor::new(Arc::clone(&shared), net.endpoint(agent));
        (shared, clock, executor)
    }

    /// Announces `count` linked blocks of one `app` transfer each, all
    /// on the same two keys, so each block waits on the one before.
    fn announce_chain(shared: &Shared, executor: &mut Executor, app: AppId, count: u64) {
        let contract = AccountingContract::new(app);
        let op = AccountingOp::Transfer {
            from: Key(1),
            to: Key(2),
            amount: 1,
        };
        let mut prev = Ledger::genesis_hash();
        for n in 1..=count {
            let tx = contract.transaction(ClientId(1), n, &op);
            let block = Arc::new(Block::new(BlockNumber(n), prev, vec![tx]));
            prev = parblock_crypto::hash_wire(block.as_ref());
            let graph = DependencyGraph::build(&block);
            let (orderer, msg) = testing::new_block(shared, &block, Some(graph));
            executor.on_msg(orderer, msg);
        }
    }

    /// Advances `clock` one execution cost at a time until `executor`
    /// has sealed `height` blocks.
    fn run_to(clock: &Clock, executor: &mut Executor, height: usize) {
        while executor.chain().0.height() < height {
            clock.advance(COST);
            executor.tick(clock.now());
        }
    }

    /// The report a run ending now would produce with `executor` as the
    /// observer.
    fn report_of(shared: &Shared, executor: &Executor) -> RunReport {
        RunReport::assemble(
            &shared.metrics,
            0,
            TraceReport::default(),
            Some(executor.summary()),
        )
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

    /// Every executor counts its own pipeline gauges, the observer or
    /// not. At depth 2 a chain of four blocks starts blocks 1 and 2 at
    /// once; 3 and 4 each wait one execution (500 µs) for a free slot.
    #[test]
    fn pipeline_occupancy_and_stalls_accumulate() {
        let spec = ClusterSpec::new(SystemKind::Oxii);
        assert_eq!(spec.exec_pipeline_depth, 2);
        assert_ne!(spec.agents_of(AppId(1))[0], spec.observer());
        let (shared, clock, mut executor) = stepped_agent(spec, AppId(1));
        assert_eq!(report_of(&shared, &executor).max_occupancy(), 0);
        announce_chain(&shared, &mut executor, AppId(1), 4);
        run_to(&clock, &mut executor, 4);
        let r = report_of(&shared, &executor);
        assert_eq!(r.blocks, 4);
        assert_eq!(r.pipeline_occupancy, vec![0, 1, 3]);
        assert_eq!(r.max_occupancy(), 2);
        assert_eq!(r.boundary_stall, 2 * COST);
        assert_eq!(r.boundary_stalls, 2);
    }

    /// The observer's durability counters reach the report: zeroes in
    /// memory, the store's own counters on disk.
    #[test]
    fn durability_stats_flow_into_report() {
        let spec = ClusterSpec::new(SystemKind::Oxii);
        let (shared, clock, mut executor) = stepped_agent(spec.clone(), AppId(0));
        announce_chain(&shared, &mut executor, AppId(0), 2);
        run_to(&clock, &mut executor, 2);
        assert_eq!(report_of(&shared, &executor).fsync_count, 0);

        let tmp = parblock_store::testutil::TempDir::new("core-summary-durability");
        let mut on_disk = spec;
        on_disk.durability = DurabilityMode::on_disk(tmp.path());
        let (shared, clock, mut executor) = stepped_agent(on_disk, AppId(0));
        announce_chain(&shared, &mut executor, AppId(0), 2);
        run_to(&clock, &mut executor, 2);
        let stats = executor.summary().durability;
        assert!(
            stats.fsync_count > 0 && stats.wal_bytes_written > 0,
            "{stats:?}"
        );
        let r = report_of(&shared, &executor);
        assert_eq!(r.wal_bytes_written, stats.wal_bytes_written);
        assert_eq!(r.fsync_count, stats.fsync_count);
        assert_eq!(r.checkpoint_count, stats.checkpoint_count);
        assert_eq!(r.recovery_replay_len, stats.recovery_replay_len);
    }

    /// The report's head is the observer's latest, and `None` until it
    /// seals a block.
    #[test]
    fn ledger_head_records_latest() {
        let spec = ClusterSpec::new(SystemKind::Oxii);
        let (shared, clock, mut executor) = stepped_agent(spec, AppId(0));
        announce_chain(&shared, &mut executor, AppId(0), 2);
        assert_eq!(report_of(&shared, &executor).ledger_head, None);
        run_to(&clock, &mut executor, 1);
        let first = executor.chain().0.head_hash();
        assert_eq!(report_of(&shared, &executor).ledger_head, Some(first));
        run_to(&clock, &mut executor, 2);
        let head = report_of(&shared, &executor).ledger_head;
        assert_ne!(head, Some(first));
        assert_eq!(head, Some(executor.chain().0.head_hash()));
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
