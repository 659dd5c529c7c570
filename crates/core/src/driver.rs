//! The client load driver for all three paradigms: rate-paced submission
//! straight to the ordering service under OX and OXII (§IV-B: "clients
//! send requests to the orderer nodes"), and to the application's
//! endorsers under XOV.
//!
//! # Pacing
//!
//! The driver is open-loop against an **absolute intended-arrival
//! schedule**: arrival `i` is due at `start + offset[i]`, and the paced
//! loop sleeps toward each intended instant, submitting late arrivals
//! back-to-back when it falls behind. Offsets (`ArrivalGen`) and
//! transactions (`WorkloadGen::stream`, one window at a time) are
//! generated as they are submitted, so the driver holds one window of
//! input however long the run. Two classes of bug shaped this design:
//!
//! * **Pacing drift.** The previous per-tick accrual (`acc += per_tick`
//!   once per loop iteration) credited exactly one tick of budget per
//!   iteration, so any iteration that overran its tick — signing bursts,
//!   scheduler preemption — silently stretched the schedule and the
//!   achieved rate fell below the offered rate without anything
//!   reporting it. An absolute schedule cannot drift: lateness is
//!   caught up, not forgotten.
//! * **Coordinated omission.** Every submission is stamped with its
//!   intended arrival ([`crate::metrics::Metrics::record_submit_at`]),
//!   so a generation hiccup, a late wake-up or a wait for the window
//!   below inflates the reported latency instead of hiding it, and is
//!   counted separately as `driver_overruns` for self-checks.
//!
//! # Admission
//!
//! An open-loop run never waits: with `LoadSpec::max_outstanding` set,
//! an arrival that finds that many transactions outstanding is shed and
//! counted. A fixed-count run never sheds, since it needs the exact set:
//! an arrival that finds [`COUNT_WINDOW`] transactions outstanding waits
//! until a commit or abort at the observer makes room, as a client is
//! held back by its connection.
//!
//! # One client, two clocks
//!
//! A [`Client`] is everything a run's load decides: the arrivals, the
//! admission rule, the measurement window and the entry orderer. It has
//! two operations, [`Client::submit_due`] and [`Client::next_instant`].
//! The threaded runner waits for the next instant on the wall clock
//! ([`drive`]); the simulator merges it into its time advance.

use std::iter::Peekable;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parblock_net::Endpoint;
use parblock_types::wire::Wire;
use parblock_types::{ArrivalProcess, NodeId, Transaction, TxId};
use parblock_workload::{ArrivalGen, WorkloadGen};

use crate::cluster::SystemKind;
use crate::msg::Msg;
use crate::runner::LoadSpec;
use crate::shared::Shared;

/// Most transactions a fixed-count run keeps outstanding. It sits above
/// every simulated run the tests and CI artifacts pin, so none of them
/// ever waits, and well below a drain of tens of thousands of
/// transactions, whose input would otherwise queue whole in the entry
/// orderer's mailbox.
pub(crate) const COUNT_WINDOW: u64 = 8_192;

/// Longest single sleep of the paced loop and of a wait for the window
/// — the stop flag and the window are re-checked at least this often.
pub(crate) const TICK: Duration = Duration::from_millis(1);

/// Within this distance of the intended arrival the paced loop yields
/// instead of sleeping. A sleep ends late by the timer slack plus the
/// time the scheduler takes to run the driver again, and a send 1 ms
/// late is a counted overrun; a yield loop sees the instant within one
/// pass of the scheduler, and yielding rather than spinning leaves the
/// cores to the cluster (DESIGN.md §13 has what the spin costs).
const SPIN_THRESHOLD: Duration = Duration::from_millis(2);

/// What a run submits.
#[derive(Debug, Clone)]
pub(crate) enum Load {
    /// Transactions `[skip, count)` of the workload stream, uniformly
    /// spaced at `rate_tps` (at rate 0 every arrival is due at the
    /// start), at most [`COUNT_WINDOW`] outstanding. The first `skip`
    /// are generated and discarded: they are already in the recovered
    /// chain of a resumed cluster.
    Count {
        /// Length of the stream prefix the run covers.
        count: usize,
        /// Uniform arrival rate; 0 submits everything at once.
        rate_tps: f64,
        /// Transactions of the prefix not submitted.
        skip: usize,
    },
    /// The open-loop arrivals of a [`LoadSpec`]: its process, rate and
    /// duration, measured between its warm-up and cool-down, shed past
    /// its `max_outstanding`.
    Open(LoadSpec),
}

/// What the client does with an arrival that finds the cluster busy.
#[derive(Debug, Clone, Copy)]
enum Admission {
    /// Open loop: shed the arrival when this many transactions are
    /// outstanding; `None` submits every arrival.
    Shed(Option<u64>),
    /// Fixed count: hold it until fewer than [`COUNT_WINDOW`] are
    /// outstanding.
    Window,
}

/// The intended arrival offsets of an open-loop run, one at a time:
/// every arrival of `load`'s seeded process before `load.duration`.
fn open_loop_offsets(load: &LoadSpec, seed: u64) -> impl Iterator<Item = Duration> {
    let horizon = load.duration;
    ArrivalGen::new(load.arrival, load.rate_tps, seed).take_while(move |&offset| offset < horizon)
}

/// The intended arrival offsets of a fixed-count run, one at a time:
/// `n` arrivals uniformly spaced at `rate_tps`, or all at zero when the
/// rate is zero.
fn count_offsets(rate_tps: f64, seed: u64, n: usize) -> impl Iterator<Item = Duration> {
    let mut gen =
        (rate_tps > 0.0).then(|| ArrivalGen::new(ArrivalProcess::Uniform, rate_tps, seed));
    (0..n).map(move |_| gen.as_mut().map_or(Duration::ZERO, ArrivalGen::next_offset))
}

/// One run's client: its arrivals, generated as they are submitted,
/// anchored at the run's start instant.
pub(crate) struct Client {
    arrivals: Peekable<Box<dyn Iterator<Item = (Duration, Transaction)>>>,
    start: Instant,
    admission: Admission,
    entry: NodeId,
}

impl Client {
    /// The client of `load` on `shared`'s cluster, starting at `start`.
    /// An open-loop load with a warm-up or cool-down sets the
    /// measurement window on intended arrival times.
    ///
    /// # Panics
    ///
    /// Panics when an open-loop load's warm-up plus cool-down leaves no
    /// measured span, or its rate is not positive.
    pub(crate) fn new(shared: &Shared, load: &Load, start: Instant) -> Self {
        let seed = shared.spec.seed;
        let stream = WorkloadGen::new(shared.spec.workload_config()).stream();
        let (arrivals, admission): (Box<dyn Iterator<Item = _>>, _) = match load {
            Load::Count {
                count,
                rate_tps,
                skip,
            } => {
                let offsets = count_offsets(*rate_tps, seed, count.saturating_sub(*skip));
                (Box::new(offsets.zip(stream.skip(*skip))), Admission::Window)
            }
            Load::Open(load) => {
                if let Some((begin, end)) = load.measurement_window() {
                    shared
                        .metrics
                        .set_measurement_window(start + begin, start + end);
                }
                let offsets = open_loop_offsets(load, seed);
                (
                    Box::new(offsets.zip(stream)),
                    Admission::Shed(load.max_outstanding),
                )
            }
        };
        Client {
            arrivals: arrivals.peekable(),
            start,
            admission,
            entry: shared.spec.entry_orderer(),
        }
    }

    /// Whether a held arrival must wait for a commit to make room.
    fn held(&self, shared: &Shared) -> bool {
        matches!(self.admission, Admission::Window) && shared.metrics.outstanding() >= COUNT_WINDOW
    }

    /// Submits every arrival due by `now` that admission lets through,
    /// each stamped at its intended arrival, handing each submitted id
    /// to `submitted`. A shed arrival is consumed and counted; a held
    /// one stays first in line.
    pub(crate) fn submit_due(
        &mut self,
        shared: &Arc<Shared>,
        endpoint: &Endpoint<Msg>,
        now: Instant,
        mut submitted: impl FnMut(TxId),
    ) {
        while let Some(&(offset, _)) = self.arrivals.peek() {
            let intended = self.start + offset;
            if intended > now || self.held(shared) {
                return;
            }
            let (_, tx) = self.arrivals.next().expect("peeked");
            if let Admission::Shed(Some(cap)) = self.admission {
                if shared.metrics.outstanding() >= cap {
                    shared.metrics.record_admission_shed();
                    continue;
                }
            }
            submitted(tx.id());
            submit_at(shared, endpoint, self.entry, tx, intended);
        }
    }

    /// The next instant the client needs: the intended arrival of its
    /// next transaction. `None` when the input is exhausted, or when the
    /// window is full and only a commit can reopen it.
    pub(crate) fn next_instant(&mut self, shared: &Shared) -> Option<Instant> {
        if self.held(shared) {
            return None;
        }
        self.arrivals.peek().map(|&(offset, _)| self.start + offset)
    }

    /// Whether every arrival has been submitted or shed.
    pub(crate) fn exhausted(&mut self) -> bool {
        self.arrivals.peek().is_none()
    }
}

/// Submits `load` on the wall clock from now: sleeps toward each
/// intended arrival in chunks of at most [`TICK`], yields through the
/// last [`SPIN_THRESHOLD`], and when behind schedule submits the due
/// arrivals back-to-back, so the lag lands in the latency samples and
/// not in a stretched schedule. Returns once the input is exhausted,
/// when the stop flag is set, or when a wait for the window reaches
/// `deadline` (commits continue to drain afterwards).
pub(crate) fn drive(
    shared: &Arc<Shared>,
    endpoint: &Endpoint<Msg>,
    load: &Load,
    deadline: Instant,
) {
    let mut client = Client::new(shared, load, shared.clock.now());
    loop {
        if shared.stop.load(Ordering::Relaxed) {
            return;
        }
        let now = shared.clock.now();
        match client.next_instant(shared) {
            Some(due) if due <= now => client.submit_due(shared, endpoint, now, |_| {}),
            Some(due) if due - now > SPIN_THRESHOLD => {
                std::thread::sleep((due - now - SPIN_THRESHOLD).min(TICK));
            }
            Some(_) => std::thread::yield_now(),
            None if client.exhausted() || now >= deadline => return,
            None => std::thread::sleep(TICK),
        }
    }
}

/// Submits `tx`, signed by its client and stamped at its intended
/// arrival: a REQUEST to `entry`, or under XOV an endorsement request to
/// every agent of its application (the `XovClient` node orders the
/// envelope).
fn submit_at(
    shared: &Arc<Shared>,
    endpoint: &Endpoint<Msg>,
    entry: NodeId,
    tx: Transaction,
    intended: Instant,
) {
    let signer = shared.spec.client_signer(tx.client());
    let sig = shared.keys.sign(signer, &tx.wire_bytes());
    shared.metrics.record_submit_at(tx.id(), intended);
    // The trace stamps the *intended* arrival too: driver lag widens the
    // submitted→sequenced gap instead of disappearing (coordinated
    // omission, see the module docs).
    shared
        .trace
        .record_at(tx.id(), parblock_trace::Stage::Submitted, intended);
    if shared.spec.system == SystemKind::Xov {
        endpoint.multicast(
            &shared.registry.agents(tx.app()),
            &Msg::EndorseReq { tx, sig },
        );
    } else {
        endpoint.send(entry, Msg::Request { tx, sig });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterSpec;

    /// Every arrival of `load`'s client on a cluster of `spec`, drained
    /// without a cluster: (intended offset, transaction id).
    fn arrivals(spec: ClusterSpec, load: &Load) -> Vec<(Duration, TxId)> {
        let shared = Shared::new(spec);
        let client = Client::new(&shared, load, shared.clock.now());
        client
            .arrivals
            .map(|(offset, tx)| (offset, tx.id()))
            .collect()
    }

    /// The client pulls offsets and transactions one at a time; they
    /// must be the schedule `take_until` and `next_offset` materialise,
    /// zipped with the workload stream past its skipped prefix.
    #[test]
    fn streamed_offsets_equal_the_materialised_schedule() {
        let spec = |seed| {
            let mut spec = ClusterSpec::new(SystemKind::Oxii);
            spec.seed = seed;
            spec
        };
        let ids = |seed, skip, n| -> Vec<TxId> {
            let txs = WorkloadGen::new(spec(seed).workload_config()).stream();
            txs.skip(skip).take(n).map(|tx| tx.id()).collect()
        };
        for arrival in [
            ArrivalProcess::Uniform,
            ArrivalProcess::Poisson,
            ArrivalProcess::default_burst(),
        ] {
            for seed in [3, 42] {
                let load = LoadSpec {
                    rate_tps: 5_000.0,
                    duration: Duration::from_millis(250),
                    arrival,
                    ..LoadSpec::default()
                };
                let offsets =
                    ArrivalGen::new(arrival, load.rate_tps, seed).take_until(load.duration);
                assert!(!offsets.is_empty());
                let expect: Vec<_> = offsets
                    .iter()
                    .copied()
                    .zip(ids(seed, 0, offsets.len()))
                    .collect();
                assert_eq!(
                    arrivals(spec(seed), &Load::Open(load)),
                    expect,
                    "{arrival} seed {seed}"
                );
            }
        }
        let (count, skip) = (1_000, 37);
        let n = count - skip;
        let uniform: Vec<Duration> = ArrivalGen::new(ArrivalProcess::Uniform, 1e9, 42)
            .take(n)
            .collect();
        for (rate_tps, offsets) in [(0.0, vec![Duration::ZERO; n]), (1e9, uniform)] {
            let expect: Vec<_> = offsets.into_iter().zip(ids(42, skip, n)).collect();
            let load = Load::Count {
                count,
                rate_tps,
                skip,
            };
            assert_eq!(arrivals(spec(42), &load), expect, "rate {rate_tps}");
        }
    }
}
