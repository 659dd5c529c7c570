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
//! held back by its connection. The simulator's client loop applies the
//! same window ([`window_open`]).

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parblock_net::Endpoint;
use parblock_types::wire::Wire;
use parblock_types::{ArrivalProcess, Transaction};
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
const TICK: Duration = Duration::from_millis(1);

/// Within this distance of the intended arrival the paced loop yields
/// instead of sleeping. A sleep ends late by the timer slack plus the
/// time the scheduler takes to run the driver again, and a send 1 ms
/// late is a counted overrun; a yield loop sees the instant within one
/// pass of the scheduler, and yielding rather than spinning leaves the
/// cores to the cluster (DESIGN.md §13 has what the spin costs).
const SPIN_THRESHOLD: Duration = Duration::from_millis(2);

/// What the driver does with an arrival that finds the cluster busy.
#[derive(Debug, Clone, Copy)]
enum Admission {
    /// Open loop: shed the arrival when this many transactions are
    /// outstanding; `None` submits every arrival.
    Shed(Option<u64>),
    /// Fixed count: wait until fewer than [`COUNT_WINDOW`] are
    /// outstanding, giving up at `deadline`.
    Window {
        /// When a wait for the window ends the run's submissions.
        deadline: Instant,
    },
}

/// Whether a fixed-count run may submit its next transaction: fewer than
/// [`COUNT_WINDOW`] are outstanding.
pub(crate) fn window_open(shared: &Shared) -> bool {
    shared.metrics.outstanding() < COUNT_WINDOW
}

/// The intended arrival offsets of an open-loop run, one at a time:
/// every arrival of `load`'s seeded process before `load.duration`.
fn open_loop_offsets(load: &LoadSpec, seed: u64) -> impl Iterator<Item = Duration> {
    let horizon = load.duration;
    ArrivalGen::new(load.arrival, load.rate_tps, seed).take_while(move |&offset| offset < horizon)
}

/// The intended arrival offsets of a fixed-count run, one at a time:
/// `n` arrivals uniformly spaced at `rate_tps`.
fn count_offsets(rate_tps: f64, seed: u64, n: usize) -> impl Iterator<Item = Duration> {
    ArrivalGen::new(ArrivalProcess::Uniform, rate_tps, seed).take(n)
}

/// Runs an open-loop driver: the arrival schedule of `load` (rate,
/// arrival process, duration), anchored at `start`, then returns
/// (commits continue to drain afterwards). Arrivals beyond
/// `load.max_outstanding` in-flight transactions are shed.
pub(crate) fn run_driver(
    shared: &Arc<Shared>,
    endpoint: &Endpoint<Msg>,
    load: &LoadSpec,
    start: Instant,
) {
    let mut gen = WorkloadGen::new(shared.spec.workload_config());
    let arrivals = open_loop_offsets(load, shared.spec.seed).zip(gen.stream());
    run_schedule(shared, endpoint, arrivals, start, Admission::Shed(load.max_outstanding));
}

/// Submits transactions `[skip, count)` of the deterministic workload
/// stream at `rate_tps` with uniform spacing: the first `skip` are
/// generated and discarded (they are already in the recovered chain of a
/// resumed cluster), the rest are submitted, at most [`COUNT_WINDOW`]
/// outstanding at a time. No shedding — fixed-count runs need the exact
/// set. A wait for the window that reaches `deadline` ends the
/// submissions.
pub(crate) fn run_driver_count_from(
    shared: &Arc<Shared>,
    endpoint: &Endpoint<Msg>,
    rate_tps: f64,
    skip: usize,
    count: usize,
    deadline: Instant,
) {
    let n = count.saturating_sub(skip);
    let mut gen = WorkloadGen::new(shared.spec.workload_config());
    let arrivals = count_offsets(rate_tps, shared.spec.seed, n).zip(gen.stream().skip(skip));
    let start = shared.clock.now();
    run_schedule(shared, endpoint, arrivals, start, Admission::Window { deadline });
}

/// Paces `arrivals` so that each transaction is submitted at `start` +
/// its offset, or as soon after as the driver and `admission` allow.
fn run_schedule(
    shared: &Arc<Shared>,
    endpoint: &Endpoint<Msg>,
    arrivals: impl Iterator<Item = (Duration, Transaction)>,
    start: Instant,
    admission: Admission,
) {
    let entry = shared.spec.entry_orderer();
    for (offset, tx) in arrivals {
        let intended = start + offset;
        // Sleep toward the intended arrival in short chunks (the stop
        // flag stays responsive), spinning out the last stretch where
        // sleep granularity would overshoot. When behind schedule, fall
        // through and submit immediately — due arrivals go out
        // back-to-back and the lag lands in the latency samples, not in
        // a stretched schedule.
        loop {
            if shared.stop.load(Ordering::Relaxed) {
                return;
            }
            let now = shared.clock.now();
            if now >= intended {
                break;
            }
            let remaining = intended - now;
            if remaining > SPIN_THRESHOLD {
                std::thread::sleep((remaining - SPIN_THRESHOLD).min(TICK));
            } else {
                std::thread::yield_now();
            }
        }
        match admission {
            Admission::Shed(Some(cap)) if shared.metrics.outstanding() >= cap => {
                shared.metrics.record_admission_shed();
                continue;
            }
            Admission::Shed(_) => {}
            Admission::Window { deadline } => {
                while !window_open(shared) {
                    if shared.clock.now() >= deadline {
                        return;
                    }
                    std::thread::sleep(TICK);
                }
            }
        }
        submit_at(shared, endpoint, entry, tx, intended);
    }
}

/// Submits `tx`, signed by its client and stamped at its intended
/// arrival: a REQUEST to `entry`, or under XOV an endorsement request to
/// every agent of its application (the `XovClient` node orders the
/// envelope).
pub(crate) fn submit_at(
    shared: &Arc<Shared>,
    endpoint: &Endpoint<Msg>,
    entry: parblock_types::NodeId,
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

    /// The driver pulls offsets one at a time; they must be the
    /// schedule `take_until` and `next_offset` materialise.
    #[test]
    fn streamed_offsets_equal_the_materialised_schedule() {
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
                let streamed: Vec<Duration> = open_loop_offsets(&load, seed).collect();
                let expect = ArrivalGen::new(arrival, load.rate_tps, seed).take_until(load.duration);
                assert!(!expect.is_empty());
                assert_eq!(streamed, expect, "{arrival} seed {seed}");
            }
        }
        let mut gen = ArrivalGen::new(ArrivalProcess::Uniform, 1e9, 42);
        let expect: Vec<Duration> = (0..1_000).map(|_| gen.next_offset()).collect();
        assert_eq!(count_offsets(1e9, 42, 1_000).collect::<Vec<_>>(), expect);
    }
}
