//! Injectable time source (DESIGN.md §10).
//!
//! Every component that reads time — the network delivery engine, the
//! orderer's batch/cut/consensus timers, the executor's stall tracking,
//! the metrics sink — takes its notion of *now* from a [`Clock`] instead
//! of calling [`Instant::now`] directly. A wall clock reproduces the
//! free-running behaviour; a *simulated* clock is advanced explicitly by
//! the deterministic scheduler, so an entire cluster run becomes a pure
//! function of its seed.
//!
//! The simulated clock still hands out [`Instant`]s: it captures one
//! real instant at creation and returns `base + virtual_offset`. All
//! existing `Duration` arithmetic (`duration_since`, deadline
//! comparisons) works unchanged, and every *duration* derived from a
//! simulated clock is bit-deterministic even though the absolute base
//! differs between processes.
//!
//! # Examples
//!
//! ```
//! use std::time::Duration;
//! use parblock_types::Clock;
//!
//! let clock = Clock::simulated();
//! let t0 = clock.now();
//! clock.advance(Duration::from_millis(5));
//! assert_eq!(clock.now().duration_since(t0), Duration::from_millis(5));
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A shared virtual-time core: a fixed base instant plus an explicitly
/// advanced offset.
#[derive(Debug)]
struct VirtualCore {
    base: Instant,
    offset_ns: AtomicU64,
}

#[derive(Debug, Clone)]
enum ClockInner {
    Wall,
    Virtual(Arc<VirtualCore>),
}

/// A time source: either the operating-system wall clock or a simulated
/// clock advanced by a deterministic scheduler.
///
/// Cloning is cheap and clones share the same virtual time.
#[derive(Debug, Clone)]
pub struct Clock {
    inner: ClockInner,
}

impl Default for Clock {
    /// The wall clock.
    fn default() -> Self {
        Clock::wall()
    }
}

impl Clock {
    /// The operating-system wall clock ([`Instant::now`]).
    #[must_use]
    pub fn wall() -> Self {
        Clock {
            inner: ClockInner::Wall,
        }
    }

    /// A simulated clock starting at virtual time zero. Time only moves
    /// when [`Clock::advance`] (or [`Clock::advance_to`]) is called.
    #[must_use]
    #[expect(
        clippy::disallowed_methods,
        reason = "a virtual clock's epoch; only offsets from it are ever observed"
    )]
    pub fn simulated() -> Self {
        Clock {
            inner: ClockInner::Virtual(Arc::new(VirtualCore {
                base: Instant::now(),
                offset_ns: AtomicU64::new(0),
            })),
        }
    }

    /// Whether this is a simulated clock.
    #[must_use]
    pub fn is_simulated(&self) -> bool {
        matches!(self.inner, ClockInner::Virtual(_))
    }

    /// The current time.
    #[must_use]
    #[expect(
        clippy::disallowed_methods,
        reason = "the wall clock behind the injected Clock: the one place product code reads it"
    )]
    pub fn now(&self) -> Instant {
        match &self.inner {
            ClockInner::Wall => Instant::now(),
            ClockInner::Virtual(core) => {
                core.base + Duration::from_nanos(core.offset_ns.load(Ordering::Acquire))
            }
        }
    }

    /// Virtual time elapsed since the clock was created (wall clocks
    /// return `None` — they have no fixed origin).
    #[must_use]
    pub fn elapsed(&self) -> Option<Duration> {
        match &self.inner {
            ClockInner::Wall => None,
            ClockInner::Virtual(core) => {
                Some(Duration::from_nanos(core.offset_ns.load(Ordering::Acquire)))
            }
        }
    }

    /// Nanoseconds elapsed from `origin` to [`Clock::now`], saturating
    /// at zero when `origin` is in the future (and at `u64::MAX` far
    /// past it). This is the timestamp-as-offset primitive the tracer
    /// uses: offsets from a fixed origin are bit-deterministic under a
    /// simulated clock even though the absolute base instant differs
    /// between processes.
    #[must_use]
    pub fn ns_since(&self, origin: Instant) -> u64 {
        let elapsed = self.now().saturating_duration_since(origin);
        u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX)
    }

    /// Advances a simulated clock by `delta`.
    ///
    /// # Panics
    ///
    /// Panics on a wall clock — advancing real time is a scheduler bug.
    pub fn advance(&self, delta: Duration) {
        match &self.inner {
            ClockInner::Wall => panic!("cannot advance the wall clock"),
            ClockInner::Virtual(core) => {
                let ns = u64::try_from(delta.as_nanos()).expect("virtual time fits u64 nanos");
                core.offset_ns.fetch_add(ns, Ordering::AcqRel);
            }
        }
    }

    /// Advances a simulated clock so that [`Clock::now`] returns `target`
    /// (a no-op when `target` is not in the future).
    ///
    /// # Panics
    ///
    /// Panics on a wall clock, like [`Clock::advance`].
    pub fn advance_to(&self, target: Instant) {
        let now = self.now();
        if target > now {
            self.advance(target.duration_since(now));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_tracks_real_time() {
        let clock = Clock::wall();
        assert!(!clock.is_simulated());
        assert_eq!(clock.elapsed(), None);
        let a = clock.now();
        let b = clock.now();
        assert!(b >= a);
    }

    #[test]
    fn simulated_clock_only_moves_on_advance() {
        let clock = Clock::simulated();
        assert!(clock.is_simulated());
        let t0 = clock.now();
        assert_eq!(clock.now(), t0, "virtual time is frozen");
        clock.advance(Duration::from_micros(250));
        assert_eq!(clock.now() - t0, Duration::from_micros(250));
        assert_eq!(clock.elapsed(), Some(Duration::from_micros(250)));
    }

    #[test]
    fn clones_share_virtual_time() {
        let clock = Clock::simulated();
        let witness = clock.clone();
        clock.advance(Duration::from_millis(3));
        assert_eq!(witness.elapsed(), Some(Duration::from_millis(3)));
    }

    #[test]
    fn advance_to_is_monotone() {
        let clock = Clock::simulated();
        let target = clock.now() + Duration::from_millis(2);
        clock.advance_to(target);
        assert_eq!(clock.now(), target);
        // Past targets do not rewind.
        clock.advance_to(target - Duration::from_millis(1));
        assert_eq!(clock.now(), target);
    }

    #[test]
    #[should_panic(expected = "cannot advance the wall clock")]
    fn advancing_wall_clock_panics() {
        Clock::wall().advance(Duration::from_secs(1));
    }

    #[test]
    fn ns_since_saturates_and_tracks_virtual_offsets() {
        let clock = Clock::simulated();
        let origin = clock.now();
        assert_eq!(clock.ns_since(origin), 0);
        clock.advance(Duration::from_micros(7));
        assert_eq!(clock.ns_since(origin), 7_000);
        // A future origin saturates to zero instead of panicking.
        let future = clock.now() + Duration::from_secs(1);
        assert_eq!(clock.ns_since(future), 0);
    }
}
