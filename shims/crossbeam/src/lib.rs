//! The workspace's channel: an unbounded MPMC queue under the
//! `crossbeam::channel` names and error types, plus a wake token.
//!
//! The channel is a `Mutex<VecDeque>` + `Condvar` queue with sender /
//! receiver reference counting for crossbeam-compatible disconnect
//! semantics: `recv` errors once all senders are gone and the queue is
//! drained; `send` errors once all receivers are gone.
//!
//! Beyond crossbeam's API, a consumer with other event sources blocks
//! in [`channel::Receiver::wait_until`], which a queued message, a
//! deadline or a [`channel::Waker`] ends. The wake is a sticky token
//! under the queue lock, so one raised between "drained, found nothing"
//! and "blocked" is not lost (DESIGN.md §8, §17).
//!
//! Every node thread blocks in one place, `block_until`. On a thread's
//! first timed wait it sets the thread's timer slack to 1 µs, so a
//! deadline wakes the thread within about a microsecond instead of the
//! kernel's default 50 µs (DESIGN.md §17).

#![deny(unsafe_code)]

/// The calling thread's timer slack: how late the kernel may end a
/// timed wait so it can coalesce wake-ups. Linux only; elsewhere the
/// wait keeps the platform's precision.
mod slack {
    use std::cell::Cell;

    /// The slack, in nanoseconds, a thread's timed waits run with once
    /// it has made its first one.
    pub(crate) const PRECISE_NS: u64 = 1_000;

    thread_local! {
        static PRECISE: Cell<bool> = const { Cell::new(false) };
    }

    /// Sets this thread's timer slack to [`PRECISE_NS`], once per thread.
    pub(crate) fn make_precise() {
        PRECISE.with(|done| {
            if !done.replace(true) {
                set(PRECISE_NS);
            }
        });
    }

    #[cfg(target_os = "linux")]
    const PR_SET_TIMERSLACK: i32 = 29;

    #[cfg(target_os = "linux")]
    fn set(ns: u64) {
        // A failure leaves the default slack: the wait is only later.
        let _ = prctl(PR_SET_TIMERSLACK, ns);
    }

    #[cfg(not(target_os = "linux"))]
    fn set(_ns: u64) {}

    /// This thread's current timer slack in nanoseconds.
    #[cfg(all(test, target_os = "linux"))]
    pub(crate) fn current_ns() -> u64 {
        const PR_GET_TIMERSLACK: i32 = 30;
        u64::try_from(prctl(PR_GET_TIMERSLACK, 0)).expect("PR_GET_TIMERSLACK succeeds")
    }

    #[cfg(target_os = "linux")]
    fn prctl(option: i32, arg: u64) -> i32 {
        use std::ffi::{c_int, c_ulong};
        extern "C" {
            fn prctl(option: c_int, ...) -> c_int;
        }
        let (arg, unused) = (arg as c_ulong, 0 as c_ulong);
        #[expect(
            unsafe_code,
            reason = "the workspace's one FFI call: glibc's prctl, for the thread's timer slack"
        )]
        // SAFETY: `prctl` is glibc's variadic `int prctl(int, ...)`. The
        // two options used here read or set the calling thread's timer
        // slack from one `unsigned long`; no pointer crosses the call,
        // and the unused arguments are zero, as prctl(2) asks.
        unsafe {
            prctl(option, arg, unused, unused, unused)
        }
    }
}

/// MPMC channels with crossbeam-shaped errors.
pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex, PoisonError};
    use std::time::{Duration, Instant};

    struct Chan<T> {
        state: Mutex<State<T>>,
        ready: Condvar,
        senders: AtomicUsize,
        receivers: AtomicUsize,
    }

    struct State<T> {
        queue: VecDeque<T>,
        /// Set by [`Waker::wake`], consumed by the `wait_until` it ends.
        woken: bool,
    }

    impl<T> Chan<T> {
        fn lock(&self) -> std::sync::MutexGuard<'_, State<T>> {
            self.state.lock().unwrap_or_else(PoisonError::into_inner)
        }

        /// A queued message, or the disconnect that says none will come.
        fn pop(&self, state: &mut State<T>) -> Option<Result<T, RecvError>> {
            let popped = state.queue.pop_front().map(Ok);
            let gone = || self.senders.load(Ordering::Acquire) == 0;
            popped.or_else(|| gone().then_some(Err(RecvError)))
        }

        /// Blocks until `poll` yields under the lock or `deadline` passes.
        fn block_until<R>(
            &self,
            deadline: Option<Instant>,
            mut poll: impl FnMut(&mut State<T>) -> Option<R>,
        ) -> Option<R> {
            let mut state = self.lock();
            loop {
                if let Some(out) = poll(&mut state) {
                    return Some(out);
                }
                state = match deadline {
                    None => self
                        .ready
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner),
                    Some(deadline) => {
                        crate::slack::make_precise();
                        let left = deadline.checked_duration_since(Instant::now())?;
                        let timed = self.ready.wait_timeout(state, left);
                        timed.unwrap_or_else(PoisonError::into_inner).0
                    }
                };
            }
        }
    }

    /// Error for [`Sender::send`]: every receiver was dropped. Carries
    /// the unsent message back.
    pub struct SendError<T>(pub T);

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("sending on a disconnected channel")
        }
    }

    /// Error for [`Receiver::recv`]: channel empty and all senders gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("receiving on an empty and disconnected channel")
        }
    }

    /// Error for [`Receiver::try_recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// Nothing queued right now.
        Empty,
        /// Nothing queued and all senders dropped.
        Disconnected,
    }

    /// Error for [`Receiver::recv_timeout`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// Nothing arrived before the timeout.
        Timeout,
        /// Nothing queued and all senders dropped.
        Disconnected,
    }

    /// The sending half; cheap to clone.
    pub struct Sender<T> {
        chan: Arc<Chan<T>>,
    }

    /// The receiving half; cheap to clone (MPMC).
    pub struct Receiver<T> {
        chan: Arc<Chan<T>>,
    }

    /// Ends a [`Receiver::wait_until`] on its channel without sending a
    /// message; cheap to clone. Counts as neither sender nor receiver.
    pub struct Waker<T>(Arc<Chan<T>>);

    /// Creates an unbounded channel.
    #[must_use]
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let chan = Arc::new(Chan {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                woken: false,
            }),
            ready: Condvar::new(),
            senders: AtomicUsize::new(1),
            receivers: AtomicUsize::new(1),
        });
        (
            Sender {
                chan: Arc::clone(&chan),
            },
            Receiver { chan },
        )
    }

    impl<T> Sender<T> {
        /// Enqueues `msg`, failing if every receiver was dropped.
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            // Check under the queue lock: Receiver::drop also takes it
            // while decrementing, so disconnect and enqueue are
            // arbitrated atomically (as in real crossbeam) — send never
            // returns Ok for a channel whose last receiver is already
            // gone.
            let mut state = self.chan.lock();
            if self.chan.receivers.load(Ordering::Acquire) == 0 {
                drop(state);
                return Err(SendError(msg));
            }
            state.queue.push_back(msg);
            drop(state);
            self.chan.ready.notify_one();
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.chan.senders.fetch_add(1, Ordering::Relaxed);
            Sender {
                chan: Arc::clone(&self.chan),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            if self.chan.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
                // Last sender: wake blocked receivers so they observe
                // the disconnect. Taking the lock first means a receiver
                // that found senders left is already asleep to hear it.
                drop(self.chan.lock());
                self.chan.ready.notify_all();
            }
        }
    }

    impl<T> fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Sender { .. }")
        }
    }

    impl<T> Receiver<T> {
        /// Blocks until a message arrives or all senders disconnect.
        pub fn recv(&self) -> Result<T, RecvError> {
            let popped = self.chan.block_until(None, |state| self.chan.pop(state));
            popped.expect("a wait without a deadline ends with a result")
        }

        /// Returns a queued message without blocking.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            match self.chan.pop(&mut self.chan.lock()) {
                Some(Ok(msg)) => Ok(msg),
                Some(Err(RecvError)) => Err(TryRecvError::Disconnected),
                None => Err(TryRecvError::Empty),
            }
        }

        /// Blocks up to `timeout` for a message.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Some(Instant::now() + timeout);
            match self
                .chan
                .block_until(deadline, |state| self.chan.pop(state))
            {
                Some(Ok(msg)) => Ok(msg),
                Some(Err(RecvError)) => Err(RecvTimeoutError::Disconnected),
                None => Err(RecvTimeoutError::Timeout),
            }
        }

        /// Blocks until a message is queued (it stays queued), a
        /// [`Waker`] of this channel has been raised (the wake is
        /// consumed), every sender is gone, or `deadline` passes, which
        /// alone returns `false`; `None` waits without limit. For a
        /// channel with one consumer: `send` wakes one waiter, and this
        /// one takes nothing.
        pub fn wait_until(&self, deadline: Option<Instant>) -> bool {
            let gone = || self.chan.senders.load(Ordering::Acquire) == 0;
            let ready = |state: &mut State<T>| {
                let woken = std::mem::take(&mut state.woken);
                (woken || !state.queue.is_empty() || gone()).then_some(())
            };
            self.chan.block_until(deadline, ready).is_some()
        }

        /// A handle that ends this channel's [`Receiver::wait_until`].
        #[must_use]
        pub fn waker(&self) -> Waker<T> {
            Waker(Arc::clone(&self.chan))
        }

        /// Number of queued messages.
        #[must_use]
        pub fn len(&self) -> usize {
            self.chan.lock().queue.len()
        }

        /// Whether the queue is empty.
        #[must_use]
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Waker<T> {
        /// Ends the current [`Receiver::wait_until`] on this channel, or
        /// the next one if none is blocked now. Wakes do not accumulate:
        /// any number raised before a wait end that one wait.
        pub fn wake(&self) {
            self.0.lock().woken = true;
            self.0.ready.notify_all();
        }
    }

    impl<T> Clone for Waker<T> {
        fn clone(&self) -> Self {
            Waker(Arc::clone(&self.0))
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.chan.receivers.fetch_add(1, Ordering::Relaxed);
            Receiver {
                chan: Arc::clone(&self.chan),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            // Serialize with in-flight sends (see Sender::send).
            let _state = self.chan.lock();
            self.chan.receivers.fetch_sub(1, Ordering::AcqRel);
        }
    }

    impl<T> fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Receiver { .. }")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel::{unbounded, RecvTimeoutError, TryRecvError};
    use super::slack;
    use std::time::{Duration, Instant};

    #[test]
    fn send_recv_fifo() {
        let (tx, rx) = unbounded();
        for i in 0..10 {
            tx.send(i).unwrap();
        }
        for want in 0..10 {
            assert_eq!(rx.recv().unwrap(), want);
        }
    }

    #[test]
    fn disconnect_on_sender_drop() {
        let (tx, rx) = unbounded::<u32>();
        tx.send(1).unwrap();
        drop(tx);
        assert_eq!(rx.recv().unwrap(), 1); // drains before erroring
        assert!(rx.recv().is_err());
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn send_fails_without_receivers() {
        let (tx, rx) = unbounded::<u32>();
        drop(rx);
        assert!(tx.send(1).is_err());
    }

    #[test]
    fn recv_timeout_expires() {
        let (_tx, rx) = unbounded::<u32>();
        let got = rx.recv_timeout(Duration::from_millis(10));
        assert_eq!(got, Err(RecvTimeoutError::Timeout));
    }

    #[test]
    fn mpmc_clones_share_queue() {
        let (tx, rx) = unbounded();
        let rx2 = rx.clone();
        tx.send(7).unwrap();
        assert_eq!(rx2.recv().unwrap(), 7);
        assert_eq!(rx.len(), 0);
    }

    #[test]
    fn cross_thread_delivery() {
        let (tx, rx) = unbounded();
        let handle = std::thread::spawn(move || {
            for i in 0..100 {
                tx.send(i).unwrap();
            }
        });
        let mut sum = 0u64;
        for _ in 0..100 {
            sum += rx.recv().unwrap();
        }
        handle.join().unwrap();
        assert_eq!(sum, 4950);
    }

    #[test]
    fn wake_before_the_wait_ends_the_next_wait_and_is_consumed() {
        let (_tx, rx) = unbounded::<u32>();
        let waker = rx.waker();
        waker.wake();
        waker.wake();
        // No deadline: only the stored token can end this wait.
        assert!(rx.wait_until(None));
        // Consumed, however many were raised: the next wait runs out.
        assert!(!rx.wait_until(Some(Instant::now() + Duration::from_millis(10))));
    }

    #[test]
    fn the_last_sender_leaving_ends_a_wait() {
        let (tx, rx) = unbounded::<u32>();
        let waiter = std::thread::spawn(move || rx.wait_until(None));
        std::thread::sleep(Duration::from_millis(10));
        drop(tx);
        assert!(waiter.join().unwrap());
    }

    #[test]
    fn wake_neither_drops_nor_reorders_queued_messages() {
        let (tx, rx) = unbounded();
        let waker = rx.waker();
        tx.send(1).unwrap();
        waker.wake();
        tx.send(2).unwrap();
        assert!(rx.wait_until(None), "token and queue both end the wait");
        assert!(rx.wait_until(None), "a queued message ends it again");
        assert_eq!(rx.len(), 2, "waiting takes nothing");
        assert_eq!(rx.recv().unwrap(), 1);
        waker.wake();
        assert_eq!(rx.recv().unwrap(), 2);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    }

    /// A thread's first timed wait leaves its timer slack at 1 µs. A
    /// thread that has only waited without a deadline keeps the slack
    /// it started with (inherited from the thread that spawned it).
    #[cfg(target_os = "linux")]
    #[test]
    fn a_timed_wait_and_only_a_timed_wait_makes_the_slack_precise() {
        let timed = std::thread::spawn(|| {
            let (_tx, rx) = unbounded::<u32>();
            assert!(!rx.wait_until(Some(Instant::now() + Duration::from_millis(1))));
            slack::current_ns()
        });
        assert_eq!(timed.join().unwrap(), slack::PRECISE_NS);

        let (tx, rx) = unbounded::<u32>();
        let untimed = std::thread::spawn(move || {
            let before = slack::current_ns();
            assert!(rx.wait_until(None));
            assert_eq!(rx.recv(), Ok(1));
            (before, slack::current_ns())
        });
        std::thread::sleep(Duration::from_millis(10));
        tx.send(1).unwrap();
        let (before, after) = untimed.join().unwrap();
        assert_eq!(
            after, before,
            "a wait without a deadline leaves the slack alone"
        );
    }
}
