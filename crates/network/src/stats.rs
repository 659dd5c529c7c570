//! Traffic counters.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Network-wide traffic statistics.
///
/// Cloning shares the counters.
#[derive(Debug, Clone, Default)]
pub struct NetStats {
    inner: Arc<Counters>,
}

#[derive(Debug, Default)]
struct Counters {
    sent: AtomicU64,
    delivered: AtomicU64,
    dropped: AtomicU64,
    enqueued: AtomicU64,
    wakeups: AtomicU64,
}

impl NetStats {
    /// Creates zeroed counters.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn record_sent(&self) {
        self.inner.sent.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_delivered(&self) {
        self.inner.delivered.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_dropped(&self) {
        self.inner.dropped.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_enqueued(&self) {
        self.inner.enqueued.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_wakeup(&self) {
        self.inner.wakeups.fetch_add(1, Ordering::Relaxed);
    }

    /// Reclassifies an optimistically counted delivery as dropped (the
    /// destination mailbox turned out to be closed).
    pub(crate) fn record_delivery_failed(&self) {
        self.inner.delivered.fetch_sub(1, Ordering::Relaxed);
        self.inner.dropped.fetch_add(1, Ordering::Relaxed);
    }

    /// Messages handed to the network.
    #[must_use]
    pub fn sent(&self) -> u64 {
        self.inner.sent.load(Ordering::Relaxed)
    }

    /// Messages delivered to a mailbox.
    #[must_use]
    pub fn delivered(&self) -> u64 {
        self.inner.delivered.load(Ordering::Relaxed)
    }

    /// Messages dropped by fault injection or closed mailboxes.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.inner.dropped.load(Ordering::Relaxed)
    }

    /// Messages scheduled for future delivery (zero-delay sends deliver
    /// inline and are not counted here).
    #[must_use]
    pub fn enqueued(&self) -> u64 {
        self.inner.enqueued.load(Ordering::Relaxed)
    }

    /// Wake tokens raised at a receiving endpoint by a send that became
    /// its earliest message in flight. Together with
    /// [`NetStats::enqueued`] this audits the wake protocol: the sharded
    /// engine keeps enqueues-per-wakeup O(batch) (DESIGN.md §15).
    #[must_use]
    pub fn wakeups(&self) -> u64 {
        self.inner.wakeups.load(Ordering::Relaxed)
    }

    /// Resets every counter to zero.
    pub fn reset(&self) {
        self.inner.sent.store(0, Ordering::Relaxed);
        self.inner.delivered.store(0, Ordering::Relaxed);
        self.inner.dropped.store(0, Ordering::Relaxed);
        self.inner.enqueued.store(0, Ordering::Relaxed);
        self.inner.wakeups.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        let s = NetStats::new();
        s.record_sent();
        s.record_sent();
        s.record_delivered();
        s.record_dropped();
        assert_eq!(s.sent(), 2);
        assert_eq!(s.delivered(), 1);
        assert_eq!(s.dropped(), 1);
        s.reset();
        assert_eq!(s.sent() + s.delivered() + s.dropped(), 0);
    }

    #[test]
    fn clones_share_counters() {
        let s = NetStats::new();
        let t = s.clone();
        s.record_sent();
        assert_eq!(t.sent(), 1);
    }
}
