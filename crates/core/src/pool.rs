//! The one execution rule every paradigm shares, and the queue every
//! node's executions wait in.
//!
//! A transaction executes through [`execute`] against a [`SnapshotReader`]
//! of its declared read set at a log position (its own under OXII and OX,
//! just after the ledger head at an XOV endorser); an access outside the
//! declared sets aborts.
//!
//! No node sleeps an execution's cost (DESIGN.md §3): the node runs the
//! contract when it dispatches the execution and holds the result in an
//! [`InlineQueue`] until the cost has passed on the cluster clock. The
//! OXII executor's queue has `exec_pool` lanes, so that many of its
//! executions overlap; an OX peer, XOV endorser or XOV validator has one.

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

use parblock_contracts::{ExecOutcome, SmartContract, StateReader};
use parblock_ledger::{MvccState, Version};
use parblock_types::{BlockNumber, Key, SeqNo, Transaction, Value};

/// A read view over a snapshot of the state.
///
/// Entries cover the transaction's **declared** read set; `Some(value)`
/// is a key present at the reader's version position, `None` a key with
/// no committed version there — so contracts can distinguish "key
/// absent" from "key holds zero" (via [`StateReader::try_read`]) and
/// abort observably on missing state.
///
/// A read outside the declared set is a scheduling-contract violation
/// (the dependency graph never ordered it): it is flagged, and
/// [`execute`] deterministically aborts the execution instead of
/// silently serving a default value.
#[derive(Debug)]
pub(crate) struct SnapshotReader {
    entries: HashMap<Key, Option<Value>>,
    undeclared: Cell<bool>,
}

impl SnapshotReader {
    fn new(entries: HashMap<Key, Option<Value>>) -> Self {
        SnapshotReader {
            entries,
            undeclared: Cell::new(false),
        }
    }

    /// Snapshots `tx`'s declared read set as `state` holds it at
    /// `position`: per key, the greatest version at or below it.
    pub(crate) fn at(state: &MvccState, tx: &Transaction, position: Version) -> Self {
        let mut entries = HashMap::new();
        for key in tx.rw_set().reads() {
            entries.insert(*key, state.get_at(*key, position));
        }
        Self::new(entries)
    }

    /// Whether the contract read a key outside the declared read set.
    pub(crate) fn undeclared_read(&self) -> bool {
        self.undeclared.get()
    }
}

impl StateReader for SnapshotReader {
    fn try_read(&self, key: Key) -> Option<Value> {
        match self.entries.get(&key) {
            Some(present) => present.clone(),
            None => {
                self.undeclared.set(true);
                None
            }
        }
    }
}

/// A completed execution.
pub(crate) struct Completion {
    pub block: BlockNumber,
    pub seq: SeqNo,
    pub result: ExecOutcome,
}

/// The first key in `writes` outside `tx`'s declared write set. Honest
/// execution aborts such a write, so neither a COMMIT vote nor an XOV
/// envelope carrying one may apply it.
pub(crate) fn undeclared_write(tx: &Transaction, writes: &[(Key, Value)]) -> Option<Key> {
    writes
        .iter()
        .map(|(key, _)| *key)
        .find(|key| !tx.rw_set().declares_write(*key))
}

/// Executes `tx` against `snapshot`. An access outside the declared sets
/// escapes the dependency graph: a read saw state the scheduler never
/// ordered, a write would land where no edge orders it. Either aborts,
/// decided from the transaction and its snapshot alone, so every agent
/// agrees.
pub(crate) fn execute(
    contract: &dyn SmartContract,
    tx: &Transaction,
    snapshot: &SnapshotReader,
) -> ExecOutcome {
    match contract.execute(tx, snapshot) {
        _ if snapshot.undeclared_read() => ExecOutcome::Abort(format!(
            "undeclared read outside the declared read set of {:?}",
            tx.id()
        )),
        ExecOutcome::Commit(writes) => match undeclared_write(tx, &writes) {
            Some(key) => ExecOutcome::Abort(format!(
                "undeclared write to {key} outside the declared write set of {:?}",
                tx.id()
            )),
            None => ExecOutcome::Commit(writes),
        },
        abort @ ExecOutcome::Abort(_) => abort,
    }
}

/// Work charged on the clock instead of slept (DESIGN.md §3, §17): a
/// result is computed when its work is dispatched (its snapshot is taken,
/// so it is position-correct whenever it is *observed*) and held on one
/// of the queue's lanes until it is due ([`InlineQueue::hold_in_turn`]).
/// Results surface in `(due, hold order)`, a pure function of the
/// schedule.
pub(crate) struct InlineQueue<T = Completion> {
    /// Keyed `(due, hold ticket)`: the order results surface in.
    pending: BTreeMap<(Instant, u64), T>,
    next_ticket: u64,
    /// When each lane's last job is done; `None` for a lane never used.
    lanes: Vec<Option<Instant>>,
}

/// One lane: a node that serves one job at a time.
impl<T> Default for InlineQueue<T> {
    fn default() -> Self {
        InlineQueue::new(1)
    }
}

impl<T> InlineQueue<T> {
    /// A queue running up to `lanes` jobs at once (at least one).
    pub(crate) fn new(lanes: usize) -> Self {
        InlineQueue {
            pending: BTreeMap::new(),
            next_ticket: 0,
            lanes: vec![None; lanes.max(1)],
        }
    }

    /// Holds `result` as the next job of the earliest-free lane (the
    /// lowest such lane on a tie): the job starts at the later of `ready`
    /// and the end of that lane's previous job, and is done `cost` after.
    /// While no more jobs overlap than there are lanes, each is due at
    /// `ready + cost`. A late caller shifts nothing after it. Returns
    /// when the job starts.
    pub(crate) fn hold_in_turn(&mut self, result: T, ready: Instant, cost: Duration) -> Instant {
        let lane = self
            .lanes
            .iter_mut()
            .min_by_key(|free| **free)
            .expect("a queue has at least one lane");
        let start = lane.map_or(ready, |free| free.max(ready));
        let due = start + cost;
        *lane = Some(due);
        self.pending.insert((due, self.next_ticket), result);
        self.next_ticket += 1;
        start
    }

    /// The earliest held result's due time.
    pub(crate) fn next_due(&self) -> Option<Instant> {
        self.pending.keys().next().map(|&(due, _)| due)
    }

    /// Removes and returns the earliest result if it is due by `now`.
    pub(crate) fn pop_due(&mut self, now: Instant) -> Option<T> {
        let entry = self.pending.first_entry()?;
        (entry.key().0 <= now).then(|| entry.remove())
    }

    /// Removes and returns every result due at or before `now`.
    pub(crate) fn take_done(&mut self, now: Instant) -> Vec<T> {
        std::iter::from_fn(|| self.pop_due(now)).collect()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use std::sync::Arc;

    use parblock_contracts::{AccountingContract, AccountingOp};
    use parblock_types::{AppId, ClientId};

    use super::*;

    /// A transfer of 5 from `Key(1)` to `Key(2)`.
    fn transfer(contract: &AccountingContract, ts: u64) -> Transaction {
        let op = AccountingOp::Transfer {
            from: Key(1),
            to: Key(2),
            amount: 5,
        };
        contract.transaction(ClientId(1), ts, &op)
    }

    /// `Key(1)` holds 10; `Key(2)` is declared but absent: transfers
    /// create the destination.
    fn funded() -> SnapshotReader {
        SnapshotReader::new(HashMap::from([
            (Key(1), Some(Value::Int(10))),
            (Key(2), None),
        ]))
    }

    #[test]
    fn snapshot_reader_distinguishes_absent_from_zero() {
        let reader = SnapshotReader::new(HashMap::from([
            (Key(1), Some(Value::Int(0))),
            (Key(2), None),
        ]));
        assert_eq!(reader.try_read(Key(1)), Some(Value::Int(0)), "stored zero");
        assert_eq!(reader.try_read(Key(2)), None, "declared but absent");
        assert_eq!(reader.read(Key(2)), Value::Unit);
        assert!(!reader.undeclared_read(), "declared reads never flag");
    }

    #[test]
    fn snapshot_reader_flags_undeclared_reads() {
        let reader = SnapshotReader::new(HashMap::from([(Key(1), Some(Value::Int(1)))]));
        assert_eq!(reader.read(Key(1)), Value::Int(1));
        assert!(!reader.undeclared_read());
        assert_eq!(reader.read(Key(9)), Value::Unit, "undeclared key");
        assert!(reader.undeclared_read());
    }

    #[test]
    fn inline_queue_orders_completions_by_due_then_dispatch() {
        let us = Duration::from_micros;
        let mut q = InlineQueue::new(3);
        let t0 = Instant::now();
        for (job, cost) in [(0, 100), (1, 50), (2, 50)] {
            q.hold_in_turn(job, t0, us(cost));
        }
        assert_eq!(q.next_due(), Some(t0 + us(50)));
        assert!(q.take_done(t0).is_empty(), "nothing due at dispatch time");
        assert_eq!(
            q.take_done(t0 + us(60)),
            [1, 2],
            "equal due times resolve in dispatch order"
        );
        assert_eq!(q.take_done(t0 + us(1_000)), [0]);
        assert_eq!(q.next_due(), None);
    }

    /// Two lanes serve five jobs held at one instant two at a time, each
    /// starting when its lane is free; a job held later takes whichever
    /// lane is free first.
    #[test]
    fn inline_queue_runs_as_many_jobs_at_once_as_it_has_lanes() {
        let cost = Duration::from_micros(100);
        let mut q = InlineQueue::new(2);
        let t = Instant::now();
        let starts: Vec<_> = (0..5).map(|job| q.hold_in_turn(job, t, cost)).collect();
        assert_eq!(starts, [t, t, t + cost, t + cost, t + cost * 2]);
        assert_eq!(q.take_done(t + cost), [0, 1]);
        assert_eq!(q.take_done(t + cost * 2), [2, 3]);
        assert_eq!(q.hold_in_turn(5, t + cost * 2, cost), t + cost * 2);
        assert_eq!(
            q.take_done(t + cost * 3),
            [4, 5],
            "the second lane was free"
        );
        assert_eq!(q.next_due(), None);
    }

    #[test]
    fn aborts_propagate() {
        let contract = AccountingContract::new(AppId(0));
        // Both accounts declared but absent: source account missing.
        let snapshot = SnapshotReader::new(HashMap::from([(Key(1), None), (Key(2), None)]));
        match execute(&contract, &transfer(&contract, 0), &snapshot) {
            ExecOutcome::Abort(reason) => {
                assert!(
                    reason.contains("missing"),
                    "missing-state abort must be observable, got: {reason}"
                );
            }
            ExecOutcome::Commit(_) => panic!("expected abort"),
        }
    }

    #[test]
    fn undeclared_reads_abort_instead_of_committing_on_defaults() {
        let contract = AccountingContract::new(AppId(0));
        // Snapshot omits a declared key entirely (mimics a scheduler
        // bug): previously this committed against silent defaults.
        let snapshot = SnapshotReader::new(HashMap::from([(Key(1), Some(Value::Int(100)))]));
        match execute(&contract, &transfer(&contract, 0), &snapshot) {
            ExecOutcome::Abort(reason) => {
                assert!(reason.contains("undeclared read"), "got: {reason}");
            }
            ExecOutcome::Commit(w) => panic!("must not commit on undeclared reads: {w:?}"),
        }
    }

    /// Commits what the accounting contract commits, plus one key its
    /// declared write set leaves out.
    pub(crate) struct Overreach(pub(crate) AccountingContract);

    impl Overreach {
        /// The lying contract for `app`, and a transfer of 5 from
        /// `Key(1)` to `Key(2)` it commits with an extra write to `Key(99)`.
        pub(crate) fn with_transfer(app: AppId) -> (Arc<dyn SmartContract>, Transaction) {
            let contract = Overreach(AccountingContract::new(app));
            let tx = transfer(&contract.0, 0);
            (Arc::new(contract), tx)
        }
    }

    impl SmartContract for Overreach {
        fn app(&self) -> AppId {
            self.0.app()
        }

        fn name(&self) -> &str {
            "overreach"
        }

        fn execute(&self, tx: &Transaction, state: &dyn StateReader) -> ExecOutcome {
            match self.0.execute(tx, state) {
                ExecOutcome::Commit(mut writes) => {
                    writes.push((Key(99), Value::Int(1)));
                    ExecOutcome::Commit(writes)
                }
                abort => abort,
            }
        }
    }

    #[test]
    fn undeclared_writes_abort_instead_of_committing() {
        let (contract, tx) = Overreach::with_transfer(AppId(0));
        match execute(contract.as_ref(), &tx, &funded()) {
            ExecOutcome::Abort(reason) => {
                assert!(reason.contains("undeclared write"), "got: {reason}");
            }
            ExecOutcome::Commit(w) => panic!("must not commit an undeclared write: {w:?}"),
        }
    }
}
