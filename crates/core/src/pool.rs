//! The one execution rule every paradigm shares, and the executor-side
//! worker pool that runs it in parallel for OXII.
//!
//! A transaction executes through [`execute`] against a [`SnapshotReader`]
//! of its declared read set at a log position (its own under OXII and OX,
//! just after the ledger head at an XOV endorser); an access outside the
//! declared sets aborts.
//!
//! The OXII executor's main thread owns the blockchain state. When a
//! transaction becomes ready it snapshots the declared read set and hands
//! the work item to the pool; workers model the execution cost as a timed
//! wait (see DESIGN.md §3), run the contract, push the result on the
//! pool's completion channel and wake the executor's node loop, whose
//! next `tick` drains that channel (DESIGN.md §17).

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};

use parblock_contracts::{ExecOutcome, SmartContract, StateReader};
use parblock_ledger::{MvccState, Version};
use parblock_types::{BlockNumber, Key, SeqNo, Transaction, Value};

use crate::msg::ExecResult;

/// A read view over a snapshot taken by the executor's main thread.
///
/// Entries cover the transaction's **declared** read set; `Some(value)`
/// is a key present at the reader's version position, `None` a key with
/// no committed version there — so contracts can distinguish "key
/// absent" from "key holds zero" (via [`StateReader::try_read`]) and
/// abort observably on missing state.
///
/// A read outside the declared set is a scheduling-contract violation
/// (the dependency graph never ordered it): it is flagged, and the
/// worker pool deterministically aborts the execution instead of
/// silently serving a default value.
#[derive(Debug)]
pub(crate) struct SnapshotReader {
    entries: HashMap<Key, Option<Value>>,
    undeclared: AtomicBool,
}

impl SnapshotReader {
    fn new(entries: HashMap<Key, Option<Value>>) -> Self {
        SnapshotReader {
            entries,
            undeclared: AtomicBool::new(false),
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
        self.undeclared.load(Ordering::Relaxed)
    }
}

impl StateReader for SnapshotReader {
    fn try_read(&self, key: Key) -> Option<Value> {
        match self.entries.get(&key) {
            Some(present) => present.clone(),
            None => {
                self.undeclared.store(true, Ordering::Relaxed);
                None
            }
        }
    }
}

/// One unit of work: execute `tx` against `snapshot`.
pub(crate) struct WorkItem {
    pub block: BlockNumber,
    pub seq: SeqNo,
    pub tx: Transaction,
    pub snapshot: SnapshotReader,
    pub contract: Arc<dyn SmartContract>,
    pub cost: Duration,
}

/// A completed execution.
pub(crate) struct Completion {
    pub block: BlockNumber,
    pub seq: SeqNo,
    pub result: ExecResult,
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
) -> ExecResult {
    match contract.execute(tx, snapshot) {
        _ if snapshot.undeclared_read() => ExecResult::Aborted(format!(
            "undeclared read outside the declared read set of {:?}",
            tx.id()
        )),
        ExecOutcome::Commit(writes) => match undeclared_write(tx, &writes) {
            Some(key) => ExecResult::Aborted(format!(
                "undeclared write to {key} outside the declared write set of {:?}",
                tx.id()
            )),
            None => ExecResult::Committed(writes),
        },
        ExecOutcome::Abort(reason) => ExecResult::Aborted(reason),
    }
}

/// Executes one work item against its snapshot (the cost model wait is
/// the caller's concern: threaded workers sleep it, the deterministic
/// queue charges it as a virtual completion delay instead).
fn execute_item(item: &WorkItem) -> Completion {
    Completion {
        block: item.block,
        seq: item.seq,
        result: execute(item.contract.as_ref(), &item.tx, &item.snapshot),
    }
}

/// Where an executor's contract executions run: a thread pool under
/// the free-running runner, a virtual-time inline queue under the
/// deterministic scheduler (DESIGN.md §10).
pub(crate) trait ExecBackend {
    /// Starts executing a whole ready set, dispatched at `now`.
    fn dispatch_batch(&mut self, items: Vec<WorkItem>, now: Instant);

    /// Removes and returns every execution that has finished by `now`.
    fn take_done(&mut self, now: Instant) -> Vec<Completion>;

    /// When the next execution finishes, where that is known ahead of
    /// time. The pool does not know; its workers wake the node instead.
    fn next_due(&self) -> Option<Instant> {
        None
    }
}

/// A fixed pool of execution workers.
pub(crate) struct ExecPool {
    work_tx: Option<Sender<WorkItem>>,
    done_rx: Receiver<Completion>,
    handles: Vec<JoinHandle<()>>,
}

impl ExecPool {
    /// Starts `workers` threads. Each calls `wake` after pushing a
    /// completion, so whoever drains them can sleep until there is one.
    pub(crate) fn new(workers: usize, wake: impl Fn() + Clone + Send + 'static) -> Self {
        let workers = workers.max(1);
        let (work_tx, work_rx) = unbounded::<WorkItem>();
        let (done_tx, done_rx) = unbounded::<Completion>();
        let mut handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let work_rx = work_rx.clone();
            let done_tx = done_tx.clone();
            let wake = wake.clone();
            #[expect(
                clippy::disallowed_methods,
                reason = "the threaded executor pool; the deterministic backend is InlineQueue"
            )]
            let handle = std::thread::Builder::new()
                .name(format!("exec-worker-{i}"))
                .spawn(move || {
                    while let Ok(item) = work_rx.recv() {
                        if !item.cost.is_zero() {
                            std::thread::sleep(item.cost);
                        }
                        let _ = done_tx.send(execute_item(&item));
                        wake();
                    }
                })
                .expect("spawn exec worker");
            handles.push(handle);
        }
        ExecPool {
            work_tx: Some(work_tx),
            done_rx,
            handles,
        }
    }
}

impl ExecBackend for ExecPool {
    /// Hands a whole ready set to the workers in one call: the channel
    /// handle is resolved once and items stream out back-to-back, so a
    /// 1000-transaction low-conflict block is one handoff, not 1000
    /// (DESIGN.md §15).
    fn dispatch_batch(&mut self, items: Vec<WorkItem>, _now: Instant) {
        let tx = self.work_tx.as_ref().expect("pool running");
        for item in items {
            tx.send(item).expect("workers alive");
        }
    }

    /// Every completion the workers have pushed, whatever the time.
    fn take_done(&mut self, _now: Instant) -> Vec<Completion> {
        std::iter::from_fn(|| self.done_rx.try_recv().ok()).collect()
    }
}

impl Drop for ExecPool {
    fn drop(&mut self) {
        // Closing the work channel lets the workers finish what is
        // queued and exit; that bounds the join.
        self.work_tx = None;
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The deterministic execution backend (DESIGN.md §10): no worker
/// threads. A dispatched item is executed immediately (its snapshot is
/// already taken, so the result is position-correct regardless of when
/// it is *observed*), and the completion is held until virtual time
/// reaches `dispatch + cost` — the same cost model as the threaded pool,
/// minus the host scheduler. Completions surface in `(due, dispatch
/// order)`, a pure function of the schedule.
#[derive(Default)]
pub(crate) struct InlineQueue {
    /// Keyed `(due, dispatch ticket)`: the order completions surface in.
    pending: BTreeMap<(Instant, u64), Completion>,
    next_ticket: u64,
}

impl ExecBackend for InlineQueue {
    /// Dispatches a whole ready set at one instant: each item executes
    /// now and its completion becomes visible at `now + item.cost`, with
    /// tickets in input order. One clock read covers the batch (the
    /// virtual clock only advances between settles, so per-item reads
    /// would agree anyway).
    fn dispatch_batch(&mut self, items: Vec<WorkItem>, now: Instant) {
        for item in items {
            let key = (now + item.cost, self.next_ticket);
            self.next_ticket += 1;
            self.pending.insert(key, execute_item(&item));
        }
    }

    /// The earliest pending completion's due time.
    fn next_due(&self) -> Option<Instant> {
        self.pending.keys().next().map(|&(due, _)| due)
    }

    /// Removes and returns every completion due at or before `now`.
    fn take_done(&mut self, now: Instant) -> Vec<Completion> {
        let mut out = Vec::new();
        while let Some(entry) = self.pending.first_entry() {
            if entry.key().0 > now {
                break;
            }
            out.push(entry.remove());
        }
        out
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use parblock_contracts::{AccountingContract, AccountingOp};
    use parblock_types::{AppId, ClientId};

    use super::*;

    /// A pool whose wake-ups arrive on a channel.
    fn pool(workers: usize) -> (ExecPool, std::sync::mpsc::Receiver<()>) {
        let (wake, woken) = std::sync::mpsc::channel();
        let pool = ExecPool::new(workers, move || {
            let _ = wake.send(());
        });
        (pool, woken)
    }

    /// Waits for a wake-up, then takes the completion it announced.
    fn one_done(pool: &mut ExecPool, woken: &std::sync::mpsc::Receiver<()>) -> Completion {
        woken
            .recv_timeout(Duration::from_secs(1))
            .expect("workers wake after pushing a completion");
        pool.take_done(Instant::now()).pop().expect("completion")
    }

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
        SnapshotReader::new(HashMap::from([(Key(1), Some(Value::Int(10))), (Key(2), None)]))
    }

    #[test]
    fn pool_executes_and_reports() {
        let (mut pool, woken) = pool(2);
        let contract = Arc::new(AccountingContract::new(AppId(0)));
        let tx = transfer(&contract, 0);
        pool.dispatch_batch(
            vec![WorkItem {
                block: BlockNumber(1),
                seq: SeqNo(0),
                tx,
                snapshot: funded(),
                contract,
                cost: Duration::from_micros(50),
            }],
            Instant::now(),
        );
        let done = one_done(&mut pool, &woken);
        assert_eq!(done.seq, SeqNo(0));
        match done.result {
            ExecResult::Committed(writes) => {
                assert_eq!(writes, vec![(Key(1), Value::Int(5)), (Key(2), Value::Int(5))]);
            }
            ExecResult::Aborted(r) => panic!("unexpected abort: {r}"),
        }
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
        let contract = AccountingContract::new(AppId(0));
        let shared: Arc<dyn SmartContract> = Arc::new(AccountingContract::new(AppId(0)));
        let item = |seq: u32, cost_us: u64| WorkItem {
            block: BlockNumber(1),
            seq: SeqNo(seq),
            tx: transfer(&contract, u64::from(seq)),
            snapshot: funded(),
            contract: Arc::clone(&shared),
            cost: Duration::from_micros(cost_us),
        };
        let mut q = InlineQueue::default();
        let t0 = Instant::now();
        q.dispatch_batch(vec![item(0, 100), item(1, 50), item(2, 50)], t0);
        assert_eq!(q.next_due(), Some(t0 + Duration::from_micros(50)));
        assert!(q.take_done(t0).is_empty(), "nothing due at dispatch time");
        let due = q.take_done(t0 + Duration::from_micros(60));
        assert_eq!(
            due.iter().map(|c| c.seq).collect::<Vec<_>>(),
            vec![SeqNo(1), SeqNo(2)],
            "equal due times resolve in dispatch order"
        );
        let rest = q.take_done(t0 + Duration::from_millis(1));
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].seq, SeqNo(0));
        assert_eq!(q.next_due(), None);
    }

    #[test]
    fn aborts_propagate() {
        let contract = AccountingContract::new(AppId(0));
        // Both accounts declared but absent: source account missing.
        let snapshot = SnapshotReader::new(HashMap::from([(Key(1), None), (Key(2), None)]));
        match execute(&contract, &transfer(&contract, 0), &snapshot) {
            ExecResult::Aborted(reason) => {
                assert!(
                    reason.contains("missing"),
                    "missing-state abort must be observable, got: {reason}"
                );
            }
            ExecResult::Committed(_) => panic!("expected abort"),
        }
    }

    #[test]
    fn undeclared_reads_abort_instead_of_committing_on_defaults() {
        let contract = AccountingContract::new(AppId(0));
        // Snapshot omits a declared key entirely (mimics a scheduler
        // bug): previously this committed against silent defaults.
        let snapshot = SnapshotReader::new(HashMap::from([(Key(1), Some(Value::Int(100)))]));
        match execute(&contract, &transfer(&contract, 0), &snapshot) {
            ExecResult::Aborted(reason) => {
                assert!(reason.contains("undeclared read"), "got: {reason}");
            }
            ExecResult::Committed(w) => panic!("must not commit on undeclared reads: {w:?}"),
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
            ExecResult::Aborted(reason) => {
                assert!(reason.contains("undeclared write"), "got: {reason}");
            }
            ExecResult::Committed(w) => panic!("must not commit an undeclared write: {w:?}"),
        }
    }
}
