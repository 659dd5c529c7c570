//! The executor-side worker pool: parallel contract execution against
//! per-transaction read snapshots.
//!
//! The executor's main thread owns the blockchain state. When a
//! transaction becomes ready it snapshots the declared read set and hands
//! the work item to the pool; workers model the execution cost as a timed
//! wait (see DESIGN.md §3), run the contract, and report the result back
//! on a channel the main loop selects on.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, Sender};

use parblock_contracts::{ExecOutcome, SmartContract, StateReader};
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
    pub(crate) fn new(entries: HashMap<Key, Option<Value>>) -> Self {
        SnapshotReader {
            entries,
            undeclared: AtomicBool::new(false),
        }
    }

    /// Whether the contract read a key outside the declared read set.
    pub(crate) fn undeclared_read(&self) -> bool {
        self.undeclared.load(Ordering::Relaxed)
    }
}

impl StateReader for SnapshotReader {
    fn read(&self, key: Key) -> Value {
        self.try_read(key).unwrap_or_default()
    }

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

/// Executes one work item against its snapshot (the cost model wait is
/// the caller's concern: threaded workers sleep it, the deterministic
/// queue charges it as a virtual completion delay instead).
fn execute_item(item: &WorkItem) -> Completion {
    let outcome = item.contract.execute(&item.tx, &item.snapshot);
    // A read outside the declared set executed against state the
    // scheduler never ordered: abort deterministically (every agent sees
    // the same declared set, so all agents agree).
    let result = if item.snapshot.undeclared_read() {
        ExecResult::Aborted(format!(
            "undeclared read outside the declared read set of {:?}",
            item.tx.id()
        ))
    } else {
        match outcome {
            ExecOutcome::Commit(writes) => ExecResult::Committed(writes),
            ExecOutcome::Abort(reason) => ExecResult::Aborted(reason),
        }
    };
    Completion {
        block: item.block,
        seq: item.seq,
        result,
    }
}

/// A fixed pool of execution workers.
pub(crate) struct ExecPool {
    work_tx: Option<Sender<WorkItem>>,
    done_rx: Receiver<Completion>,
    handles: Vec<JoinHandle<()>>,
}

impl ExecPool {
    pub(crate) fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let (work_tx, work_rx) = unbounded::<WorkItem>();
        let (done_tx, done_rx) = unbounded::<Completion>();
        let mut handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let work_rx = work_rx.clone();
            let done_tx = done_tx.clone();
            let handle = std::thread::Builder::new()
                .name(format!("exec-worker-{i}"))
                .spawn(move || {
                    while let Ok(item) = work_rx.recv() {
                        if !item.cost.is_zero() {
                            std::thread::sleep(item.cost);
                        }
                        let _ = done_tx.send(execute_item(&item));
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

    /// Hands a whole ready set to the workers in one call: the channel
    /// handle is resolved once and items stream out back-to-back, so a
    /// 1000-transaction low-conflict block is one handoff, not 1000
    /// (DESIGN.md §15).
    pub(crate) fn dispatch_batch(&self, items: Vec<WorkItem>) {
        let tx = self.work_tx.as_ref().expect("pool running");
        for item in items {
            tx.send(item).expect("workers alive");
        }
    }

    pub(crate) fn completions(&self) -> &Receiver<Completion> {
        &self.done_rx
    }

    /// Stops the workers (drops the work channel and joins).
    pub(crate) fn shutdown(mut self) {
        self.work_tx = None;
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for ExecPool {
    fn drop(&mut self) {
        // Closing the channel lets workers exit; joining here would risk
        // blocking in a destructor (C-DTOR-BLOCK), so we only signal.
        self.work_tx = None;
    }
}

/// The deterministic execution backend (DESIGN.md §10): no worker
/// threads. A dispatched item is executed immediately (its snapshot is
/// already taken, so the result is position-correct regardless of when
/// it is *observed*), and the completion is held until virtual time
/// reaches `dispatch + cost` — the same cost model as the threaded pool,
/// minus the host scheduler. Completions surface in `(due, dispatch
/// order)`, a pure function of the schedule.
pub(crate) struct InlineQueue {
    pending: std::collections::BinaryHeap<std::cmp::Reverse<InlineEntry>>,
    next_ticket: u64,
}

struct InlineEntry {
    due: std::time::Instant,
    ticket: u64,
    completion: Completion,
}

impl PartialEq for InlineEntry {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.ticket == other.ticket
    }
}
impl Eq for InlineEntry {}
impl PartialOrd for InlineEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for InlineEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.due, self.ticket).cmp(&(other.due, other.ticket))
    }
}

impl InlineQueue {
    pub(crate) fn new() -> Self {
        InlineQueue {
            pending: std::collections::BinaryHeap::new(),
            next_ticket: 0,
        }
    }

    /// Dispatches a whole ready set at one instant: each item executes
    /// now and its completion becomes visible at `now + item.cost`, with
    /// tickets in input order. One clock read covers the batch (the
    /// virtual clock only advances between settles, so per-item reads
    /// would agree anyway).
    pub(crate) fn dispatch_batch(&mut self, items: Vec<WorkItem>, now: std::time::Instant) {
        for item in items {
            let due = now + item.cost;
            let completion = execute_item(&item);
            let ticket = self.next_ticket;
            self.next_ticket += 1;
            self.pending.push(std::cmp::Reverse(InlineEntry {
                due,
                ticket,
                completion,
            }));
        }
    }

    /// The earliest pending completion's due time.
    pub(crate) fn next_due(&self) -> Option<std::time::Instant> {
        self.pending.peek().map(|std::cmp::Reverse(e)| e.due)
    }

    /// Removes and returns every completion due at or before `now`.
    pub(crate) fn take_due(&mut self, now: std::time::Instant) -> Vec<Completion> {
        let mut out = Vec::new();
        while let Some(std::cmp::Reverse(entry)) = self.pending.peek() {
            if entry.due > now {
                break;
            }
            let std::cmp::Reverse(entry) = self.pending.pop().expect("peeked");
            out.push(entry.completion);
        }
        out
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use parblock_contracts::{AccountingContract, AccountingOp};
    use parblock_types::{AppId, ClientId};

    use super::*;

    #[test]
    fn pool_executes_and_reports() {
        let pool = ExecPool::new(2);
        let contract = Arc::new(AccountingContract::new(AppId(0)));
        let op = AccountingOp::Transfer {
            from: Key(1),
            to: Key(2),
            amount: 5,
        };
        let tx = contract.transaction(ClientId(1), 0, &op);
        // `to` is declared but absent: transfers create the destination.
        let mut entries = HashMap::new();
        entries.insert(Key(1), Some(Value::Int(10)));
        entries.insert(Key(2), None);
        pool.dispatch_batch(vec![WorkItem {
            block: BlockNumber(1),
            seq: SeqNo(0),
            tx,
            snapshot: SnapshotReader::new(entries),
            contract,
            cost: Duration::from_micros(50),
        }]);
        let done = pool
            .completions()
            .recv_timeout(Duration::from_secs(1))
            .expect("completion");
        assert_eq!(done.seq, SeqNo(0));
        match done.result {
            ExecResult::Committed(writes) => {
                assert_eq!(writes, vec![(Key(1), Value::Int(5)), (Key(2), Value::Int(5))]);
            }
            ExecResult::Aborted(r) => panic!("unexpected abort: {r}"),
        }
        pool.shutdown();
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
        use std::time::Instant;
        let contract: Arc<dyn SmartContract> = Arc::new(AccountingContract::new(AppId(0)));
        let maker = AccountingContract::new(AppId(0));
        let item = |seq: u32, cost_us: u64| {
            let op = AccountingOp::Transfer {
                from: Key(1),
                to: Key(2),
                amount: 1,
            };
            let tx = maker.transaction(ClientId(1), u64::from(seq), &op);
            WorkItem {
                block: BlockNumber(1),
                seq: SeqNo(seq),
                tx,
                snapshot: SnapshotReader::new(HashMap::from([
                    (Key(1), Some(Value::Int(10))),
                    (Key(2), None),
                ])),
                contract: Arc::clone(&contract),
                cost: Duration::from_micros(cost_us),
            }
        };
        let mut q = InlineQueue::new();
        let t0 = Instant::now();
        q.dispatch_batch(vec![item(0, 100), item(1, 50), item(2, 50)], t0);
        assert_eq!(q.next_due(), Some(t0 + Duration::from_micros(50)));
        assert!(q.take_due(t0).is_empty(), "nothing due at dispatch time");
        let due = q.take_due(t0 + Duration::from_micros(60));
        assert_eq!(
            due.iter().map(|c| c.seq).collect::<Vec<_>>(),
            vec![SeqNo(1), SeqNo(2)],
            "equal due times resolve in dispatch order"
        );
        let rest = q.take_due(t0 + Duration::from_millis(1));
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].seq, SeqNo(0));
        assert!(q.is_empty());
    }

    #[test]
    fn aborts_propagate() {
        let pool = ExecPool::new(1);
        let contract = Arc::new(AccountingContract::new(AppId(0)));
        let op = AccountingOp::Transfer {
            from: Key(1),
            to: Key(2),
            amount: 5,
        };
        let tx = contract.transaction(ClientId(1), 0, &op);
        // Both accounts declared but absent: source account missing.
        pool.dispatch_batch(vec![WorkItem {
            block: BlockNumber(1),
            seq: SeqNo(3),
            tx,
            snapshot: SnapshotReader::new(HashMap::from([(Key(1), None), (Key(2), None)])),
            contract,
            cost: Duration::ZERO,
        }]);
        let done = pool
            .completions()
            .recv_timeout(Duration::from_secs(1))
            .expect("completion");
        match done.result {
            ExecResult::Aborted(reason) => {
                assert!(
                    reason.contains("missing"),
                    "missing-state abort must be observable, got: {reason}"
                );
            }
            ExecResult::Committed(_) => panic!("expected abort"),
        }
        pool.shutdown();
    }

    #[test]
    fn undeclared_reads_abort_instead_of_committing_on_defaults() {
        let pool = ExecPool::new(1);
        let contract = Arc::new(AccountingContract::new(AppId(0)));
        let op = AccountingOp::Transfer {
            from: Key(1),
            to: Key(2),
            amount: 5,
        };
        let tx = contract.transaction(ClientId(1), 0, &op);
        // Snapshot omits the declared keys entirely (mimics a scheduler
        // bug): previously this committed against silent defaults.
        pool.dispatch_batch(vec![WorkItem {
            block: BlockNumber(1),
            seq: SeqNo(0),
            tx,
            snapshot: SnapshotReader::new(HashMap::from([(Key(1), Some(Value::Int(100)))])),
            contract,
            cost: Duration::ZERO,
        }]);
        let done = pool
            .completions()
            .recv_timeout(Duration::from_secs(1))
            .expect("completion");
        match done.result {
            ExecResult::Aborted(reason) => {
                assert!(reason.contains("undeclared read"), "got: {reason}");
            }
            ExecResult::Committed(w) => panic!("must not commit on undeclared reads: {w:?}"),
        }
        pool.shutdown();
    }
}
