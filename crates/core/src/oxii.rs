//! ParBlockchain's execution phase (§IV-C): executor nodes running the
//! three concurrent procedures.
//!
//! * **Algorithm 1** — execute the transactions this node is an agent for,
//!   following the dependency graph: a transaction runs once all its
//!   predecessors are locally executed or committed.
//! * **Algorithm 2** — buffer execution results and multicast them as one
//!   COMMIT message per block at the end of every `tick` that finished
//!   executions. This deviates from §IV-C, which holds results until
//!   another application's agents need one or the node's share of the
//!   block is done (DESIGN.md §2): under load a tick drains many
//!   completions, so COMMITs stay batched, and along a chain each result
//!   leaves as soon as it exists.
//! * **Algorithm 3** — collect COMMIT messages, and once τ(A) matching
//!   results arrive for a transaction, apply them to the blockchain
//!   state.
//!
//! The same node implementation serves *non-executor* peers (agents of no
//! application): they only run Algorithm 3.
//!
//! # The execution pipeline (DESIGN.md §7)
//!
//! Up to [`ClusterSpec::exec_pipeline_depth`](crate::ClusterSpec) blocks
//! are **in flight** at once over a multi-version state
//! ([`parblock_ledger::MvccState`]), implementing §III-A's multi-version
//! adaptation: every applied write creates a version stamped with the
//! writer's log position `(block, seq)`, and a transaction's snapshot
//! reads the greatest version *below its own position*. A block-`n+1`
//! transaction whose keys are untouched by still-pending block-`n`
//! writers starts immediately; conflicting ones wait on cross-block
//! dependency edges from the retained conflict index
//! ([`parblock_depgraph::CrossBlockIndex`]). Blocks may finish committing
//! out of order, but are appended to the ledger strictly in order (the
//! commit watermark), below which old versions are garbage-collected.
//! Depth 1 reproduces the paper's block-at-a-time barrier exactly.
//!
//! The executor is a `Node` (DESIGN.md §17): `on_msg` takes
//! a NEWBLOCK or a COMMIT, `tick` the executions that have finished.

use std::collections::{BTreeMap, HashMap};
use std::ops::RangeBounds;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parblock_contracts::ExecOutcome;
use parblock_crypto::Signature;
use parblock_depgraph::{CrossBlockIndex, ReadyTracker};
use parblock_ledger::{prune_to_sealed, Ledger, MvccState, Version};
use parblock_net::Endpoint;
use parblock_store::Store;
use parblock_types::{BlockNumber, Hash32, Key, NodeId, SeqNo, TxId, Value};

use crate::msg::{BlockBundle, CommitMsg, Msg};
use crate::node::{Node, Peer, PeerSummary};
use crate::pool::{self, undeclared_write, Completion, InlineQueue, SnapshotReader};
use crate::quorum::{self, NewBlockQuorum};
use crate::shared::Shared;

/// Per-block execution state on one executor.
struct BlockRun {
    bundle: Arc<BlockBundle>,
    tracker: ReadyTracker,
    /// `We`: positions this node executes (it is an agent of their app).
    we: Vec<bool>,
    /// Result votes per position: `(agent, result)`, deduplicated per
    /// agent. Our own result is voted like any other agent's.
    votes: HashMap<SeqNo, Vec<(NodeId, ExecOutcome)>>,
    /// Locally executed positions (the set `Xe`).
    executed: Vec<bool>,
    /// Committed positions (the set `Ce`).
    committed: Vec<bool>,
    committed_count: usize,
    /// Algorithm 2 buffer: results executed in the current `tick`, not
    /// yet multicast.
    xe_buffer: Vec<(SeqNo, ExecOutcome)>,
}

impl BlockRun {
    fn is_done(&self) -> bool {
        self.committed_count == self.bundle.block.len()
    }
}

/// The executor node (and passive peer) runtime.
pub(crate) struct Executor {
    shared: Arc<Shared>,
    endpoint: Endpoint<Msg>,
    /// Executions running on `exec_pool` lanes, each due `per_tx` after
    /// it starts.
    running: InlineQueue,
    /// Multi-version blockchain state: every applied write is a versioned
    /// put at the writer's log position, so concurrent blocks read
    /// position-correct snapshots.
    state: MvccState,
    ledger: Ledger,
    /// Where committed effects and sealed blocks persist on disk
    /// (DESIGN.md §9); `None` in memory. Effects are logged before the
    /// COMMIT message carrying them is multicast, and a block is sealed
    /// durably before it is acknowledged (persist-before-COMMIT).
    store: Option<Store>,
    /// NEWBLOCK admission (verification + quorum counting).
    admission: NewBlockQuorum,
    /// Blocks that reached quorum, waiting their turn.
    ready: BTreeMap<u64, Arc<BlockBundle>>,
    /// COMMIT messages for blocks not yet started.
    held_commits: BTreeMap<u64, Vec<Arc<CommitMsg>>>,
    /// In-flight blocks, by number; at most `depth` of them.
    runs: BTreeMap<u64, BlockRun>,
    /// Pending cross-block writers, retained across in-flight blocks.
    xindex: CrossBlockIndex,
    /// Writer position → positions in later in-flight blocks waiting on
    /// its write to be applied (or its abort to be known).
    xwaiters: HashMap<(u64, SeqNo), Vec<(u64, SeqNo)>>,
    /// The next block number to start (≥ the ledger's next number;
    /// in-flight runs live in between).
    next_to_start: u64,
    /// Pipeline capacity (`ClusterSpec::exec_pipeline_depth`, min 1).
    depth: usize,
    /// When the next block became ready while the pipeline was full.
    pending_stall: Option<Instant>,
    /// `occupancy[d]`: block starts with `d` blocks in flight.
    occupancy: Vec<u64>,
    /// Boundary stalls, and their total in whole microseconds per stall.
    stalls: u64,
    stall_us: u64,
    /// Ledger height recovered at start: blocks below it were not
    /// sealed by this run.
    start_height: usize,
    is_observer: bool,
    /// Peers that receive this node's COMMIT messages.
    commit_dests: Vec<NodeId>,
    /// Scratch buffer every COMMIT digest preimage is built in, signed
    /// or verified.
    digest_buf: Vec<u8>,
}

impl Executor {
    /// On every clock, up to `spec.exec_pool` executions run at once,
    /// each held until its cost has passed and surfaced by `tick`.
    pub(crate) fn new(shared: Arc<Shared>, endpoint: Endpoint<Msg>) -> Self {
        let running = InlineQueue::new(shared.spec.exec_pool);
        let mut state = MvccState::with_genesis(shared.genesis.iter().cloned());
        let is_observer = endpoint.id() == shared.spec.observer();
        let commit_dests = shared.spec.peer_ids();
        let admission = NewBlockQuorum::new(shared.spec.newblock_quorum());
        let depth = shared.spec.exec_pipeline_depth.max(1);
        // Crash recovery: an on-disk store rebuilds the sealed chain,
        // the state at the commit watermark, and hence where execution
        // resumes; an in-memory node starts from genesis.
        let mut ledger = Ledger::new();
        let store = shared.spec.open_store(endpoint.id()).map(|(store, recovered)| {
            ledger = recovered
                .ledger()
                .expect("recovered chain verified at store open");
            recovered.overlay_state(&mut state);
            store
        });
        let next_to_start = ledger.next_number().0;
        let start_height = ledger.height();
        Executor {
            shared,
            endpoint,
            running,
            state,
            ledger,
            store,
            admission,
            ready: BTreeMap::new(),
            held_commits: BTreeMap::new(),
            runs: BTreeMap::new(),
            xindex: CrossBlockIndex::new(),
            xwaiters: HashMap::new(),
            next_to_start,
            depth,
            pending_stall: None,
            occupancy: Vec::new(),
            stalls: 0,
            stall_us: 0,
            start_height,
            is_observer,
            commit_dests,
            digest_buf: Vec::new(),
        }
    }

    // ---- NEWBLOCK handling (§IV-C: wait for the specified number of
    // matching new-block messages) --------------------------------------

    fn on_new_block(
        &mut self,
        from: NodeId,
        bundle: Arc<BlockBundle>,
        orderer: NodeId,
        sig: &Signature,
    ) {
        // The announcement digest the orderers sign covers `G(B)` as well
        // as `H(B)` (`quorum.rs`), but a quorum of one trusts a single
        // orderer's graph. `start_block` indexes by the graph's
        // positions, so a graph of the wrong length is dropped here,
        // before admission stores anything (an honest copy can still
        // arrive).
        if bundle.graph.as_ref().map(|graph| graph.len()) != Some(bundle.block.len()) {
            return;
        }
        // Blocks below `next_to_start` are started or appended already;
        // duplicate quorum copies of them are dropped at admission.
        let next_needed = self.next_to_start;
        if let Some(validated) =
            self.admission
                .admit(&self.shared, from, bundle, orderer, sig, next_needed)
        {
            self.ready.insert(validated.block.number().0, validated);
            self.try_advance();
        }
    }

    /// Drives the pipeline: appends finished blocks in order and starts
    /// ready blocks while capacity lasts, until neither makes progress.
    fn try_advance(&mut self) {
        loop {
            let appended = self.drain_finished_blocks();
            let started = self.try_start_ready();
            if !appended && !started {
                break;
            }
        }
    }

    /// Starts ready blocks in block order while the pipeline has
    /// capacity. Returns `true` if any block started.
    fn try_start_ready(&mut self) -> bool {
        let mut started = false;
        loop {
            let next = self.next_to_start;
            if !self.ready.contains_key(&next) {
                return started;
            }
            if self.runs.len() >= self.depth {
                // Boundary stall: work is ready but the pipeline is full.
                if self.pending_stall.is_none() {
                    self.pending_stall = Some(self.shared.clock.now());
                }
                return started;
            }
            let bundle = self.ready.remove(&next).expect("checked");
            self.start_block(bundle);
            started = true;
        }
    }

    fn start_block(&mut self, bundle: Arc<BlockBundle>) {
        let graph = bundle
            .graph
            .as_ref()
            .expect("on_new_block admits only bundles with a graph");
        let number = bundle.block.number().0;
        debug_assert_eq!(number, self.next_to_start, "blocks start in order");
        self.next_to_start = number + 1;
        let n = bundle.block.len();
        let me = self.endpoint.id();
        let we = bundle
            .block
            .transactions()
            .iter()
            .map(|tx| self.shared.registry.is_agent(me, tx.app()))
            .collect();
        // Cross-block dependencies: pending writers of still-in-flight
        // earlier blocks that touch this block's keys. At depth 1 the
        // previous block fully committed before this one starts, so the
        // index is empty and behaviour is exactly the paper's barrier.
        let xdeps = self.xindex.admit_block(number, bundle.block.transactions());
        let mut external = vec![0u32; n];
        for (i, deps) in xdeps.iter().enumerate() {
            external[i] = u32::try_from(deps.len()).expect("dependency count fits u32");
            for &writer in deps {
                self.xwaiters
                    .entry(writer)
                    .or_default()
                    .push((number, SeqNo(i as u32)));
            }
        }
        // Lifecycle stages are observed once, at the observer node, like
        // the commit metrics: attach the recorder before the first
        // `take_ready` so construction-time roots are stamped too.
        let mut tracker = ReadyTracker::with_external(graph, &external);
        if self.is_observer && self.shared.trace.enabled() {
            let ids: Vec<TxId> = bundle.block.transactions().iter().map(|tx| tx.id()).collect();
            tracker.set_trace(self.shared.trace.clone(), ids);
        }
        let mut run = BlockRun {
            bundle,
            tracker,
            we,
            votes: HashMap::new(),
            executed: vec![false; n],
            committed: vec![false; n],
            committed_count: 0,
            xe_buffer: Vec::new(),
        };
        let initial = run.tracker.take_ready();
        self.runs.insert(number, run);
        let in_flight = self.runs.len();
        if self.occupancy.len() <= in_flight {
            self.occupancy.resize(in_flight + 1, 0);
        }
        self.occupancy[in_flight] += 1;
        if let Some(since) = self.pending_stall.take() {
            let stall = self.shared.clock.now().saturating_duration_since(since);
            self.stall_us += stall.as_micros() as u64;
            self.stalls += 1;
        }
        self.dispatch_ready(number, &initial);
        // Replay commit messages that arrived early (signature-verified
        // on receipt).
        if let Some(held) = self.held_commits.remove(&number) {
            for commit in held {
                self.apply_commit(&commit);
            }
        }
    }

    // ---- Algorithm 1: execution following the dependency graph --------

    /// Starts the ready positions this node is an agent for, all at one
    /// instant: each executes now against its snapshot and completes on
    /// the earliest-free lane, in `ready` order.
    fn dispatch_ready(&mut self, number: u64, ready: &[SeqNo]) {
        let Some(run) = self.runs.get(&number) else {
            return;
        };
        let block = run.bundle.block.number();
        let cost = self.shared.spec.costs.per_tx;
        let now = self.shared.clock.now();
        let traced = self.is_observer && self.shared.trace.enabled();
        for &seq in ready {
            if !run.we[seq.0 as usize] || run.executed[seq.0 as usize] {
                continue;
            }
            let tx = run.bundle.block.tx(seq).expect("seq valid");
            let Ok(contract) = self.shared.registry.contract(tx.app()) else {
                continue;
            };
            // Version-positioned snapshot of the declared read set: the
            // greatest version below this transaction's log position.
            // Every earlier writer of these keys has applied (in-block:
            // the dependency graph; cross-block: the conflict index), so
            // this is the serial-order prefix state for these keys even
            // while other blocks execute concurrently.
            let snapshot = SnapshotReader::at(&self.state, tx, Version::new(block, seq));
            let result = pool::execute(contract.as_ref(), tx, &snapshot);
            let completion = Completion { block, seq, result };
            let started = self.running.hold_in_turn(completion, now, cost);
            // Dispatched is when the execution's lane starts it: the
            // wait for a free lane is graph-ready→dispatched, and
            // dispatched→executed is its cost plus the wake-up's
            // lateness.
            if traced {
                self.shared
                    .trace
                    .record_at(tx.id(), parblock_trace::Stage::Dispatched, started);
            }
        }
    }

    /// A local execution finished. The result is final the moment it
    /// lands: its snapshot was the serial-prefix state by construction.
    fn on_completion(&mut self, completion: Completion) {
        let Completion { block, seq, result } = completion;
        let number = block.0;
        let idx = seq.0 as usize;
        let Some(run) = self.runs.get_mut(&number) else {
            return; // stale completion from a finished block
        };
        if run.executed[idx] {
            return;
        }
        run.executed[idx] = true;
        if self.is_observer {
            if let Some(tx) = run.bundle.block.tx(seq) {
                self.shared
                    .trace
                    .record(tx.id(), parblock_trace::Stage::Executed);
            }
        }
        // Apply own writes immediately as a versioned put (deterministic
        // across agents), so successors read them (Xe semantics of
        // Algorithm 1). Effects hit the WAL (group-commit buffered)
        // before the tick-end COMMIT multicast; they become durable at
        // the latest at the block's seal fsync — a crash before that
        // loses only unsealed results, which recovery re-executes
        // deterministically (DESIGN.md §9).
        if let ExecOutcome::Commit(writes) = &result {
            self.log_and_apply(Version::new(block, seq), writes);
        }

        // Vote our own result (Algorithm 3 treats it like any agent's).
        let me = self.endpoint.id();
        self.record_vote(number, seq, me, &result);
        // Algorithm 2: buffered until the end of this tick. Nothing
        // above ends the run: blocks drain in `try_advance`, below.
        if let Some(run) = self.runs.get_mut(&number) {
            run.xe_buffer.push((seq, result));
        }

        // Xe membership releases successors for local execution — both
        // in-block (dependency graph) and cross-block (conflict index).
        self.complete_position(number, seq);
        self.try_advance();
    }

    /// Marks a position complete in its run's tracker, dispatches newly
    /// ready in-block successors, and — on the *first* completion —
    /// retires the position from the cross-block index, releasing
    /// waiting transactions in later in-flight blocks.
    fn complete_position(&mut self, number: u64, seq: SeqNo) {
        let Some(run) = self.runs.get_mut(&number) else {
            return;
        };
        let first = !run.tracker.is_complete(seq);
        let newly = run.tracker.complete(seq);
        if !newly.is_empty() {
            self.dispatch_ready(number, &newly);
        }
        if first {
            self.release_cross_block(number, seq);
        }
    }

    /// Retires `(number, seq)` as a pending cross-block writer: its
    /// writes are applied (or it aborted), so later-block readers and
    /// writers waiting on it may proceed.
    fn release_cross_block(&mut self, number: u64, seq: SeqNo) {
        self.xindex.complete(number, seq);
        let Some(waiters) = self.xwaiters.remove(&(number, seq)) else {
            return;
        };
        // Group waiters by block: one batched release and one dispatch
        // handoff per waiting block, instead of one per waiter
        // (DESIGN.md §15). Waiter order within a block is preserved, so
        // deterministic-mode ticket order is unchanged.
        let mut by_block: BTreeMap<u64, Vec<SeqNo>> = BTreeMap::new();
        for (wait_block, wait_seq) in waiters {
            by_block.entry(wait_block).or_default().push(wait_seq);
        }
        for (wait_block, wait_seqs) in by_block {
            let Some(run) = self.runs.get_mut(&wait_block) else {
                continue;
            };
            let now_ready = run.tracker.release_external_batch(&wait_seqs);
            if !now_ready.is_empty() {
                self.dispatch_ready(wait_block, &now_ready);
            }
        }
    }

    // ---- Algorithm 2: multicasting the results ------------------------

    /// Multicasts each in-flight block's buffered results, among the
    /// block numbers in `blocks`, as one signed COMMIT per block.
    fn flush_commit_buffers(&mut self, blocks: impl RangeBounds<u64>) {
        let me = self.endpoint.id();
        let signer = self.shared.spec.node_signer(me);
        for (_, run) in self.runs.range_mut(blocks) {
            if run.xe_buffer.is_empty() {
                continue;
            }
            let results = std::mem::take(&mut run.xe_buffer);
            let block = run.bundle.block.number();
            let digest = commit_digest(block, &results, &mut self.digest_buf);
            let sig = self.shared.keys.sign(signer, &digest.0);
            let msg = Msg::Commit(Arc::new(CommitMsg {
                block,
                results,
                executor: me,
                sig,
            }));
            self.endpoint.multicast(self.commit_dests.iter(), &msg);
        }
    }

    // ---- Algorithm 3: updating the blockchain state -------------------

    fn on_commit_msg(&mut self, commit: &Arc<CommitMsg>) {
        let signer = self.shared.spec.node_signer(commit.executor);
        let digest = commit_digest(commit.block, &commit.results, &mut self.digest_buf);
        if !self.shared.keys.verify(signer, &digest.0, &commit.sig) {
            return;
        }
        let number = commit.block.0;
        if self.runs.contains_key(&number) {
            self.apply_commit(commit);
        } else if number >= self.next_to_start {
            // Early: the block has not started here yet.
            self.held_commits
                .entry(number)
                .or_default()
                .push(Arc::clone(commit));
        }
        // Late (block already appended): drop.
        self.try_advance();
    }

    /// Counts a verified COMMIT message's votes against its in-flight
    /// run.
    fn apply_commit(&mut self, commit: &Arc<CommitMsg>) {
        let number = commit.block.0;
        for (seq, result) in &commit.results {
            let counts = {
                let Some(run) = self.runs.get(&number) else {
                    return;
                };
                let Some(tx) = run.bundle.block.tx(*seq) else {
                    continue;
                };
                // Algorithm 3 checks the sender is an agent of x's app.
                // A write outside x's declared write set is no honest
                // agent's result either: `pool::execute` aborts it.
                self.shared.registry.is_agent(commit.executor, tx.app())
                    && match result {
                        ExecOutcome::Commit(writes) => undeclared_write(tx, writes).is_none(),
                        ExecOutcome::Abort(_) => true,
                    }
            };
            if counts {
                self.record_vote(number, *seq, commit.executor, result);
            }
        }
    }

    /// Records one agent's result for `seq`; commits the transaction once
    /// τ(A) matching results are present. A vote that completes τ(A)
    /// commits from the borrowed result; only a vote that must wait for
    /// more is stored.
    fn record_vote(&mut self, number: u64, seq: SeqNo, agent: NodeId, result: &ExecOutcome) {
        let Some(run) = self.runs.get_mut(&number) else {
            return;
        };
        let idx = seq.0 as usize;
        if run.committed[idx] {
            return;
        }
        let required = self.shared.spec.tau();
        let votes = run.votes.get(&seq).map_or(&[][..], Vec::as_slice);
        match quorum::completes(votes, agent, result, required, ExecOutcome::matches) {
            None => {} // one vote per agent
            Some(true) => {
                run.votes.remove(&seq);
                self.commit_tx(number, seq, result);
            }
            Some(false) => {
                let votes = run.votes.entry(seq).or_default();
                votes.push((agent, result.clone()));
            }
        }
    }

    fn commit_tx(&mut self, number: u64, seq: SeqNo, result: &ExecOutcome) {
        let idx = seq.0 as usize;
        let (block_number, tx_id, executed_locally) = {
            let Some(run) = self.runs.get_mut(&number) else {
                return;
            };
            if run.committed[idx] {
                return;
            }
            run.committed[idx] = true;
            run.committed_count += 1;
            let tx_id: TxId = run.bundle.block.tx(seq).expect("valid").id();
            (run.bundle.block.number(), tx_id, run.executed[idx])
        };
        match result {
            ExecOutcome::Commit(writes) => {
                // Agents applied their own writes at execution time; a
                // re-applied identical version is idempotent. Remote
                // results are logged on first apply — they too are part
                // of the recoverable datastore.
                if !executed_locally {
                    self.log_and_apply(Version::new(block_number, seq), writes);
                }
                if self.is_observer {
                    self.shared.metrics.record_commit(tx_id);
                }
            }
            ExecOutcome::Abort(_) => {
                if self.is_observer {
                    self.shared.metrics.record_abort(tx_id);
                }
            }
        }
        // Ce membership releases successors (Algorithm 1's Ce ∪ Xe).
        self.complete_position(number, seq);
    }

    /// Logs a committed write-set to the store, when there is one, and
    /// applies it to the state as a versioned put at `version`.
    fn log_and_apply(&mut self, version: Version, writes: &[(Key, Value)]) {
        if let Some(store) = &mut self.store {
            store
                .log_effects(version, writes)
                .expect("WAL append failed: node cannot guarantee persist-before-COMMIT");
        }
        self.state.apply(writes.iter().cloned(), version);
    }

    /// Appends fully committed blocks to the ledger **strictly in
    /// order** — the commit watermark only ever moves forward — pruning
    /// state versions below it. Returns `true` if any block appended.
    fn drain_finished_blocks(&mut self) -> bool {
        let mut appended = false;
        loop {
            let next = self.ledger.next_number().0;
            if !self.runs.get(&next).is_some_and(BlockRun::is_done) {
                return appended;
            }
            // Flush the results this tick buffered: a block can finish on
            // its own vote inside `on_completion`, before the tick-end
            // flush runs.
            self.flush_commit_buffers(next..=next);
            let run = self.runs.remove(&next).expect("checked");
            self.ledger
                .append_hashed(Arc::clone(&run.bundle.block), run.bundle.hash)
                .expect("blocks arrive in order with verified hash links");
            self.seal(&run.bundle);
            if self.is_observer {
                // The seal above is synchronous, so stamping after it
                // returns charges the fsync (on disk) to the
                // committed→durable gap — in memory the gap collapses
                // to the drain-loop overhead.
                self.shared.trace.record_durable_block(
                    run.bundle.block.transactions().iter().map(|tx| tx.id()),
                );
            }
            self.held_commits.remove(&next);
            appended = true;
        }
    }

    /// Seals the block just appended, before it is acknowledged anywhere
    /// (metrics, observers). On disk the store's fsync barrier covers the
    /// block body and every logged effect at or below it; the observer
    /// times that barrier into the trace's seal histogram. Then state
    /// versions below the new watermark are pruned and, when due, the
    /// pruned state is checkpointed (which truncates the WAL), so version
    /// GC and log truncation advance together.
    fn seal(&mut self, bundle: &BlockBundle) {
        let block = &bundle.block;
        if let Some(store) = &mut self.store {
            let traced = self.is_observer && self.shared.trace.enabled();
            let started = traced.then(|| self.shared.clock.now());
            store
                .seal_block(block, bundle.graph.as_ref(), self.ledger.head_hash())
                .expect("block seal failed: node cannot guarantee durability");
            if let Some(started) = started {
                self.shared.trace.record_seal(started);
            }
        }
        prune_to_sealed(block, &mut self.state);
        if let Some(store) = self.store.as_mut().filter(|store| store.checkpoint_due()) {
            let horizon = Version::new(block.number(), SeqNo(u32::MAX));
            store
                .write_checkpoint(self.state.snapshot_at(horizon))
                .expect("checkpoint publish failed");
        }
    }
}

/// Version tag leading every COMMIT digest preimage. Bump on any layout
/// change so preimages from different layouts can never collide.
const COMMIT_DIGEST_VERSION: u8 = 1;

/// Digest of a COMMIT message's contents (signed by the executor). The
/// preimage is built in `bytes`, cleared first, so an executor reuses one
/// buffer for every COMMIT it signs or verifies.
///
/// Values are serialized with [`parblock_types::Value`]'s canonical
/// wire encoding. An earlier revision rendered them through
/// `format!("{value:?}")`, which allocated a `String` per write on the
/// commit hot path and — worse — made the signature preimage depend on
/// `Debug` output, which Rust does not guarantee stable across releases
/// (a silent rolling-upgrade signature break). Bringing it back would
/// push `tests/alloc_budget.rs` over its allocation budget.
fn commit_digest(
    block: BlockNumber,
    results: &[(SeqNo, ExecOutcome)],
    bytes: &mut Vec<u8>,
) -> Hash32 {
    use parblock_types::wire::{encode_writes, Wire};
    bytes.clear();
    COMMIT_DIGEST_VERSION.encode(bytes);
    block.0.encode(bytes);
    for (seq, result) in results {
        u64::from(seq.0).encode(bytes);
        match result {
            ExecOutcome::Commit(writes) => {
                0u8.encode(bytes);
                encode_writes(writes, bytes);
            }
            ExecOutcome::Abort(_) => 1u8.encode(bytes),
        }
    }
    parblock_crypto::sha256(bytes)
}

impl Peer for Executor {
    fn chain(&self) -> (&Ledger, &MvccState) {
        (&self.ledger, &self.state)
    }

    fn summary(&self) -> PeerSummary {
        let capture_state = self.shared.spec.capture_state;
        PeerSummary {
            durability: self.store.as_ref().map(Store::stats).unwrap_or_default(),
            pipeline_occupancy: self.occupancy.clone(),
            boundary_stall: Duration::from_micros(self.stall_us),
            boundary_stalls: self.stalls,
            ..PeerSummary::sealed(&self.ledger, &self.state, self.start_height, capture_state)
        }
    }
}

impl Node for Executor {
    fn on_msg(&mut self, from: NodeId, msg: Msg) {
        match msg {
            Msg::NewBlock {
                bundle,
                orderer,
                sig,
            } => self.on_new_block(from, bundle, orderer, &sig),
            Msg::Commit(commit) => self.on_commit_msg(&commit),
            _ => {}
        }
    }

    /// Surfaces every execution due by `now`. Then Algorithm 2: each
    /// in-flight block multicasts the results this tick finished as one
    /// COMMIT.
    fn tick(&mut self, now: Instant) -> usize {
        let done = self.running.take_done(now);
        let handled = done.len();
        for completion in done {
            self.on_completion(completion);
        }
        if handled > 0 {
            self.flush_commit_buffers(..);
        }
        handled
    }

    /// When the next running execution is due.
    fn next_deadline(&self, now: Instant) -> Option<Instant> {
        self.running.next_due().filter(|&due| due > now)
    }

    fn as_peer(&self) -> Option<&dyn Peer> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;
    use parblock_contracts::{AccountingContract, AccountingOp};
    use parblock_depgraph::DependencyGraph;
    use parblock_net::SimNetwork;
    use parblock_types::wire::Wire;
    use parblock_types::{AppId, Block, ClientId, Clock, Key, Transaction, Value};

    use crate::cluster::{ClusterSpec, SystemKind};
    use crate::shared::testing;

    fn sample_results() -> Vec<(SeqNo, ExecOutcome)> {
        vec![
            (
                SeqNo(0),
                ExecOutcome::Commit(vec![
                    (Key(1), Value::Int(5)),
                    (Key(2), Value::Text("paid".into())),
                ]),
            ),
            (SeqNo(1), ExecOutcome::Abort("missing state".into())),
            (
                SeqNo(3),
                ExecOutcome::Commit(vec![(Key(7), Value::Bytes(vec![0xde, 0xad]))]),
            ),
        ]
    }

    /// [`super::commit_digest`] into a fresh preimage buffer.
    fn commit_digest(block: BlockNumber, results: &[(SeqNo, ExecOutcome)]) -> Hash32 {
        super::commit_digest(block, results, &mut Vec::new())
    }

    /// An executor at `node`, stepped by hand under a simulated clock.
    fn stepped_executor(
        spec: ClusterSpec,
        node: NodeId,
    ) -> (Arc<Shared>, Clock, Executor, SimNetwork<Msg>) {
        let (shared, clock, net) = testing::stepped(spec);
        let executor = Executor::new(Arc::clone(&shared), net.endpoint(node));
        (shared, clock, executor, net)
    }

    /// The entry orderer's signed NEWBLOCK for `block` with `graph`,
    /// then every execution it releases (zero cost: each is due the
    /// instant its predecessor released it).
    fn announce(
        shared: &Shared,
        clock: &Clock,
        executor: &mut Executor,
        block: &Arc<Block>,
        graph: Option<DependencyGraph>,
    ) {
        let (orderer, msg) = testing::new_block(shared, block, graph);
        executor.on_msg(orderer, msg);
        while executor.tick(clock.now()) > 0 {}
    }

    /// τ(A) = 1, zero execution cost.
    fn single_vote_spec() -> ClusterSpec {
        let mut spec = ClusterSpec::new(SystemKind::Oxii);
        spec.costs = parblock_types::ExecutionCosts::zero();
        spec.commit_quorum = Some(1);
        spec
    }

    fn transfers(count: u64) -> Vec<Transaction> {
        let contract = AccountingContract::new(AppId(0));
        let op = AccountingOp::Transfer {
            from: Key(1),
            to: Key(2),
            amount: 1,
        };
        (0..count)
            .map(|ts| contract.transaction(ClientId(1), ts, &op))
            .collect()
    }

    /// Under a quorum of one a known orderer's signed graph is trusted.
    /// One announcing block 1 without a graph, or with one of the wrong
    /// size, must neither panic the executor nor spend the block number:
    /// the honest announcement that follows still commits.
    #[test]
    fn a_malformed_dependency_graph_is_ignored_and_the_honest_copy_commits() {
        let spec = single_vote_spec();
        let observer = spec.observer();
        let (shared, clock, mut executor, _net) = stepped_executor(spec, observer);
        let block = Arc::new(Block::new(
            BlockNumber(1),
            Ledger::genesis_hash(),
            transfers(2),
        ));
        testing::submit_all(&shared, &block);
        let sized = |count: u64| {
            let other = Block::new(BlockNumber(1), Ledger::genesis_hash(), transfers(count));
            DependencyGraph::build(&other)
        };
        for malformed in [None, Some(sized(1)), Some(sized(3))] {
            announce(&shared, &clock, &mut executor, &block, malformed);
            assert_eq!(executor.ledger.next_number(), BlockNumber(1));
        }
        announce(&shared, &clock, &mut executor, &block, Some(sized(2)));
        assert_eq!(
            executor.ledger.next_number(),
            BlockNumber(2),
            "honest copy commits"
        );
        assert_eq!(shared.metrics.processed(), 2);
    }

    /// Algorithm 2 multicasts at the end of every tick that finished an
    /// execution. An agent running a same-application chain must not hold
    /// the head's result until its whole share is done: the COMMIT for
    /// position 0 is on its way to the other peers before position 1
    /// has executed.
    #[test]
    fn a_chain_head_is_multicast_before_its_successor_executes() {
        let mut spec = single_vote_spec();
        let cost = Duration::from_micros(500);
        spec.costs = parblock_types::ExecutionCosts::per_tx(cost);
        let agent = spec.agents_of(AppId(0))[0];
        let other = spec.peer_ids().into_iter().find(|&id| id != agent);
        let (shared, clock, mut executor, net) = stepped_executor(spec, agent);
        let peer = net.endpoint(other.expect("a second peer"));
        let block = Arc::new(Block::new(
            BlockNumber(1),
            Ledger::genesis_hash(),
            transfers(2),
        ));
        let graph = DependencyGraph::build(&block);
        assert!(graph.has_edge(SeqNo(0), SeqNo(1)), "a chain");
        announce(&shared, &clock, &mut executor, &block, Some(graph));

        // The positions every COMMIT delivered to `peer` so far carries.
        let multicast = || {
            net.deliver_due(clock.now() + Duration::from_secs(1));
            let mut seqs = Vec::new();
            while let Some(envelope) = peer.try_recv() {
                if let Msg::Commit(commit) = envelope.msg {
                    seqs.extend(commit.results.iter().map(|(seq, _)| *seq));
                }
            }
            seqs
        };
        assert!(multicast().is_empty(), "nothing has executed yet");
        clock.advance(cost);
        assert_eq!(executor.tick(clock.now()), 1);
        assert_eq!(multicast(), [SeqNo(0)], "the head waits for its successor");
        clock.advance(cost);
        assert_eq!(executor.tick(clock.now()), 1);
        assert_eq!(multicast(), [SeqNo(1)]);
        assert_eq!(executor.ledger.next_number(), BlockNumber(2));
    }

    /// With τ(A) = 1 one agent's COMMIT decides a transaction. A result
    /// that writes outside the declared write set must not count, even
    /// signed by a genuine agent: honest executors abort such a write,
    /// and counting it would put a write no dependency edge orders into
    /// every replica's state. The honest vote that follows commits.
    #[test]
    fn a_commit_vote_with_an_undeclared_write_is_not_counted() {
        let mut spec = single_vote_spec();
        spec.executors_per_app = 2;
        let [liar, honest] = spec.agents_of(AppId(0))[..] else {
            panic!("two agents of app 0");
        };
        // An agent of another application: it only counts app-0 votes.
        let node = spec.agents_of(AppId(1))[0];
        let (shared, clock, mut executor, _net) = stepped_executor(spec, node);
        let block = Arc::new(Block::new(
            BlockNumber(1),
            Ledger::genesis_hash(),
            transfers(1),
        ));
        let graph = DependencyGraph::build(&block);
        announce(&shared, &clock, &mut executor, &block, Some(graph));

        let vote = |executor: &mut Executor, agent: NodeId, writes: Vec<(Key, Value)>| {
            let results = vec![(SeqNo(0), ExecOutcome::Commit(writes))];
            let digest = commit_digest(BlockNumber(1), &results);
            let sig = shared.keys.sign(shared.spec.node_signer(agent), &digest.0);
            let commit = CommitMsg {
                block: BlockNumber(1),
                results,
                executor: agent,
                sig,
            };
            executor.on_msg(agent, Msg::Commit(Arc::new(commit)));
        };
        let declared = vec![(Key(1), Value::Int(0)), (Key(2), Value::Int(1))];
        let mut overreach = declared.clone();
        overreach.push((Key(u64::MAX), Value::Int(1)));
        vote(&mut executor, liar, overreach);
        assert_eq!(
            executor.ledger.next_number(),
            BlockNumber(1),
            "the vote was counted"
        );
        vote(&mut executor, honest, declared);
        assert_eq!(
            executor.ledger.next_number(),
            BlockNumber(2),
            "the honest vote commits"
        );
        let everything = Version::new(BlockNumber(2), SeqNo(0));
        assert_eq!(executor.state.get_at(Key(u64::MAX), everything), None);
        assert_eq!(
            executor.state.get_at(Key(2), everything),
            Some(Value::Int(1))
        );
    }

    /// Pins the COMMIT digest preimage layout. If this golden value
    /// moves, `COMMIT_DIGEST_VERSION` must be bumped in the same change:
    /// executors signing the old layout and verifiers hashing the new
    /// one would otherwise reject each other's COMMITs mid-upgrade.
    #[test]
    fn commit_digest_is_pinned() {
        let digest = commit_digest(BlockNumber(9), &sample_results());
        assert_eq!(
            digest.to_hex(),
            "2d9ecd938f82c5091551467b21dc528ec6f92fa65629f7e25397b7658dc4f10d"
        );
    }

    /// The digest must use `Value`'s canonical wire encoding, not its
    /// `Debug` rendering: Debug output is not a stable wire format (and
    /// allocated a `String` per write on the commit hot path).
    #[test]
    fn commit_digest_does_not_depend_on_debug_rendering() {
        let results = sample_results();
        let legacy = {
            let mut bytes = Vec::new();
            BlockNumber(9).0.encode(&mut bytes);
            for (seq, result) in &results {
                u64::from(seq.0).encode(&mut bytes);
                match result {
                    ExecOutcome::Commit(writes) => {
                        0u8.encode(&mut bytes);
                        (writes.len() as u64).encode(&mut bytes);
                        for (key, value) in writes {
                            key.0.encode(&mut bytes);
                            format!("{value:?}").as_str().encode(&mut bytes);
                        }
                    }
                    ExecOutcome::Abort(_) => 1u8.encode(&mut bytes),
                }
            }
            parblock_crypto::sha256(&bytes)
        };
        let canonical = commit_digest(BlockNumber(9), &results);
        assert_ne!(canonical, legacy, "digest still matches the Debug-based layout");
    }

    /// Distinct value variants with look-alike content must hash apart:
    /// the tagged encoding separates `Text("5")` from `Int(5)` and
    /// `Bytes` from `Text` bytes.
    #[test]
    fn commit_digest_separates_value_variants() {
        let mk = |value: Value| {
            commit_digest(
                BlockNumber(1),
                &[(SeqNo(0), ExecOutcome::Commit(vec![(Key(1), value)]))],
            )
        };
        let digests = [
            mk(Value::Int(5)),
            mk(Value::Text("5".into())),
            mk(Value::Bytes(b"5".to_vec())),
            mk(Value::Unit),
        ];
        for (i, a) in digests.iter().enumerate() {
            for b in &digests[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    /// Abort reasons are intentionally outside the digest (agents may
    /// produce differently worded reasons for the same deterministic
    /// abort; τ(A) matching only needs the outcome).
    #[test]
    fn commit_digest_ignores_abort_reason_wording() {
        let a = commit_digest(
            BlockNumber(2),
            &[(SeqNo(0), ExecOutcome::Abort("missing state".into()))],
        );
        let b = commit_digest(
            BlockNumber(2),
            &[(SeqNo(0), ExecOutcome::Abort("account absent".into()))],
        );
        assert_eq!(a, b);
    }
}
