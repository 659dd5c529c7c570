//! Allocation and live-heap ratchet for the OXII hot path.
//!
//! `run_sim` is single-threaded and a pure function of its config, so a
//! counting allocator sees exactly the same sequence of requests on every
//! run: the two figures below repeat to the last digit and can be held to
//! a budget the way the sim-leg knee is (`ci/BENCH_saturate_baseline.json`).
//! One thing can break that: a `HashMap` under the per-process
//! `RandomState` that churns inserts and removals grows its table at
//! points that depend on where its entries hash. Of the maps a run
//! holds, only the executor's `CrossBlockIndex` is such a map, so it
//! hashes with fixed keys. `MvccState`'s sealed map never removes a key,
//! so it grows at the same counts in every process, and its open blocks
//! are `BTreeMap`s.
//!
//! * **allocations per transaction**: `alloc` + `realloc` calls made
//!   while the run executes, over the transactions submitted;
//! * **peak live bytes per transaction**: the high-water mark of
//!   requested bytes outstanding above the level at run start, over the
//!   same count. Everything a run keeps per transaction shows here:
//!   ledgers, the orderers' logs, metrics samples;
//! * **marginal peak live bytes per transaction**: `(peak(4N) − peak(N))
//!   / 3N` at N = 4 000, what each extra transaction adds to the peak,
//!   printed beside what one copy of the chain adds (the same stream
//!   appended to a bare `Ledger`), which is held to at most 100 bytes.
//!
//! The run: `ClusterSpec::new(Oxii)` (3 orderers, 3 agents, 1 passive
//! peer, depth 2), 100-tx blocks, 500 µs per transaction, seed 42, 4 000
//! transactions at 4 000 tps, at contention 0 and 0.8.
//!
//! Figures at the parent of the change that made transactions and blocks
//! immutable shared data (`BTreeSet` read/write sets, a deep transaction
//! clone at every dispatch and a deep block clone at every ledger
//! append), identical in debug and release:
//!
//! | contention | allocations / tx | peak live bytes / tx |
//! |-----------:|-----------------:|---------------------:|
//! | 0.0        | 158.32           | 5 307                |
//! | 0.8        | 177.57           | 5 555                |
//!
//! What the changes since have read, in release:
//!
//! | change | contention | allocations / tx | peak live bytes / tx |
//! |--------|-----------:|-----------------:|---------------------:|
//! | immutable shared transactions and blocks | 0.0 | 110.50 | 3 722 |
//! |                                          | 0.8 | 123.28 | 3 973 |
//! | streaming ordering path                  | 0.0 | 102.25 | 3 510 |
//! |                                          | 0.8 | 115.03 | 3 761 |
//! | one COMMIT per tick                      | 0.0 | 101.18 | 3 511 |
//! |                                          | 0.8 | 138.49 | 3 759 |
//! | canonical state-digest preimage          | 0.0 |  81.18 | 3 511 |
//! |                                          | 0.8 | 118.49 | 3 759 |
//! | HMAC pads on the stack                   | 0.0 |  76.79 | 3 511 |
//! |                                          | 0.8 | 107.78 | 3 758 |
//! | HMAC keys hashed once                    | 0.0 |  67.82 | 3 513 |
//! |                                          | 0.8 |  82.07 | 3 761 |
//! | no `ExecResult` clones on completion     | 0.0 |  55.58 | 3 513 |
//! |                                          | 0.8 |  69.83 | 3 761 |
//! | partial batch ordered when idle          | 0.0 |  63.65 | 3 579 |
//! |                                          | 0.8 |  77.91 | 3 829 |
//! | the simulator's client streams its input | 0.0 |  63.65 | 3 341 |
//! |                                          | 0.8 |  77.91 | 3 591 |
//! | `head_hash` builds no genesis default    | 0.0 |  63.38 | 3 341 |
//! |                                          | 0.8 |  77.64 | 3 591 |
//! | exactly-once by timestamp ranges         | 0.0 |  62.01 | 3 239 |
//! |                                          | 0.8 |  76.27 | 3 490 |
//! | exact-size transaction bodies            | 0.0 |  56.01 | 3 207 |
//! |                                          | 0.8 |  70.27 | 3 458 |
//! | one inline version per key               | 0.0 |  53.88 | 1 665 |
//! |                                          | 0.8 |  64.98 | 1 678 |
//! | one map per open block                   | 0.0 |  46.99 | 1 648 |
//! |                                          | 0.8 |  61.17 | 1 661 |
//! | sequencer log compacted below the floor  | 0.0 |  46.68 | 1 504 |
//! |                                          | 0.8 |  60.86 | 1 516 |
//! | one packed table per block               | 0.0 |  44.56 | 1 446 |
//! |                                          | 0.8 |  58.73 | 1 459 |
//! | encodings sized once                     | 0.0 |  39.92 | 1 446 |
//! |                                          | 0.8 |  54.10 | 1 458 |
//! | orderers send their protocol's actions   | 0.0 |  36.13 | 1 446 |
//! |                                          | 0.8 |  50.23 | 1 458 |
//! | one shared graph table per block         | 0.0 |  35.87 | 1 445 |
//! |                                          | 0.8 |  38.70 | 1 459 |
//! | one genesis per cluster                  | 0.0 |  35.88 |   680 |
//! |                                          | 0.8 |  38.71 |   578 |
//!
//! (The first row was recorded here as 110.35 / 3 725; the tree at that
//! change reads 110.50 / 3 722.) The streaming ordering path encodes a
//! request once into the open batch's buffer, which the entry orderer
//! keeps from batch to batch, and every orderer's log, multicast copy
//! and delivery of an ordered payload is one allocation.
//!
//! One COMMIT per tick raised the contention-0.8 count, on purpose. An
//! executor now multicasts the results each `tick` finished instead of
//! holding an in-application chain's results until its share of the
//! block is done. Along a chain a tick finishes one execution, so each
//! result travels in a COMMIT of its own: a message, a results vector and
//! a delivery per peer, where the held rule sent one for the whole chain.
//! On its own the new schedule read 102.25 / 151.96 allocations; hashing
//! every COMMIT preimage in one reused buffer took that to 101.18 /
//! 138.49. With `CrossBlockIndex` on per-process hash keys, the counts at
//! 0.8 differed between two runs of the same seed.
//!
//! The canonical state-digest preimage took exactly 20 allocations per
//! transaction off both counts, none on the hot path: a run ends by
//! digesting every live replica's state (about 10 000 keys each here),
//! and the old preimage formatted each value into a fresh `String`. The
//! same tree hashing the old preimage reads 101.18 / 138.49 exactly, so
//! the shared snapshot rule moved nothing in the executor.
//!
//! `hmac_sha256` built its inner and outer pads as two `Vec<u8>` per
//! call; they are `[u8; 64]` now. The drop is exactly two allocations
//! per HMAC call: a run makes 8 784 calls at contention 0 and 21 424 at
//! 0.8 (signing and verifying requests and COMMITs), and the counts fell
//! by 17 568 (324 711 → 307 143) and 42 848 (473 948 → 431 100). The
//! network's endpoints delivering their own messages, which landed with
//! it, moved no allocation: the simulator uses manual delivery, whose
//! path is unchanged (peak bytes fell 0.03 per transaction, a smaller
//! shard).
//!
//! The key registry now holds each key as the SHA-256 states after its
//! two HMAC pads, and the hasher's buffer is a `[u8; 64]`: a signature
//! or a check no longer builds a tagged copy of the message, fills a
//! heap buffer per hasher or grows it for the padding. That took 8.97
//! allocations per transaction off at contention 0 and 25.71 at 0.8,
//! where COMMITs are signed and checked most. Peak bytes rose 1.5 per
//! transaction: a registered key is two hasher states, not 32 bytes.
//!
//! An executor's own result now moves into its COMMIT buffer, and a
//! vote that completes τ(A) commits from a borrowed result; only a vote
//! that must wait for more is stored. The drop is 12.24 allocations per
//! transaction at both contentions: the clone into the COMMIT buffer,
//! the clone of the matched vote, and the vote list a position kept.
//!
//! Ordering a partial batch as soon as the entry orderer has none in
//! flight raised both counts by about 8 and peak bytes by 66–68 per
//! transaction, on purpose. At 4 000 tps the old rule ordered a batch
//! every 1 ms; the new one orders one per consensus round trip, so the
//! same transactions travel in more, smaller batches: more appends,
//! acknowledgements and log entries, each with its own header. The new
//! peak-bytes figures are still inside their budgets, which stay where
//! the stack-pads row set them.
//!
//! `run_sim` used to materialise its whole input before the first
//! submission: every transaction of the run and every arrival offset.
//! It now submits through the threaded runner's client, which generates
//! one workload window at a time and moves each transaction into its
//! request. That took 238.24 peak bytes per transaction off at both
//! contentions (3 578.77 → 3 340.53, 3 829.46 → 3 591.21) and moved no
//! allocation count: a transaction clone was a reference count, and the
//! window's vectors replace the input's. The peak-bytes budgets were
//! lowered with it.
//!
//! `Ledger::head_hash` evaluated its empty-ledger default eagerly, so
//! every call built, encoded and hashed a genesis block: 3 allocations,
//! on every block a peer appends and again at each OXII seal. Taking the
//! default lazily removed 0.27 allocations per transaction at both
//! contentions; peak bytes moved by a fraction of a byte.
//!
//! Each orderer kept every delivered transaction id in a `seen:
//! HashSet<TxId>` for the whole run. It keeps, per client, the delivered
//! timestamps as disjoint ranges instead: one range per client here,
//! since the generator numbers each client's transactions 1, 2, 3, …
//! and shuffles only within a window. In the same change an orderer's
//! consensus broadcast and a peer's NEWBLOCK admission stopped building
//! the list of orderer ids each time. Together: 1.37 allocations and
//! about 101 peak bytes fewer per transaction at both contentions, and
//! the marginal peak bytes per extra transaction fell from 561.85 /
//! 577.72 to 457.40 / 473.27. The budgets were lowered with the next
//! row.
//!
//! A transaction body held its read and write sets as two `Vec<Key>`
//! and its payload as a `Vec<u8>`, four allocations with the `Arc`. It
//! holds both key sets in one exact-size `Box<[Key]>` and the payload
//! in a `Box<[u8]>`, and `AccountingOp::encode` sizes the payload once
//! where it grew it twice. That took exactly 6.00 allocations per
//! transaction off at both contentions: one key vector in the
//! generator's body and in each of the three orderers' decoded bodies,
//! and the payload's two regrowths. The body shrank by 32 bytes, which
//! is what peak bytes and marginal bytes both fell by per transaction
//! (to 425.40 / 441.27 marginal); one chain in a bare `Ledger` fell from
//! 185.44 to 146.44 bytes per transaction, its generator-built payloads
//! 7 bytes shorter as well. The allocation and peak-bytes budgets sit
//! 5 % above this row; the stale check would have refused the old ones.
//!
//! The marginal figure is the first that does not spread what a run
//! holds whatever its length over its transactions.
//!
//! `MvccState` kept a version vector for every key, and each peer's
//! genesis put a 192-byte buffer (room for four versions) behind each of
//! its 9 970 accounts: 7.6 MB over the four peers, about 1 900 bytes per
//! transaction of this run. The newest version of a key now sits inline
//! in the state's table, and only a key with versions below its newest
//! (written since the last seal) keeps a history vector.
//! `genesis_state_stays_within_budget` holds the state alone: 93.67 peak
//! live bytes per genesis key, where the vectors made it 246. Peak live
//! bytes per transaction fell from 3 207.45 / 3 458.14 to 1 703.37 /
//! 1 715.98 with that alone, and allocations from 56.01 / 70.27 to
//! 54.04 / 65.14: genesis builds no vector per key (about 10 allocations
//! per transaction over the four peers), but a key written after a seal
//! now allocates a history vector where its old vector had room. The
//! history map hashed with fixed keys, like `CrossBlockIndex`: it
//! churned, and the counts must repeat. In the same change the block cutter
//! hands over each block's vector at its exact size (a 100-transaction
//! block held 128 slots), and `SimOutcome::observer_chain` shares the
//! observer ledger's `Arc<Block>`s where it copied every block's
//! vector. They took 8.96 and 32.56 bytes off the marginal figure at
//! contention 0 (425.40 → 383.88), 0.16 allocations and 38.45 peak bytes
//! per transaction at both contentions; the row reads all three. The
//! marginal figure no longer differs between the two contentions: the
//! 15.87 bytes that did were most likely hot keys' history vectors,
//! which grew past four versions and kept the capacity.
//!
//! `MvccState` now keeps each key's newest sealed version in one map and
//! every version written above the sealed watermark in one `BTreeMap`
//! per open block, which a seal folds into the sealed map. The history
//! vectors are gone: a key first written after a seal allocated one
//! (192 bytes) and the next seal freed it, where a block's writes now
//! share its map's nodes. Allocations per transaction fell from 53.88 /
//! 64.98 to 46.99 / 61.17 in release (47.40 / 61.57 in debug), peak live
//! bytes from 1 664.92 / 1 677.53 to 1 648.38 / 1 660.99 in both
//! profiles; the marginal and genesis figures did not move. The
//! allocation and peak-bytes budgets were lowered with this row.
//!
//! The sequencer's retained log grew with the run: 210.86 bytes per
//! transaction, about 119 of batch payloads (one or two transactions
//! each, 128 or 232 bytes with the `Arc` header) and about 92 of the
//! three replicas' `BTreeMap<u64, Payload>` nodes. Each replica now drops
//! it below the lowest offset any replica's restart would replay from,
//! which every `Commit` carries, so a replica keeps the one or two
//! payloads still being ordered. The marginal figure fell from 383.88 to
//! 173.02 at both contentions, exactly the 210.86; peak live bytes per
//! transaction from 1 648.38 / 1 660.99 to 1 503.67 / 1 516.28, and
//! allocations by 0.31 at both, which this file does not attribute
//! further. All budgets were lowered with this row.
//!
//! A transaction was an `Arc` body of three allocations (the body, its
//! key slice, its payload), decoded that way by every orderer, and a
//! block a vector of 32-byte slots pointing at bodies. Each block now
//! owns its transactions as one packed table: a 32-byte row per
//! transaction, one key slice with a write set equal to its read set
//! stored once, one payload slice; a `Transaction` is a 16-byte handle
//! to its row. A decoded batch is one table too, five allocations (four
//! for a batch of one) where it was three per transaction and the
//! vector; `Transaction::new` keeps the caller's key slice and payload
//! and its one row inline, three allocations as before; `Block::new`
//! packs its rows in four. Allocations per transaction fell from 46.68
//! / 60.86 to 44.56 / 58.73 in release (47.08 / 61.26 to 44.96 / 59.13
//! in debug), peak live bytes from 1 503.67 / 1 516.28 to 1 446.31 /
//! 1 458.92 in both profiles, the marginal figure from 173.02 to 117.82
//! at both contentions and one chain's from 146.44 to 91.24: the
//! 55.20 bytes the chain shed are exactly what the marginal figure
//! shed. All budgets were lowered with this row, and one chain is held
//! to at most 100 bytes per transaction.
//!
//! `Wire::wire_bytes` grew its buffer from empty: a transaction's
//! ~100-byte encoding took five allocations (8, 16, 32, 64 and 128 bytes)
//! and a 100-transaction block's ~10 KB about a dozen, and `hash_wire`
//! encodes every block at each orderer and peer. A block and a
//! transaction now give their exact length through
//! `Wire::wire_len_hint`, so each encoding is one allocation that never
//! regrows. Allocations per transaction fell from 44.56 / 58.73 to
//! 39.92 / 54.10 in release (44.96 / 59.13 to 39.96 / 54.14 in debug,
//! where `Ledger::append_hashed`'s re-hash now costs one allocation per
//! block where it cost about thirteen). Of the 4.64 at contention 0, 0.64
//! are the block hashes and 4.00 the client's encoding of each
//! transaction it signs (the tree with only the transaction's hint
//! removed reads 43.92). Peak live bytes fell 0.47 per transaction; the
//! marginal and genesis figures did not move. The allocation budgets
//! were lowered with this row.
//!
//! An orderer hosted its protocol behind a wrapper that copied every
//! action list the protocol returned into a new vector, with each
//! message wrapped; it now sends the protocol's own list, wrapping each
//! message as it sends it. In the same change a `ReadyTracker` stopped
//! queueing the positions a completion or an external release readies,
//! which it also returned and which nothing took from the queue.
//! Allocations per transaction fell from 39.92 / 54.10 to 36.13 / 50.23
//! in release (39.96 / 54.14 to 36.17 / 50.27 in debug). The tree with
//! the old tracker reads 36.17 / 50.35 in release: 3.75 per transaction
//! at both contentions are the action lists, 0.04 / 0.12 the queue. Peak
//! live bytes fell 0.09 per transaction; the marginal and genesis
//! figures did not move. The allocation budgets were lowered with this
//! row.
//!
//! A block's dependency graph was a predecessor and a successor vector
//! per position with an edge, an application per position and a mode
//! tag, and every executor deep-copied it for each block it started,
//! though the NEWBLOCK bundle held it for the whole run. It is one
//! `Arc<[u32]>` table now (successor offsets, then targets): one
//! allocation whatever its edge count, built once by each orderer's
//! cutter and shared by the bundle, every executor's `ReadyTracker`
//! and the block store, and each orderer's builder keeps its edge
//! vector from block to block. In the same change the orderers began
//! signing a digest that covers the graph's encoding, which costs one
//! buffer per hash: 0.07 allocations per transaction at both
//! contentions (the tree hashing no graph reads 35.80 / 38.63).
//! Allocations per transaction fell from 36.13 / 50.23 to 35.87 / 38.70
//! in release (36.17 / 50.27 to 35.91 / 38.74 in debug); ROADMAP item
//! 28's probe, which only shared the old graph, read 43.82 at contention
//! 0.8. Contention 0.8 now sits 7.9 % above contention 0, where it sat
//! 39 % above, so that item's target (within 10 %) is met: the graph was
//! almost all of what conflict chains added. Peak live bytes moved
//! by under one per transaction (1 445.75 / 1 458.36 to 1 445.03 /
//! 1 459.17; the builders' kept edge vectors are the rise at 0.8); the
//! marginal and genesis figures did not move. The allocation budgets
//! were lowered with this row.
//!
//! Every peer built its own genesis state: the 9 970 accounts collected
//! into a `HashMap` sized for them, 0.89 MiB per peer, beside the
//! cluster context's `Vec` of the same entries, 0.63 MiB with its
//! doubling slack: about 4.2 MiB, over 1 000 bytes per transaction of
//! this run. The cluster now builds one immutable table, a sorted
//! `Arc<[(Key, Value)]>` of 40 bytes per key, and each replica's
//! `MvccState` reads it for every key it has not written, so a replica
//! holds only what it wrote. Peak live bytes per transaction fell from
//! 1 445.03 / 1 459.17 to 680.49 / 577.90 in both profiles; contention 0
//! now sits above 0.8 because the run writes 6 400 distinct keys there
//! against 1 780, and a replica pays for each key it writes. Allocations
//! rose 0.01 per transaction at both contentions (35.87 / 38.70 to
//! 35.88 / 38.71 in release): a replica's sealed map starts empty and
//! grows by doubling where it was sized once for the genesis. The
//! marginal figure did not move. `genesis_state_stays_within_budget`
//! now holds the table (40.00 bytes per key, where a peer's state was
//! 93.67) and a replica over it (no allocation). The peak-bytes budgets
//! were lowered with this row; the allocation budgets hold.
//!
//! What each extra transaction adds now, at either contention: one copy
//! of the chain, 91.24 bytes, and 26.58 of vectors that grow by
//! doubling (`SimOutcome::submitted`, the ledgers' block and hash
//! spines). That is 29 % above one chain's, so the marginal figure is not
//! yet held to the chain's (ROADMAP item 15(a)).
//!
//! The allocation and peak-bytes budgets sit 5 % above the last row,
//! the marginal budgets likewise, and the ratchet is two-sided: a figure over its budget fails, and so does a
//! figure more than 8 % under it, because a budget nobody lowered no
//! longer guards what was gained. A change that has to raise a budget
//! owes the reason.
//!
//! This file is its own test binary so the `#[global_allocator]` is
//! private to it, and the allocator counts per thread, so the tests here
//! and the harness around them do not see one another.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Duration;

use parblock_crypto::hash_wire;
use parblock_depgraph::{DependencyMode, ReadyTracker, StreamingBuilder};
use parblock_ledger::{Genesis, Ledger, MvccState};
use parblock_net::{NetworkBuilder, Topology};
use parblock_types::{
    AppId, Block, BlockCutConfig, BlockNumber, ClientId, Clock, ExecutionCosts, Key, NodeId,
    RwSet, Transaction,
};
use parblock_workload::WorkloadGen;
use parblockchain::{run_sim, ClusterSpec, SimConfig, SystemKind};
use parblockchain_repro as _;

/// What one thread has asked of the allocator since [`measured`] began.
#[derive(Clone, Copy)]
struct Tally {
    on: bool,
    /// `alloc` + `realloc` calls.
    allocs: u64,
    /// Requested bytes outstanding, relative to the start (negative if
    /// the thread frees what it allocated earlier).
    live: i64,
    peak: i64,
}

impl Tally {
    const fn zeroed(on: bool) -> Self {
        Tally {
            on,
            allocs: 0,
            live: 0,
            peak: 0,
        }
    }
}

thread_local! {
    /// Per thread, so the harness's own thread (slow-test timer, output
    /// capture) and the other test in this file are never counted.
    /// `const`-initialised and without a destructor: reading it from
    /// inside the allocator neither allocates nor registers one.
    static TALLY: Cell<Tally> = const { Cell::new(Tally::zeroed(false)) };
}

fn tally(calls: u64, bytes: i64) {
    // `try_with`: a thread being torn down may free after its
    // thread-locals are gone.
    let _ = TALLY.try_with(|cell| {
        let mut t = cell.get();
        if t.on {
            t.allocs += calls;
            t.live += bytes;
            t.peak = t.peak.max(t.live);
            cell.set(t);
        }
    });
}

struct Counting;

// SAFETY: every method forwards to `System` unchanged; the bookkeeping
// beside it touches one thread-local `Cell` and cannot allocate or unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(1, layout.size() as i64);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        tally(0, -(layout.size() as i64));
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally(1, new_size as i64 - layout.size() as i64);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `work` on this thread with counting on; returns what it asked
/// of the allocator.
fn tallied(work: impl FnOnce()) -> Tally {
    TALLY.with(|cell| cell.set(Tally::zeroed(true)));
    work();
    TALLY.with(|cell| cell.replace(Tally::zeroed(false)))
}

/// The allocations `work` made and the peak of live bytes above the
/// level it started from.
fn measured(work: impl FnOnce()) -> (u64, i64) {
    let t = tallied(work);
    (t.allocs, t.peak)
}

const TXS: usize = 4_000;

#[derive(Debug, PartialEq)]
struct Cost {
    allocs_per_tx: f64,
    peak_live_bytes_per_tx: f64,
}

/// The run's cluster at `contention`.
fn spec(contention: f64) -> ClusterSpec {
    let mut spec = ClusterSpec::new(SystemKind::Oxii);
    spec.seed = 42;
    spec.block_cut = BlockCutConfig::with_max_txns(100);
    spec.costs = ExecutionCosts::per_tx(Duration::from_micros(500));
    spec.workload.contention = contention;
    spec
}

/// The allocations and the peak live bytes of one run of `txs`
/// transactions.
fn run(contention: f64, txs: usize) -> (u64, i64) {
    measured(|| {
        let outcome = run_sim(&SimConfig::new(spec(contention), txs, 4_000.0));
        assert!(outcome.completed, "{:?}", outcome.report);
        assert_eq!(outcome.report.committed, txs as u64);
    })
}

fn cost(contention: f64) -> Cost {
    let (allocs, peak) = run(contention, TXS);
    Cost {
        allocs_per_tx: allocs as f64 / TXS as f64,
        peak_live_bytes_per_tx: peak as f64 / TXS as f64,
    }
}

/// The peak live bytes of the chain alone: the run's transactions, cut
/// into its 100-transaction blocks and appended to a bare [`Ledger`].
fn ledger_peak(contention: f64, txs: usize) -> i64 {
    let config = spec(contention).workload_config();
    let block_size = config.block_size;
    let (_, peak) = measured(|| {
        let mut stream = WorkloadGen::new(config).stream().take(txs).peekable();
        let mut ledger = Ledger::new();
        while stream.peek().is_some() {
            let txs = stream.by_ref().take(block_size).collect();
            let block = Block::new(ledger.next_number(), ledger.head_hash(), txs);
            ledger.append(block).expect("each block links to the head");
        }
    });
    peak
}

/// What each transaction past the first `TXS` adds to the peak:
/// `(peak(4N) − peak(N)) / 3N` at N = `TXS`. Whatever a run holds
/// whatever its length cancels out.
fn marginal(peak: impl Fn(usize) -> i64) -> f64 {
    (peak(4 * TXS) - peak(TXS)) as f64 / (3 * TXS) as f64
}

/// `(contention, allocations / tx, peak live bytes / tx)`. The
/// allocation budgets sit 5 % above what the tree read since a block's
/// graph is one shared table (see the header): 35.87 and 38.70 at
/// contention 0 and 0.8 in release; it reads 35.88 and 38.71 since the
/// cluster shares one genesis. A debug build makes 0.04 more (35.92,
/// 38.75): `Ledger::append_hashed`'s `debug_assert` encodes and hashes
/// each appended block once more. The peak-bytes budgets sit 5 % above
/// the 680.49 and 577.90 read since the cluster shares one genesis, in
/// both profiles. Contention 0 sits higher because a replica now holds
/// only the keys it writes, and the run writes 6 400 distinct keys at
/// contention 0 against 1 780 at 0.8.
const BUDGETS: [(f64, f64, f64); 2] = if cfg!(debug_assertions) {
    [(0.0, 37.71, 714.5), (0.8, 40.68, 606.8)]
} else {
    [(0.0, 37.66, 714.5), (0.8, 40.64, 606.8)]
};

/// A figure below this share of its budget means the budget is stale.
const STALE_BELOW: f64 = 0.92;

/// Both directions of the ratchet for one figure.
fn check(contention: f64, what: &str, figure: f64, budget: f64) {
    assert!(
        figure <= budget,
        "contention {contention}: {figure:.2} {what} over the budget of {budget}"
    );
    assert!(
        figure >= STALE_BELOW * budget,
        "contention {contention}: {figure:.2} {what} is more than 8 % under {budget}: \
         budget is stale, lower it"
    );
}

#[test]
#[should_panic(expected = "budget is stale, lower it")]
fn a_figure_far_under_its_budget_is_refused() {
    check(0.0, "allocations/tx", 90.0, 100.0);
}

#[test]
fn allocations_and_live_heap_stay_within_budget() {
    for (contention, max_allocs, max_live) in BUDGETS {
        let first = cost(contention);
        let second = cost(contention);
        assert_eq!(
            first, second,
            "contention {contention}: the counts must repeat exactly"
        );
        println!(
            "contention {contention}: {:.2} allocations/tx, {:.2} peak live bytes/tx",
            first.allocs_per_tx, first.peak_live_bytes_per_tx
        );
        check(
            contention,
            "allocations/tx",
            first.allocs_per_tx,
            max_allocs,
        );
        let live = first.peak_live_bytes_per_tx;
        check(contention, "peak live bytes/tx", live, max_live);
    }
}

/// `(contention, marginal peak live bytes / tx)`, the same in both
/// profiles: 5 % above the 117.82 measured at both contentions since each
/// block's transactions are one table (see the header).
const MARGINAL_BUDGETS: [(f64, f64); 2] = [(0.0, 123.7), (0.8, 123.7)];

/// What one copy of the chain may add per transaction: a block's packed
/// table holds the run's transfers in 91.24 bytes each (a 16-byte
/// handle, a 32-byte row, two keys stored once, a 25-byte payload, and
/// the ledger's spines).
const CHAIN_MARGINAL_MAX: f64 = 100.0;

/// ROADMAP 15(a): growth with the run as a deterministic count, beside
/// what one copy of the chain grows by. The run's figure is held to its
/// budget, the chain's to [`CHAIN_MARGINAL_MAX`].
#[test]
fn marginal_live_heap_per_transaction_stays_within_budget() {
    for (contention, budget) in MARGINAL_BUDGETS {
        let run_marginal = marginal(|txs| run(contention, txs).1);
        let chain_marginal = marginal(|txs| ledger_peak(contention, txs));
        println!(
            "contention {contention}: {run_marginal:.2} marginal peak live bytes/tx, \
             {chain_marginal:.2} of them for one copy of the chain"
        );
        check(
            contention,
            "marginal peak live bytes/tx",
            run_marginal,
            budget,
        );
        assert!(
            chain_marginal <= CHAIN_MARGINAL_MAX,
            "contention {contention}: one chain adds {chain_marginal:.2} bytes/tx, \
             over {CHAIN_MARGINAL_MAX}"
        );
    }
}

/// Bytes per key the genesis table holds over the run's 9 970 accounts,
/// the same in both profiles: 5 % above the 40.00 of one sorted slice
/// of 40-byte entries (an 8-byte key, a 32-byte `Value`) behind one
/// `Arc`. A cluster builds it once; a heap allocation per key puts it
/// over its budget.
const GENESIS_TABLE_BYTES_PER_KEY_BUDGET: f64 = 42.0;

/// What the run's genesis costs: the cluster's one table, in bytes per
/// key, and nothing per replica, whose state over the table allocates
/// nothing until it is written.
#[test]
fn genesis_state_stays_within_budget() {
    let genesis = WorkloadGen::new(spec(0.0).workload_config()).genesis();
    let keys = genesis.len();
    let mut table = None;
    let held = tallied(|| table = Some(Genesis::new(genesis.iter().cloned()))).live;
    let per_key = held as f64 / keys as f64;
    println!("genesis table: {per_key:.2} bytes/key over {keys} keys");
    check(
        0.0,
        "genesis table bytes/key",
        per_key,
        GENESIS_TABLE_BYTES_PER_KEY_BUDGET,
    );
    let table = table.expect("built");
    let (allocs, peak) = measured(|| {
        let state = MvccState::over(table.clone());
        assert_eq!(state.total_versions(), keys);
    });
    assert_eq!((allocs, peak), (0, 0), "a replica's state over the table");
}

/// A transaction is a handle to a row of a shared table, not a copy of
/// it: `dispatch_ready`, the cutter and the ledger all clone
/// transactions.
#[test]
fn cloning_a_transaction_allocates_nothing() {
    let rw = RwSet::new([Key(1), Key(2)], [Key(1), Key(2)]);
    let tx = Transaction::new(AppId(0), ClientId(1), 7, rw, vec![0; 64]);
    let mut copy = None;
    let (allocs, _) = measured(|| copy = Some(tx.clone()));
    assert_eq!(allocs, 0);
    assert_eq!(copy, Some(tx));
}

/// A block's dependency graph is one table: the cutter's `finish` makes
/// one allocation whatever the edge count, a clone shares the table, and
/// a `ReadyTracker` over it allocates its counts and its roots, no
/// adjacency. Each shape is 100 transactions: independent writers, a
/// read-modify-write chain, and one writer followed by its readers.
#[test]
fn a_dependency_graph_is_one_allocation_shared_by_its_readers() {
    let shapes = [
        ("independent", 0, 100),
        ("chain", 99, 1),
        ("readers", 99, 1),
    ];
    for (shape, edges, roots) in shapes {
        let mut builder = StreamingBuilder::new(DependencyMode::Reduced);
        for ts in 0..100 {
            let rw = match shape {
                "independent" => RwSet::write_only([Key(ts)]),
                "chain" => RwSet::new([Key(1)], [Key(1)]),
                _ if ts == 0 => RwSet::write_only([Key(1)]),
                _ => RwSet::read_only([Key(1)]),
            };
            builder.observe(&Transaction::new(AppId(0), ClientId(1), ts, rw, vec![]));
        }
        let mut graph = None;
        let (allocs, _) = measured(|| graph = Some(builder.finish()));
        let graph = graph.expect("finished");
        assert_eq!((allocs, graph.edge_count()), (1, edges), "{shape}");
        let (allocs, _) = measured(|| drop(graph.clone()));
        assert_eq!(allocs, 0, "a clone shares the table");
        let mut ready = Vec::new();
        let (allocs, _) = measured(|| ready = ReadyTracker::new(&graph).take_ready());
        assert_eq!(ready.len(), roots);
        if roots == 1 {
            assert_eq!(allocs, 2, "{shape}: the counts and one root");
        }
    }
}

/// The head hash of a non-empty ledger is the last stored hash: no
/// genesis block is built and hashed as a default that is thrown away.
/// Every peer reads it for each block it appends.
#[test]
fn the_head_hash_of_a_non_empty_ledger_allocates_nothing() {
    let mut ledger = Ledger::new();
    let block = Block::new(BlockNumber(1), Ledger::genesis_hash(), vec![]);
    let expected = hash_wire(&block);
    ledger.append(block).expect("block 1 links to genesis");
    let mut head = None;
    let (allocs, _) = measured(|| head = Some(ledger.head_hash()));
    assert_eq!(allocs, 0);
    assert_eq!(head, Some(expected));
}

/// A multicast copies its message once, into one `Arc` every recipient
/// shares: two allocations however many destinations there are. The run
/// budget cannot see a copy per destination (a few allocations per
/// transaction among a hundred), so this pins it directly.
#[test]
fn a_multicast_clones_its_message_once() {
    for n in [3u32, 8] {
        let clock = Clock::simulated();
        let net = NetworkBuilder::new()
            .topology(Topology::single_dc(Duration::from_micros(100)))
            .clock(clock.clone())
            .manual_delivery()
            .build::<Vec<u8>>();
        let sender = net.endpoint(NodeId(0));
        let dests: Vec<NodeId> = (1..=n).map(NodeId).collect();
        let _mailboxes: Vec<_> = dests.iter().map(|&id| net.endpoint(id)).collect();
        let msg = vec![7u8; 256];
        // Warm-up: the first multicast creates each destination's shard
        // and grows its heap; delivering it leaves both in place.
        sender.multicast(&dests, &msg);
        clock.advance(Duration::from_millis(1));
        assert_eq!(net.deliver_due(clock.now()), n as usize);
        let (allocs, _) = measured(|| sender.multicast(&dests, &msg));
        assert_eq!(allocs, 2, "{n} destinations: one clone and one Arc");
        assert_eq!(net.queued(), n as usize);
    }
}
