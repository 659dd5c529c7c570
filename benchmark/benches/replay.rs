//! Replay: regenerate the workload's own transaction stream and time the
//! public calls of each layer on it, single-threaded, in pipeline order.
//!
//! This is what one transaction costs each layer with nothing else
//! running — no queues, no wakeups, no contention for a core. The
//! cluster pays each cost once per node that performs it; `Multiplicity`
//! records how often, and the sum is compared with the cluster's measured
//! CPU per transaction.

use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use parblock_consensus::testing::SimCluster;
use parblock_contracts::StateReader;
use parblock_crypto::hash_wire;
use parblock_depgraph::{CrossBlockIndex, ExecutionLayers, ReadyTracker, StreamingBuilder};
use parblock_ledger::{prune_to_sealed, Ledger, MvccState, Version};
use parblock_net::NetworkBuilder;
use parblock_store::Store;
use parblock_types::wire::Wire;
use parblock_types::{Block, BlockNumber, Key, NodeId, SeqNo, Transaction, Value};
use parblock_workload::WorkloadGen;
use parblockchain::batch::Payload;
use parblockchain::cutter::BlockCutter;
use parblockchain::{ClusterSpec, Histogram};

use crate::phases::Gate;
use crate::spans::{SpanId, Spans, LANE_BLOCK, LANE_LAYER, LANE_PHASE};
use crate::workloads::BLOCK_TXS;

/// What the replay measured. Times are nanoseconds unless named otherwise.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    pub gen_ns_per_tx: f64,
    pub wire_encode_ns_per_tx: f64,
    pub wire_decode_ns_per_tx: f64,
    pub tx_bytes: f64,
    pub sign_ns_per_tx: f64,
    pub verify_ns_per_tx: f64,
    pub block_hash_ns_per_tx: f64,
    pub order_ns_per_tx: f64,
    pub msgs_per_batch: f64,
    pub cutter_push_ns_per_tx: f64,
    pub observe_ns_per_tx: f64,
    pub finish_ns_per_block: f64,
    pub edges_per_tx: f64,
    pub critical_path_per_block: f64,
    pub permitted_parallelism: f64,
    pub crossblock_admit_ns_per_tx: f64,
    pub ready_release_ns_per_tx: f64,
    pub execute_ns_per_tx: f64,
    pub mvcc_get_ns_per_read: f64,
    pub mvcc_put_ns_per_write: f64,
    pub mvcc_prune_ns_per_block: f64,
    pub versions_per_hot_key: f64,
    pub reads_per_tx: f64,
    pub writes_per_tx: f64,
    /// Zero unless the workload is durable.
    pub log_effects_ns_per_tx: f64,
    pub seal_us_per_block: f64,
}

/// How many times the cluster performs each replayed call per committed
/// transaction, generator thread excluded (it is excluded from
/// `core.steady_cpu_us_per_tx` too). 3 orderers, 4 peers (3 executors and a
/// non-executor, all of which track and apply every block), one agent
/// per application, 100-transaction blocks, and per block 3 NEWBLOCK and
/// at least 3 COMMIT messages, each signed once and verified by 4 peers.
pub struct Multiplicity;

impl Multiplicity {
    const ORDERERS: f64 = 3.0;
    const PEERS: f64 = 4.0;
    const BLOCK: f64 = BLOCK_TXS as f64;

    /// Σ replay cost × multiplicity, in microseconds per transaction.
    /// `network_ns_per_tx` is messages per transaction × enqueue cost.
    /// The seal is left out: its time is fsync wait, not CPU.
    pub fn replay_us_per_tx(r: &Replay, network_ns_per_tx: f64, durable: bool) -> f64 {
        let per_block_msgs = 6.0 / Self::BLOCK;
        let ns = r.wire_encode_ns_per_tx * 2.0 // entry orderer: signature check, batch payload
            + r.wire_decode_ns_per_tx * Self::ORDERERS
            + r.sign_ns_per_tx * per_block_msgs
            + r.verify_ns_per_tx * (1.0 + per_block_msgs * Self::PEERS)
            + r.block_hash_ns_per_tx * (Self::ORDERERS + Self::PEERS)
            + r.order_ns_per_tx // already the work of all three replicas
            + (r.cutter_push_ns_per_tx + r.observe_ns_per_tx) * Self::ORDERERS
            + r.finish_ns_per_block * Self::ORDERERS / Self::BLOCK
            + network_ns_per_tx
            + (r.crossblock_admit_ns_per_tx + r.ready_release_ns_per_tx) * Self::PEERS
            + r.execute_ns_per_tx
            + r.mvcc_get_ns_per_read * r.reads_per_tx
            + r.mvcc_put_ns_per_write * r.writes_per_tx * Self::PEERS
            + r.mvcc_prune_ns_per_block * Self::PEERS / Self::BLOCK
            + if durable { r.log_effects_ns_per_tx * Self::PEERS } else { 0.0 };
        ns / 1e3
    }
}

/// A contract's view of the version-positioned snapshot of its declared
/// reads, as the executor builds one per dispatched transaction.
struct Snapshot(HashMap<Key, Option<Value>>);

impl StateReader for Snapshot {
    fn read(&self, key: Key) -> Value {
        self.try_read(key).unwrap_or_default()
    }

    fn try_read(&self, key: Key) -> Option<Value> {
        self.0.get(&key).cloned().flatten()
    }
}

/// Nanoseconds accumulated by one layer, with a span per timed call.
struct Timer<'a> {
    spans: &'a mut Spans,
    block: SpanId,
}

impl Timer<'_> {
    fn time<T>(&mut self, layer: &'static str, total_ns: &mut u64, work: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = work();
        let end = Instant::now();
        *total_ns += (end - start).as_nanos() as u64;
        self.spans
            .record(layer, LANE_LAYER, start, end, Some(self.block));
        out
    }
}

/// Replays `blocks` blocks of the stream `spec` generates. `store_dir`
/// is where the store layer writes when the workload is durable.
pub fn replay(
    spec: &ClusterSpec,
    blocks: usize,
    store_dir: Option<&Path>,
    spans: &mut Spans,
) -> Gate<Replay> {
    let phase_started = Instant::now();
    let keys = spec.build_keys();
    let registry = spec.registry();
    let mut gen = WorkloadGen::new(spec.workload_config());
    let mut state = MvccState::with_genesis(gen.genesis());
    // `applied` trails `state` by the block in flight, so the put pass is
    // timed on exactly the chains the execution pass wrote into.
    let mut applied = state.clone();
    let mut ledger = Ledger::new();
    let mut xindex = CrossBlockIndex::new();
    let mut builder = StreamingBuilder::new(spec.depgraph_mode);
    let mut cutter = BlockCutter::new(spec.block_cut.clone());
    let mut sequencer = SimCluster::sequencer(spec.orderers, spec.consensus_timeout);
    let mut store = match store_dir {
        Some(dir) => Some(
            Store::open(dir, spec.durability_config)
                .map_err(|e| format!("replay: open store {}: {e}", dir.display()))?
                .0,
        ),
        None => None,
    };

    let mut ns = Ns::default();
    let mut counts = Counts::default();
    for number in 1..=blocks as u64 {
        let block_started = Instant::now();
        let block_span = spans.open(format!("block {number}"), LANE_BLOCK, block_started);
        let mut t = Timer {
            spans,
            block: block_span,
        };

        // workload → types → crypto: what the client and the entry
        // orderer do to every request.
        let txs = t.time("workload.gen", &mut ns.gen, || gen.window());
        let encoded: Vec<Vec<u8>> = t.time("types.wire_encode", &mut ns.encode, || {
            txs.iter().map(Wire::wire_bytes).collect()
        });
        counts.tx_bytes += encoded.iter().map(Vec::len).sum::<usize>();
        let signers: Vec<_> = txs
            .iter()
            .map(|tx| spec.client_signer(tx.client()))
            .collect();
        let sigs: Vec<_> = t.time("crypto.sign", &mut ns.sign, || {
            encoded
                .iter()
                .zip(&signers)
                .map(|(bytes, &signer)| keys.sign(signer, bytes))
                .collect()
        });
        let all_valid = t.time("crypto.verify", &mut ns.verify, || {
            encoded
                .iter()
                .zip(&signers)
                .zip(&sigs)
                .all(|((bytes, &signer), sig)| keys.verify(signer, bytes, sig))
        });
        if !all_valid {
            return Err("replay: a freshly made signature did not verify".into());
        }

        // consensus: the batches the entry orderer would propose.
        let payloads: Vec<Vec<u8>> = txs
            .chunks(spec.batch_max)
            .map(|chunk| Payload::Batch(chunk.to_vec()).encode())
            .collect();
        counts.batches += payloads.len();
        t.time("consensus.order", &mut ns.order, || {
            for payload in payloads {
                sequencer.submit(0, payload);
                sequencer.run_to_quiescence();
            }
        });
        let decoded: Vec<Transaction> = t.time("types.wire_decode", &mut ns.decode, || {
            encoded
                .iter()
                .map(|bytes| Transaction::from_wire(bytes).expect("round trip"))
                .collect()
        });
        if decoded != txs {
            return Err("replay: a transaction changed in an encode/decode round trip".into());
        }

        // core cutter and depgraph: what every orderer does per delivery.
        let now = Instant::now();
        let cut = t.time("core.cutter_push", &mut ns.cutter, || {
            decoded
                .into_iter()
                .filter_map(|tx| cutter.push(tx, now))
                .last()
        });
        let cut = cut.ok_or("replay: a full window did not cut a block")?;
        t.time("depgraph.observe", &mut ns.observe, || {
            for tx in &cut.txs {
                builder.observe(tx);
            }
        });
        let graph = t.time("depgraph.finish", &mut ns.finish, || builder.finish());
        let layers = ExecutionLayers::compute(&graph);
        counts.edges += graph.edge_count();
        counts.critical_path += layers.critical_path();
        counts.parallelism += layers.avg_parallelism();
        let block = Block::new(BlockNumber(number), ledger.head_hash(), cut.txs);
        let hash = t.time("crypto.block_hash", &mut ns.block_hash, || {
            hash_wire(&block)
        });

        // depgraph on the peer: admission against earlier blocks, then
        // readiness release down the graph.
        let external: Vec<u32> = t.time("depgraph.crossblock_admit", &mut ns.admit, || {
            let deps = xindex.admit_block(number, block.transactions());
            let external = deps.iter().map(|d| d.len() as u32).collect();
            for seq in 0..block.len() as u32 {
                xindex.complete(number, SeqNo(seq));
            }
            external
        });
        t.time("depgraph.ready_release", &mut ns.release, || {
            let mut tracker = ReadyTracker::with_external(&graph, &external);
            let mut frontier = tracker.take_ready();
            while let Some(seq) = frontier.pop() {
                frontier.extend(tracker.complete(seq));
            }
            assert!(tracker.is_done(), "every position released");
        });

        // ledger and contracts: position order is a serial order, so one
        // pass executes the block; it keeps each snapshot and write set
        // for the timed single-layer passes below.
        let mut snapshots = Vec::with_capacity(block.len());
        let mut write_sets: Vec<(Version, Vec<(Key, Value)>)> = Vec::with_capacity(block.len());
        for (seq, tx) in block.iter_seq() {
            let position = Version::new(block.number(), seq);
            let snapshot = Snapshot(
                tx.rw_set()
                    .reads()
                    .iter()
                    .map(|&k| (k, state.get_at(k, position)))
                    .collect(),
            );
            let contract = registry
                .contract(tx.app())
                .map_err(|e| format!("replay: {e}"))?;
            let outcome = contract.execute(tx, &snapshot);
            let writes = outcome
                .writes()
                .ok_or_else(|| format!("replay: {outcome:?} at block {number} {seq:?}"))?
                .to_vec();
            state.apply(writes.iter().cloned(), position);
            snapshots.push(snapshot);
            write_sets.push((position, writes));
        }
        t.time("ledger.mvcc_get", &mut ns.get, || {
            for (seq, tx) in block.iter_seq() {
                let position = Version::new(block.number(), seq);
                for &key in tx.rw_set().reads() {
                    black_box(state.get_at(key, position));
                }
            }
        });
        t.time("contracts.execute", &mut ns.execute, || {
            for ((_, tx), snapshot) in block.iter_seq().zip(&snapshots) {
                let contract = registry.contract(tx.app()).expect("resolved above");
                black_box(contract.execute(tx, snapshot));
            }
        });
        t.time("ledger.mvcc_put", &mut ns.put, || {
            for (version, writes) in &write_sets {
                applied.apply(writes.iter().cloned(), *version);
            }
        });
        counts.reads += block
            .transactions()
            .iter()
            .map(|tx| tx.rw_set().reads().len())
            .sum::<usize>();
        counts.writes += write_sets.iter().map(|(_, w)| w.len()).sum::<usize>();
        counts.hot_versions += write_sets
            .iter()
            .flat_map(|(_, writes)| writes.iter().map(|(key, _)| applied.version_count(*key)))
            .max()
            .unwrap_or(0);

        // store: effects, then the seal barrier (and the checkpoint it
        // owns), as an executor's durability hook does.
        if let Some(store) = &mut store {
            t.time("store.log_effects", &mut ns.log_effects, || {
                for (version, writes) in &write_sets {
                    store.log_effects(*version, writes).expect("WAL append");
                }
            });
        }
        ledger
            .append(block.clone())
            .map_err(|e| format!("replay: {e}"))?;
        if ledger.head_hash() != hash {
            return Err("replay: the ledger head is not the block's hash".into());
        }
        prune_to_sealed(&block, &mut state);
        if let Some(store) = &mut store {
            t.time("store.seal", &mut ns.seal, || {
                store.seal_block(&block, Some(&graph), hash).expect("seal");
                if store.checkpoint_due() {
                    let horizon = Version::new(block.number(), SeqNo(u32::MAX));
                    store
                        .write_checkpoint(state.snapshot_at(horizon))
                        .expect("checkpoint");
                }
            });
        }
        t.time("ledger.mvcc_prune", &mut ns.prune, || {
            prune_to_sealed(&block, &mut applied)
        });
        spans.finish(block_span);
    }

    if applied.digest() != state.digest() {
        return Err("replay: the timed put pass diverged from the executed state".into());
    }
    let ordered = sequencer.delivered(spec.orderers - 1).len();
    if ordered != counts.batches || !sequencer.all_agree() {
        return Err(format!(
            "replay: the last replica delivered {ordered} of {} batches",
            counts.batches
        ));
    }
    spans.close("replay", LANE_PHASE, phase_started, None);

    let txs = (blocks * BLOCK_TXS) as f64;
    let blocks = blocks as f64;
    Ok(Replay {
        gen_ns_per_tx: ns.gen as f64 / txs,
        wire_encode_ns_per_tx: ns.encode as f64 / txs,
        wire_decode_ns_per_tx: ns.decode as f64 / txs,
        tx_bytes: counts.tx_bytes as f64 / txs,
        sign_ns_per_tx: ns.sign as f64 / txs,
        verify_ns_per_tx: ns.verify as f64 / txs,
        block_hash_ns_per_tx: ns.block_hash as f64 / txs,
        order_ns_per_tx: ns.order as f64 / txs,
        msgs_per_batch: sequencer.steps() as f64 / counts.batches as f64,
        cutter_push_ns_per_tx: ns.cutter as f64 / txs,
        observe_ns_per_tx: ns.observe as f64 / txs,
        finish_ns_per_block: ns.finish as f64 / blocks,
        edges_per_tx: counts.edges as f64 / txs,
        critical_path_per_block: counts.critical_path as f64 / blocks,
        permitted_parallelism: counts.parallelism / blocks,
        crossblock_admit_ns_per_tx: ns.admit as f64 / txs,
        ready_release_ns_per_tx: ns.release as f64 / txs,
        execute_ns_per_tx: ns.execute as f64 / txs,
        mvcc_get_ns_per_read: ns.get as f64 / counts.reads.max(1) as f64,
        mvcc_put_ns_per_write: ns.put as f64 / counts.writes.max(1) as f64,
        mvcc_prune_ns_per_block: ns.prune as f64 / blocks,
        versions_per_hot_key: counts.hot_versions as f64 / blocks,
        reads_per_tx: counts.reads as f64 / txs,
        writes_per_tx: counts.writes as f64 / txs,
        log_effects_ns_per_tx: ns.log_effects as f64 / txs,
        seal_us_per_block: ns.seal as f64 / blocks / 1e3,
    })
}

#[derive(Default)]
struct Ns {
    gen: u64,
    encode: u64,
    decode: u64,
    sign: u64,
    verify: u64,
    block_hash: u64,
    order: u64,
    cutter: u64,
    observe: u64,
    finish: u64,
    admit: u64,
    release: u64,
    execute: u64,
    get: u64,
    put: u64,
    prune: u64,
    log_effects: u64,
    seal: u64,
}

#[derive(Default)]
struct Counts {
    tx_bytes: usize,
    batches: usize,
    edges: usize,
    critical_path: usize,
    parallelism: f64,
    reads: usize,
    writes: usize,
    hot_versions: usize,
}

/// Longest dependency chain through the first `txs` transactions of the
/// stream, across block boundaries: with unbounded workers and pipeline
/// depth, executing the stream takes this many transaction costs.
pub fn stream_critical_path(spec: &ClusterSpec, txs: usize) -> usize {
    let mut builder = StreamingBuilder::new(spec.depgraph_mode);
    for tx in WorkloadGen::new(spec.workload_config()).take_txs(txs) {
        builder.observe(&tx);
    }
    ExecutionLayers::compute(&builder.finish()).critical_path()
}

/// The network layer on its own: two endpoints over the benchmark's
/// 200 µs link. Returns (`send_recv_us` beyond the injected delay,
/// `multicast_ns_per_dest`).
pub fn network_probe(spec: &ClusterSpec, rounds: usize, spans: &mut Spans) -> (f64, f64) {
    let started = Instant::now();
    let net = NetworkBuilder::new()
        .topology(spec.build_topology())
        .seed(spec.seed)
        .build::<u64>();
    let peers = spec.peer_ids();
    let sender = net.endpoint(NodeId(0));
    let receivers: Vec<_> = peers.iter().map(|&id| net.endpoint(id)).collect();
    let injected = spec.topology.intra;

    let mut one_way: Vec<f64> = (0..rounds as u64)
        .map(|i| {
            let sent = Instant::now();
            sender.send(peers[0], i);
            receivers[0].recv().expect("network is up");
            sent.elapsed().saturating_sub(injected).as_secs_f64() * 1e6
        })
        .collect();

    let mut multicast = Duration::ZERO;
    for i in 0..rounds as u64 {
        let sent = Instant::now();
        sender.multicast(peers.iter(), &i);
        multicast += sent.elapsed();
        for receiver in &receivers {
            receiver.recv().expect("network is up");
        }
    }
    net.shutdown();
    spans.close("network probe", LANE_PHASE, started, None);
    (
        crate::e2e::median(&mut one_way),
        multicast.as_nanos() as f64 / (rounds * peers.len()) as f64,
    )
}

/// `Histogram::record` on a spread of latency-like values.
pub fn hist_record_ns(samples: u64) -> f64 {
    let mut hist = Histogram::new();
    let started = Instant::now();
    for i in 0..samples {
        // A multiplicative hash walks the buckets instead of sitting in one.
        hist.record(black_box(i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40));
    }
    let elapsed = started.elapsed();
    assert_eq!(black_box(&hist).count(), samples);
    elapsed.as_nanos() as f64 / samples as f64
}

/// A bare 4 KiB write + fsync in `dir`: the sandbox's disk, not a
/// device's. Median of `rounds`, in microseconds.
pub fn fsync_probe_us(dir: &Path, rounds: usize) -> Gate<f64> {
    use std::io::Write as _;
    let io = |e: std::io::Error| format!("fsync probe in {}: {e}", dir.display());
    std::fs::create_dir_all(dir).map_err(io)?;
    let path = dir.join("fsync-probe");
    let mut file = std::fs::File::create(&path).map_err(io)?;
    let page = [0xA5u8; 4096];
    let mut times = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let started = Instant::now();
        file.write_all(&page).map_err(io)?;
        file.sync_all().map_err(io)?;
        times.push(started.elapsed().as_secs_f64() * 1e6);
    }
    drop(file);
    std::fs::remove_file(&path).map_err(io)?;
    Ok(crate::e2e::median(&mut times))
}
