//! The composed per-node store: WAL + block store + checkpoints, and
//! the recovery path that rebuilds a node from them.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use parblock_depgraph::DependencyGraph;
use parblock_ledger::{prune_to_sealed, ChainError, Ledger, MvccState, Version};
use parblock_types::{Block, BlockNumber, DurabilityConfig, Hash32, Key, Value};

use crate::blocks::BlockFile;
use crate::checkpoint::{self, Checkpoint};
use crate::wal::{Wal, WalRecord};

/// Counters a [`Store`] accumulates over its life, surfaced through
/// `RunReport` for durability-overhead observability.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DurabilityStats {
    /// Bytes appended to the write-ahead log (framing included).
    pub wal_bytes_written: u64,
    /// Number of `fsync` barriers issued (WAL group commits, block-store
    /// seals, checkpoint publishes).
    pub fsync_count: u64,
    /// Checkpoints written.
    pub checkpoint_count: u64,
    /// WAL records replayed above the checkpoint during recovery (zero
    /// for a store that started empty).
    pub recovery_replay_len: u64,
}

/// Everything recovery reconstructs from one node's store.
#[derive(Debug, Clone)]
pub struct Recovered {
    /// Sealed blocks (and their dependency graphs) in commit order, up
    /// to the watermark.
    pub chain: Vec<(Block, Option<DependencyGraph>)>,
    /// State entries to overlay (in order) onto a genesis-seeded
    /// [`MvccState`]: checkpoint snapshot first, then replayed WAL
    /// effects above it.
    pub state_entries: Vec<(Key, Value, Version)>,
    /// The sealed commit watermark (0 for an empty store).
    pub watermark: BlockNumber,
    /// Ledger head hash at the watermark.
    pub head: Hash32,
    /// WAL records replayed above the checkpoint (effects applied plus
    /// seal markers advanced).
    pub replay_len: u64,
}

impl Recovered {
    /// `true` when the store held no sealed block.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.watermark.0 == 0
    }

    /// Rebuilds the hash-chained ledger from the recovered blocks,
    /// re-verifying every link.
    ///
    /// # Errors
    ///
    /// The first broken hash link or numbering gap found.
    pub fn ledger(&self) -> Result<Ledger, ChainError> {
        let mut ledger = Ledger::new();
        for (block, _) in &self.chain {
            ledger.append(block.clone())?;
        }
        Ok(ledger)
    }

    /// Overlays the recovered state entries onto `state` (typically a
    /// genesis-seeded store), in recovery order, and seals it at the
    /// recovered watermark, so it holds the versions the live peer held
    /// after its last seal.
    pub fn overlay_state(&self, state: &mut MvccState) {
        for (key, value, version) in &self.state_entries {
            state.put(*key, value.clone(), *version);
        }
        if let Some((block, _)) = self.chain.last() {
            prune_to_sealed(block, state);
        }
    }
}

/// One node's durable store. See the crate docs for the file layout and
/// DESIGN.md §9 for the invariants.
#[derive(Debug)]
pub struct Store {
    config: DurabilityConfig,
    wal: Wal,
    blocks: BlockFile,
    ckpt_dir: PathBuf,
    watermark: u64,
    head: Hash32,
    /// Blocks sealed since the last checkpoint.
    since_checkpoint: u64,
    checkpoints_written: u64,
    checkpoint_fsyncs: u64,
    replay_len: u64,
}

impl Store {
    /// The conventional per-node directory under a cluster data dir.
    #[must_use]
    pub fn node_dir(base: &Path, node: u32) -> PathBuf {
        base.join(format!("node-{node}"))
    }

    /// Opens (or creates) the store under `dir` and recovers its
    /// durable state: newest intact checkpoint, WAL replay above it,
    /// torn-tail truncation, and orphan-body trimming back to the
    /// sealed watermark. The rebuilt hash chain is re-verified against
    /// the recorded head.
    ///
    /// # Errors
    ///
    /// I/O failures, or `InvalidData` when the store is internally
    /// inconsistent (e.g. a sealed block without its body, or a chain
    /// that does not hash to the recorded head).
    pub fn open(dir: &Path, config: DurabilityConfig) -> io::Result<(Self, Recovered)> {
        let config = config.sanitized();
        fs::create_dir_all(dir)?;
        let ckpt_dir = dir.join("ckpt");
        let ckpt: Option<Checkpoint> = checkpoint::load_latest(&ckpt_dir)?;
        let (wal, records) = Wal::open(&dir.join("wal"), config.flush_interval)?;
        let (mut blocks, entries) = BlockFile::open(dir)?;

        let ckpt_watermark = ckpt.as_ref().map_or(0, |c| c.watermark.0);
        let mut watermark = ckpt_watermark;
        let mut head = ckpt.as_ref().map_or(Ledger::genesis_hash(), |c| c.head);
        let mut replay_len = 0u64;
        // First pass: the sealed watermark is the highest seal on record.
        for record in &records {
            if let WalRecord::Seal { number, head: h } = record {
                if number.0 > watermark {
                    watermark = number.0;
                    head = *h;
                }
            }
        }
        if (entries.len() as u64) < watermark {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "sealed watermark {watermark} exceeds stored bodies ({})",
                    entries.len()
                ),
            ));
        }
        // Second pass: state = checkpoint snapshot + effects above it,
        // dropping the unsealed suffix (blocks above the watermark were
        // never acknowledged; the cluster re-executes them).
        let mut state_entries: Vec<(Key, Value, Version)> =
            ckpt.map(|c| c.entries).unwrap_or_default();
        for record in &records {
            match record {
                WalRecord::Effects { version, writes } => {
                    if version.block.0 > ckpt_watermark && version.block.0 <= watermark {
                        replay_len += 1;
                        state_entries
                            .extend(writes.iter().map(|(k, v)| (*k, v.clone(), *version)));
                    }
                }
                WalRecord::Seal { number, .. } => {
                    if number.0 > ckpt_watermark && number.0 <= watermark {
                        replay_len += 1;
                    }
                }
            }
        }
        // Trim orphan bodies beyond the watermark (body fsynced, crash
        // before the seal record): the block was never committed.
        let keep = usize::try_from(watermark).expect("watermark fits usize");
        blocks.truncate_to(keep)?;
        let chain: Vec<(Block, Option<DependencyGraph>)> = entries.into_iter().take(keep).collect();

        let recovered = Recovered {
            chain,
            state_entries,
            watermark: BlockNumber(watermark),
            head,
            replay_len,
        };
        // Integrity: the recovered chain must hash to the recorded head.
        let ledger = recovered
            .ledger()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        if ledger.head_hash() != head {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "recovered chain does not hash to the recorded head",
            ));
        }

        let store = Store {
            config,
            wal,
            blocks,
            ckpt_dir,
            watermark,
            head,
            since_checkpoint: watermark.saturating_sub(ckpt_watermark),
            checkpoints_written: 0,
            checkpoint_fsyncs: 0,
            replay_len,
        };
        Ok((store, recovered))
    }

    /// Appends the committed write-set of the transaction at `version`
    /// to the WAL (group-commit fsync policy).
    ///
    /// # Errors
    ///
    /// Any WAL I/O failure.
    pub fn log_effects(&mut self, version: Version, writes: &[(Key, Value)]) -> io::Result<()> {
        self.wal.append(&WalRecord::Effects {
            version,
            writes: writes.to_vec(),
        })
    }

    /// Durably seals `block`: body append + fsync to the block store,
    /// then a seal record + fsync to the WAL (covering any effects still
    /// pending in the group-commit window). On return the block is the
    /// durable commit watermark.
    ///
    /// # Errors
    ///
    /// Any I/O failure, or `InvalidData` for a non-contiguous block.
    pub fn seal_block(
        &mut self,
        block: &Block,
        graph: Option<&DependencyGraph>,
        head: Hash32,
    ) -> io::Result<()> {
        self.blocks.append(block, graph)?;
        self.wal.append(&WalRecord::Seal {
            number: block.number(),
            head,
        })?;
        self.wal.sync()?;
        self.watermark = block.number().0;
        self.head = head;
        self.since_checkpoint += 1;
        Ok(())
    }

    /// Whether the checkpoint interval has elapsed since the last
    /// checkpoint (or since recovery).
    #[must_use]
    pub fn checkpoint_due(&self) -> bool {
        self.since_checkpoint >= self.config.checkpoint_interval
    }

    /// Publishes a checkpoint of `entries` (the state snapshot at the
    /// current watermark), rotates the WAL, and deletes WAL segments
    /// wholly below the watermark.
    ///
    /// # Errors
    ///
    /// Any I/O failure publishing or truncating.
    pub fn write_checkpoint(
        &mut self,
        entries: Vec<(Key, Value, Version)>,
    ) -> io::Result<()> {
        let checkpoint = Checkpoint {
            watermark: BlockNumber(self.watermark),
            head: self.head,
            entries,
        };
        self.checkpoint_fsyncs += checkpoint::publish(&self.ckpt_dir, &checkpoint)?;
        self.wal.rotate()?;
        self.wal.truncate_below(self.watermark)?;
        self.checkpoints_written += 1;
        self.since_checkpoint = 0;
        Ok(())
    }

    /// The sealed commit watermark.
    #[must_use]
    pub fn watermark(&self) -> BlockNumber {
        BlockNumber(self.watermark)
    }

    /// Ledger head hash at the watermark.
    #[must_use]
    pub fn head(&self) -> Hash32 {
        self.head
    }

    /// WAL segment files currently on disk.
    #[must_use]
    pub fn wal_segments(&self) -> usize {
        self.wal.segment_count()
    }

    /// Accumulated durability counters (fsyncs across WAL, block store,
    /// and checkpoints; WAL bytes; checkpoints; recovery replay length).
    #[must_use]
    pub fn stats(&self) -> DurabilityStats {
        DurabilityStats {
            wal_bytes_written: self.wal.bytes_written(),
            fsync_count: self.wal.fsyncs() + self.blocks.fsyncs() + self.checkpoint_fsyncs,
            checkpoint_count: self.checkpoints_written,
            recovery_replay_len: self.replay_len,
        }
    }
}

fn copy_dir_all(src: &Path, dst: &Path) -> io::Result<()> {
    fs::create_dir_all(dst)?;
    for entry in fs::read_dir(src)? {
        let entry = entry?;
        let to = dst.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir_all(&entry.path(), &to)?;
        } else {
            fs::copy(entry.path(), &to)?;
        }
    }
    Ok(())
}

/// Startup state transfer for a whole cluster data directory: recovers
/// every existing `node-<id>` store among `sources`, picks the one with
/// the highest sealed watermark (nodes crash at different points; all
/// persisted chains are prefixes of the same deterministic chain), and
/// copies it over every other node directory in `sources` and
/// `targets`, so the restarted cluster resumes from one consistent
/// watermark. Returns that watermark.
///
/// `sources` must be nodes whose stores carry transaction effects
/// (executor peers); `targets` are chain-only nodes (orderers) that
/// receive the winning store but never compete to provide it — an
/// orderer's store has no effects, so recovering an executor from it
/// would lose the datastore.
///
/// This is the file-level analogue of the block-synchronisation a real
/// deployment performs at startup; mid-run retransmission remains out
/// of scope (DESIGN.md §9).
///
/// # Errors
///
/// Any I/O failure, or `InvalidData` if a store is internally
/// inconsistent.
pub fn reconcile_cluster(
    base: &Path,
    sources: &[u32],
    targets: &[u32],
    config: DurabilityConfig,
) -> io::Result<BlockNumber> {
    let mut best: Option<(u64, PathBuf)> = None;
    for &node in sources {
        let dir = Store::node_dir(base, node);
        if !dir.exists() {
            continue;
        }
        let (store, _) = Store::open(&dir, config)?;
        let watermark = store.watermark().0;
        drop(store);
        if best.as_ref().is_none_or(|(w, _)| watermark > *w) {
            best = Some((watermark, dir));
        }
    }
    let Some((watermark, winner)) = best else {
        return Ok(BlockNumber(0));
    };
    for &node in sources.iter().chain(targets) {
        let dir = Store::node_dir(base, node);
        if dir == winner {
            continue;
        }
        if dir.exists() {
            fs::remove_dir_all(&dir)?;
        }
        copy_dir_all(&winner, &dir)?;
    }
    Ok(BlockNumber(watermark))
}

#[cfg(test)]
mod tests {
    use parblock_crypto::hash_wire;
    use parblock_types::{AppId, ClientId, RwSet, SeqNo, Transaction};

    use super::*;
    use crate::testutil::TempDir;

    fn tx(ts: u64) -> Transaction {
        Transaction::new(AppId(0), ClientId(1), ts, RwSet::default(), vec![])
    }

    fn config() -> DurabilityConfig {
        DurabilityConfig {
            flush_interval: 4,
            checkpoint_interval: 2,
        }
    }

    /// Runs `n` blocks through a store: each block writes Key(b) =
    /// Int(b) and re-writes Key(0), then goes through the seal, prune
    /// and checkpoint sequence an OXII executor runs.
    fn drive(store: &mut Store, state: &mut MvccState, ledger: &mut Ledger, n: u64) {
        let start = ledger.next_number().0;
        for b in start..start + n {
            let version = Version::new(BlockNumber(b), SeqNo(0));
            let writes = vec![(Key(b), Value::Int(b as i64)), (Key(0), Value::Int(b as i64))];
            store.log_effects(version, &writes).expect("log");
            state.apply(writes, version);
            let block = Block::new(BlockNumber(b), ledger.head_hash(), vec![tx(b)]);
            let head = hash_wire(&block);
            store.seal_block(&block, None, head).expect("seal");
            ledger.append(block).expect("append");
            prune_to_sealed(ledger.block(BlockNumber(b)).expect("present"), state);
            if store.checkpoint_due() {
                let snapshot = state.snapshot_at(Version::new(BlockNumber(b), SeqNo(u32::MAX)));
                store.write_checkpoint(snapshot).expect("checkpoint");
            }
        }
    }

    #[test]
    fn recover_matches_live_state_and_chain() {
        let tmp = TempDir::new("store-recover");
        let (live_state, live_ledger) = {
            let (mut store, recovered) = Store::open(tmp.path(), config()).expect("open");
            assert!(recovered.is_empty());
            let mut state = MvccState::with_genesis([(Key(99), Value::Int(-1))]);
            let mut ledger = Ledger::new();
            drive(&mut store, &mut state, &mut ledger, 5);
            assert!(store.stats().checkpoint_count >= 2);
            assert_eq!(state.version_count(Key(0)), 1, "each seal pruned Key(0)");
            (state, ledger)
        };
        let (store, recovered) = Store::open(tmp.path(), config()).expect("reopen");
        assert_eq!(recovered.watermark, BlockNumber(5));
        assert_eq!(recovered.head, live_ledger.head_hash());
        let ledger = recovered.ledger().expect("chain verifies");
        assert_eq!(ledger.head_hash(), live_ledger.head_hash());
        let mut state = MvccState::with_genesis([(Key(99), Value::Int(-1))]);
        recovered.overlay_state(&mut state);
        assert_eq!(state.digest(), live_state.digest());
        assert_eq!(state.total_versions(), live_state.total_versions());
        assert!(store.stats().recovery_replay_len > 0);
    }

    #[test]
    fn unsealed_suffix_is_dropped() {
        let tmp = TempDir::new("store-suffix");
        {
            let (mut store, _) = Store::open(tmp.path(), config()).expect("open");
            let mut state = MvccState::new();
            let mut ledger = Ledger::new();
            drive(&mut store, &mut state, &mut ledger, 2);
            // Effects of an in-flight block 3 that never seals.
            store
                .log_effects(
                    Version::new(BlockNumber(3), SeqNo(0)),
                    &[(Key(7), Value::Int(777))],
                )
                .expect("log");
            store.wal.sync().expect("sync");
        }
        let (_, recovered) = Store::open(tmp.path(), config()).expect("reopen");
        assert_eq!(recovered.watermark, BlockNumber(2));
        let mut state = MvccState::new();
        recovered.overlay_state(&mut state);
        assert_eq!(state.latest(Key(7)), Value::Unit, "uncommitted write leaked");
    }

    #[test]
    fn orphan_body_is_trimmed() {
        let tmp = TempDir::new("store-orphan");
        let reference = {
            let (mut store, _) = Store::open(tmp.path(), config()).expect("open");
            let mut state = MvccState::new();
            let mut ledger = Ledger::new();
            drive(&mut store, &mut state, &mut ledger, 2);
            // Body for block 3 lands but the crash hits before its seal
            // record: append directly to the block file.
            let block = Block::new(BlockNumber(3), ledger.head_hash(), vec![tx(3)]);
            store.blocks.append(&block, None).expect("body");
            ledger
        };
        let (store, recovered) = Store::open(tmp.path(), config()).expect("reopen");
        assert_eq!(recovered.watermark, BlockNumber(2));
        assert_eq!(recovered.chain.len(), 2);
        assert_eq!(recovered.head, reference.block(BlockNumber(2)).map(hash_wire).expect("b2"));
        drop(store);
        // And sealing block 3 afterwards works (the body slot is free).
        let (mut store, recovered) = Store::open(tmp.path(), config()).expect("reopen 2");
        let ledger = recovered.ledger().expect("verifies");
        let block = Block::new(BlockNumber(3), ledger.head_hash(), vec![tx(3)]);
        let head = hash_wire(&block);
        store.seal_block(&block, None, head).expect("seal");
        assert_eq!(store.watermark(), BlockNumber(3));
    }

    #[test]
    fn wal_truncation_bounds_segments() {
        let tmp = TempDir::new("store-truncate");
        let (mut store, _) = Store::open(tmp.path(), config()).expect("open");
        let mut state = MvccState::new();
        let mut ledger = Ledger::new();
        drive(&mut store, &mut state, &mut ledger, 20);
        // 10 checkpoints over 20 blocks: old segments must be deleted.
        assert!(store.stats().checkpoint_count >= 9);
        assert!(
            store.wal_segments() <= 3,
            "WAL not truncated: {} segments",
            store.wal_segments()
        );
    }

    #[test]
    fn reconcile_picks_the_most_advanced_node_and_copies_it() {
        let tmp = TempDir::new("store-reconcile");
        let mut heads = Vec::new();
        for (node, blocks) in [(0u32, 2u64), (1, 5), (2, 3)] {
            let dir = Store::node_dir(tmp.path(), node);
            let (mut store, _) = Store::open(&dir, config()).expect("open");
            let mut state = MvccState::new();
            let mut ledger = Ledger::new();
            drive(&mut store, &mut state, &mut ledger, blocks);
            heads.push(ledger.head_hash());
        }
        let watermark = reconcile_cluster(tmp.path(), &[0, 1, 2], &[3], config())
            .expect("reconcile");
        assert_eq!(watermark, BlockNumber(5));
        for node in [0u32, 1, 2, 3] {
            let dir = Store::node_dir(tmp.path(), node);
            let (_, recovered) = Store::open(&dir, config()).expect("open");
            assert_eq!(recovered.watermark, BlockNumber(5), "node {node}");
            assert_eq!(recovered.head, heads[1], "node {node}");
        }
    }

    #[test]
    fn reconcile_of_empty_base_is_zero() {
        let tmp = TempDir::new("store-reconcile-empty");
        assert_eq!(
            reconcile_cluster(tmp.path(), &[0, 1], &[], config()).expect("reconcile"),
            BlockNumber(0)
        );
    }
}
