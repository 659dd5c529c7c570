//! Property-based tests for [`MvccState`] — the invariants the execution
//! pipeline leans on (DESIGN.md §7): version-positioned reads, sorted
//! chains under arbitrary interleavings, and seals that never change
//! what a live reader can observe — and a model-based run that holds
//! every query to a naive versioned map with a watermark after each step,
//! and replicas over one shared genesis table against replicas that each
//! hold their own copy.

use std::collections::BTreeMap;

use proptest::prelude::*;

use parblock_ledger::{prune_to_sealed, Genesis, MvccState, Version};
use parblock_types::{Block, BlockNumber, Hash32, Key, SeqNo, Value};

fn v(block: u64, seq: u32) -> Version {
    Version::new(BlockNumber(block), SeqNo(seq))
}

/// Strategy: an arbitrary interleaving of versioned puts over a small
/// key space. Versions are arbitrary (out-of-order arrival is the norm
/// for parallel executors); values are tagged so each (key, version)
/// write is distinguishable.
fn arb_puts() -> impl Strategy<Value = Vec<(Key, Version, Value)>> {
    proptest::collection::vec((0u64..4, 0u64..5, 0u32..6, 0u64..200), 0..40).prop_map(|specs| {
        specs
            .into_iter()
            .map(|(key, block, seq, val)| {
                (Key(key), v(block, seq), Value::Int(val as i64 - 100))
            })
            .collect()
    })
}

/// Reference model: the latest value among writes with version ≤ position,
/// where a later put to the same (key, version) replaces the earlier one.
fn model_read_at(puts: &[(Key, Version, Value)], key: Key, position: Version) -> Option<Value> {
    let mut best: Option<(Version, &Value)> = None;
    for (k, ver, val) in puts {
        if *k != key || *ver > position {
            continue;
        }
        // `>=` so the last put at an equal version wins (idempotent
        // re-execution replaces).
        if best.is_none_or(|(bv, _)| *ver >= bv) {
            best = Some((*ver, val));
        }
    }
    best.map(|(_, val)| val.clone())
}

fn build(puts: &[(Key, Version, Value)]) -> MvccState {
    let mut state = MvccState::new();
    for (k, ver, val) in puts {
        state.put(*k, val.clone(), *ver);
    }
    state
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `read_at` always returns the value of the greatest version ≤ the
    /// reader position (`None`/Unit when no such version exists).
    #[test]
    fn read_at_returns_greatest_version_at_or_below(
        puts in arb_puts(),
        key in (0u64..4).prop_map(Key),
        block in 0u64..6,
        seq in 0u32..7,
    ) {
        let state = build(&puts);
        let position = v(block, seq);
        let expected = model_read_at(&puts, key, position);
        prop_assert_eq!(state.get_at(key, position), expected.clone());
        prop_assert_eq!(state.read_at(key, position), expected.unwrap_or_default());
    }

    /// Version chains stay strictly sorted (and duplicate-free) under
    /// arbitrary interleaved puts.
    #[test]
    fn chains_stay_sorted_under_interleaved_puts(puts in arb_puts()) {
        let state = build(&puts);
        for key in (0u64..4).map(Key) {
            let versions = state.versions_of(key);
            prop_assert!(
                versions.windows(2).all(|w| w[0] < w[1]),
                "chain of {:?} not strictly ascending: {:?}", key, versions
            );
        }
    }

    /// A seal never changes any readable value: every read positioned at
    /// or above the end of the sealed block returns the same value before
    /// and after `prune_to_sealed`.
    #[test]
    fn prune_below_watermark_preserves_readable_values(
        puts in arb_puts(),
        sealed_block in 0u64..6,
    ) {
        let horizon = v(sealed_block, u32::MAX);
        let before = build(&puts);
        let mut after = build(&puts);
        prune_to_sealed(&block(sealed_block), &mut after);
        prop_assert!(after.total_versions() <= before.total_versions());
        for key in (0u64..4).map(Key) {
            // All reader positions ≥ horizon, sampled on the version grid
            // (plus the horizon itself and a far-future position).
            let mut positions = vec![horizon, v(u64::MAX, u32::MAX)];
            positions.extend(
                before.versions_of(key).into_iter().filter(|ver| *ver >= horizon),
            );
            for position in positions {
                prop_assert_eq!(
                    after.get_at(key, position),
                    before.get_at(key, position),
                    "read of {:?} at {:?} changed by sealing block {}", key, position, sealed_block
                );
            }
        }
    }

    /// The latest value — and hence the state digest — is untouched by
    /// sealing any block.
    #[test]
    fn prune_never_changes_latest_or_digest(
        puts in arb_puts(),
        sealed_block in 0u64..6,
    ) {
        let before = build(&puts);
        let mut after = build(&puts);
        prune_to_sealed(&block(sealed_block), &mut after);
        for key in (0u64..4).map(Key) {
            prop_assert_eq!(after.latest(key), before.latest(key));
        }
        prop_assert_eq!(after.digest(), before.digest());
    }
}

fn block(number: u64) -> Block {
    Block::new(BlockNumber(number), Hash32::ZERO, vec![])
}

/// One step of a model-based run.
#[derive(Debug, Clone)]
enum Op {
    Put(Key, Version, Value),
    /// A put into the first (`ahead` = 1) or second open block above the
    /// watermark at the time it runs.
    PutOpen(Key, u64, SeqNo, Value),
    PruneToSealed(u64),
}

/// Strategy: mostly puts on a grid small enough that versions repeat
/// and arrive below a key's newest, at or below the watermark as well
/// as out of order within and across the two lowest open blocks, with
/// seals of arbitrary blocks mixed in.
fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    let op = ((0u8..8, 0u64..4), 0u64..5, 0u32..4, 0u64..50).prop_map(
        |((kind, key), block, seq, val)| match kind {
            0..=2 => Op::Put(Key(key), v(block, seq), Value::Int(val as i64)),
            3..=5 => Op::PutOpen(Key(key), 1 + block % 2, SeqNo(seq), Value::Int(val as i64)),
            _ => Op::PruneToSealed(block),
        },
    );
    proptest::collection::vec(op, 0..60)
}

/// The naive reference: every stored version of every key in one
/// ordered map, and the newest sealed block.
#[derive(Default)]
struct Model {
    stored: BTreeMap<(Key, Version), Value>,
    watermark: Option<u64>,
}

impl Model {
    /// The versions of `key` at or below `position`, ascending.
    fn versions(
        &self,
        key: Key,
        position: Version,
    ) -> impl DoubleEndedIterator<Item = (Version, &Value)> {
        self.stored
            .range((key, Version::GENESIS)..=(key, position))
            .map(|((_, ver), val)| (*ver, val))
    }

    fn get_at(&self, key: Key, position: Version) -> Option<(Version, &Value)> {
        self.versions(key, position).next_back()
    }

    /// Drops, per key, every version below the newest one at or below
    /// the end of the watermark block.
    fn prune(&mut self) {
        let Some(watermark) = self.watermark else {
            return;
        };
        for key in KEYS.map(Key) {
            if let Some((keep, _)) = self.get_at(key, v(watermark, u32::MAX)) {
                self.stored.retain(|(k, ver), _| *k != key || *ver >= keep);
            }
        }
    }

    /// A put at or below the watermark keeps only the newest sealed
    /// version of its key.
    fn put(&mut self, key: Key, ver: Version, val: Value) {
        self.stored.insert((key, ver), val);
        self.prune();
    }

    /// A seal at or below the watermark is a no-op; one above it prunes
    /// at the sealed block's end.
    fn seal(&mut self, block: u64) {
        if Some(block) > self.watermark {
            self.watermark = Some(block);
            self.prune();
        }
    }

    fn snapshot_at(&self, horizon: Version) -> Vec<(Key, Value, Version)> {
        KEYS.map(Key)
            .into_iter()
            .filter_map(|key| {
                self.get_at(key, horizon)
                    .map(|(ver, val)| (key, val.clone(), ver))
            })
            .collect()
    }
}

const KEYS: [u64; 4] = [0, 1, 2, 3];

/// Every reader position the grid can tell apart (seals reach block 4
/// and open-block puts two blocks above), plus the far future.
fn positions() -> Vec<Version> {
    let mut all: Vec<Version> = (0u64..8)
        .flat_map(|block| (0u32..4).chain([u32::MAX]).map(move |seq| v(block, seq)))
        .collect();
    all.push(v(u64::MAX, u32::MAX));
    all
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// After every step of a random sequence of puts (out of order,
    /// repeated versions, below and above the watermark) and seals, the
    /// store answers every query exactly as the naive model does.
    #[test]
    fn store_matches_a_naive_versioned_map(ops in arb_ops()) {
        let mut state = MvccState::new();
        let mut model = Model::default();
        for op in ops {
            match op {
                Op::Put(key, ver, val) => {
                    state.put(key, val.clone(), ver);
                    model.put(key, ver, val);
                }
                Op::PutOpen(key, ahead, seq, val) => {
                    let first_open = model.watermark.map_or(0, |w| w + 1);
                    let ver = Version::new(BlockNumber(first_open + ahead - 1), seq);
                    state.put(key, val.clone(), ver);
                    model.put(key, ver, val);
                }
                Op::PruneToSealed(number) => {
                    prune_to_sealed(&block(number), &mut state);
                    model.seal(number);
                }
            }
            prop_assert_eq!(state.total_versions(), model.stored.len());
            for key in KEYS.map(Key) {
                let versions: Vec<Version> =
                    model.versions(key, v(u64::MAX, u32::MAX)).map(|(ver, _)| ver).collect();
                prop_assert_eq!(state.versions_of(key), versions.clone());
                prop_assert_eq!(state.version_count(key), versions.len());
                prop_assert_eq!(state.latest_version(key), versions.last().copied());
                for position in positions() {
                    let expected = model.get_at(key, position).map(|(_, val)| val.clone());
                    prop_assert_eq!(state.get_at(key, position), expected);
                }
            }
            for horizon in positions() {
                let snapshot = model.snapshot_at(horizon);
                // Digests hash; checking them at block ends (the seal
                // watermarks) keeps the run short.
                if horizon.seq == SeqNo(u32::MAX) {
                    let mut visible = MvccState::new();
                    for (key, val, ver) in &snapshot {
                        visible.put(*key, val.clone(), *ver);
                    }
                    prop_assert_eq!(state.digest_at(horizon), visible.digest());
                }
                prop_assert_eq!(state.snapshot_at(horizon), snapshot);
            }
        }
    }
}

/// Strategy: genesis entries over six keys, two of which no operation of
/// [`arb_ops`] writes, with repeated keys (the last value wins).
fn arb_genesis() -> impl Strategy<Value = Vec<(Key, Value)>> {
    let entry =
        (0u64..6, 0u64..50).prop_map(|(key, val)| (Key(key), Value::Int(1_000 + val as i64)));
    proptest::collection::vec(entry, 0..10)
}

/// A replica holding its own copy of `genesis`: every entry put at
/// [`Version::GENESIS`] into its sealed versions, block 0 sealed.
fn private_copy(genesis: &[(Key, Value)]) -> MvccState {
    let mut state = MvccState::new();
    for (key, val) in genesis {
        state.put(*key, val.clone(), Version::GENESIS);
    }
    prune_to_sealed(&block(0), &mut state);
    state
}

/// Everything a reader can ask of a store, over every key either
/// strategy names and every position the grid tells apart.
#[derive(Debug, PartialEq)]
struct Observed {
    reads: Vec<Option<Value>>,
    latest: Vec<Option<Version>>,
    versions: Vec<Vec<Version>>,
    total: usize,
    digests: Vec<Hash32>,
    snapshots: Vec<Vec<(Key, Value, Version)>>,
}

fn observe(state: &MvccState) -> Observed {
    let keys = || (0u64..6).map(Key);
    let positions = positions();
    let block_ends = positions.iter().filter(|at| at.seq == SeqNo(u32::MAX));
    Observed {
        reads: keys()
            .flat_map(|key| positions.iter().map(move |&at| (key, at)))
            .map(|(key, at)| state.get_at(key, at))
            .collect(),
        latest: keys().map(|key| state.latest_version(key)).collect(),
        versions: keys().map(|key| state.versions_of(key)).collect(),
        total: state.total_versions(),
        digests: block_ends.map(|&at| state.digest_at(at)).collect(),
        snapshots: positions.iter().map(|&at| state.snapshot_at(at)).collect(),
    }
}

/// Applies `op` to `state`, whose newest sealed block is `watermark`.
fn apply(state: &mut MvccState, watermark: u64, op: &Op) {
    match op {
        Op::Put(key, ver, val) => state.put(*key, val.clone(), *ver),
        Op::PutOpen(key, ahead, seq, val) => {
            let ver = Version::new(BlockNumber(watermark + ahead), *seq);
            state.put(*key, val.clone(), ver);
        }
        Op::PruneToSealed(number) => prune_to_sealed(&block(*number), state),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Two replicas over one [`Genesis`] table answer every query as two
    /// replicas holding private copies of the same entries do, after
    /// every step of a random run of puts (below, at and above the
    /// watermark, genesis keys included) and seals. While the run writes
    /// only the first replica, the second reads as a fresh state; then
    /// the same run brings the second to the same answers.
    #[test]
    fn replicas_over_one_genesis_table_match_private_copies(
        genesis in arb_genesis(),
        ops in arb_ops(),
    ) {
        let table = Genesis::new(genesis.iter().cloned());
        let mut shared = [MvccState::over(table.clone()), MvccState::over(table)];
        let mut private = [private_copy(&genesis), private_copy(&genesis)];
        let fresh = observe(&private[1]);
        prop_assert_eq!(&observe(&shared[0]), &fresh);
        for replica in 0..2 {
            let mut watermark = 0;
            for op in &ops {
                apply(&mut shared[replica], watermark, op);
                apply(&mut private[replica], watermark, op);
                if let Op::PruneToSealed(number) = op {
                    watermark = watermark.max(*number);
                }
                prop_assert_eq!(observe(&shared[replica]), observe(&private[replica]));
                if replica == 0 {
                    prop_assert_eq!(&observe(&shared[1]), &fresh);
                }
            }
        }
        prop_assert_eq!(observe(&shared[0]), observe(&shared[1]));
    }
}
