//! Property-based tests for [`MvccState`] — the invariants the execution
//! pipeline leans on (DESIGN.md §7): version-positioned reads, sorted
//! chains under arbitrary interleavings, and watermark GC that never
//! changes what a live reader can observe — and a model-based run that
//! holds every query to a naive versioned map after each step.

use std::collections::BTreeMap;

use proptest::prelude::*;

use parblock_ledger::{prune_to_sealed, MvccState, Version};
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

    /// GC below the watermark never changes any readable value: every
    /// read positioned at or above the horizon returns the same value
    /// before and after `prune`.
    #[test]
    fn prune_below_watermark_preserves_readable_values(
        puts in arb_puts(),
        horizon_block in 0u64..6,
        horizon_seq in 0u32..7,
    ) {
        let horizon = v(horizon_block, horizon_seq);
        let before = build(&puts);
        let mut after = build(&puts);
        after.prune(horizon);
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
                    "read of {:?} at {:?} changed by prune({:?})", key, position, horizon
                );
            }
        }
    }

    /// The latest value — and hence the state digest — is untouched by
    /// pruning at any horizon.
    #[test]
    fn prune_never_changes_latest_or_digest(
        puts in arb_puts(),
        horizon_block in 0u64..6,
    ) {
        let before = build(&puts);
        let mut after = build(&puts);
        after.prune(v(horizon_block, 0));
        for key in (0u64..4).map(Key) {
            prop_assert_eq!(after.latest(key), before.latest(key));
        }
        prop_assert_eq!(after.digest(), before.digest());
    }
}

/// One step of a model-based run.
#[derive(Debug, Clone)]
enum Op {
    Put(Key, Version, Value),
    Prune(Version),
    PruneToSealed(u64),
}

/// Strategy: mostly puts on a grid small enough that versions repeat
/// and arrive below a key's newest, with prunes at arbitrary horizons
/// and seals of arbitrary blocks mixed in.
fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    let op = ((0u8..8, 0u64..4), 0u64..5, 0u32..4, 0u64..50).prop_map(
        |((kind, key), block, seq, val)| match kind {
            0..=5 => Op::Put(Key(key), v(block, seq), Value::Int(val as i64)),
            6 => Op::Prune(v(block, seq)),
            _ => Op::PruneToSealed(block),
        },
    );
    proptest::collection::vec(op, 0..60)
}

/// The naive reference: every stored version of every key in one
/// ordered map.
#[derive(Default)]
struct Model(BTreeMap<(Key, Version), Value>);

impl Model {
    /// The versions of `key` at or below `position`, ascending.
    fn versions(
        &self,
        key: Key,
        position: Version,
    ) -> impl DoubleEndedIterator<Item = (Version, &Value)> {
        self.0
            .range((key, Version::GENESIS)..=(key, position))
            .map(|((_, ver), val)| (*ver, val))
    }

    fn get_at(&self, key: Key, position: Version) -> Option<(Version, &Value)> {
        self.versions(key, position).next_back()
    }

    /// Drops, per key, every version below the newest one at or below
    /// `horizon`.
    fn prune(&mut self, horizon: Version) {
        for key in KEYS.map(Key) {
            if let Some((keep, _)) = self.get_at(key, horizon) {
                self.0.retain(|(k, ver), _| *k != key || *ver >= keep);
            }
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

/// Every reader position the grid can tell apart, plus the far future.
fn positions() -> Vec<Version> {
    let mut all: Vec<Version> = (0u64..6)
        .flat_map(|block| (0u32..4).chain([u32::MAX]).map(move |seq| v(block, seq)))
        .collect();
    all.push(v(u64::MAX, u32::MAX));
    all
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// After every step of a random sequence of puts (out of order,
    /// repeated versions), prunes and seals, the store answers every
    /// query exactly as the naive model does.
    #[test]
    fn store_matches_a_naive_versioned_map(ops in arb_ops()) {
        let mut state = MvccState::new();
        let mut model = Model::default();
        for op in ops {
            match op {
                Op::Put(key, ver, val) => {
                    state.put(key, val.clone(), ver);
                    model.0.insert((key, ver), val);
                }
                Op::Prune(horizon) => {
                    state.prune(horizon);
                    model.prune(horizon);
                }
                Op::PruneToSealed(block) => {
                    let sealed = Block::new(BlockNumber(block), Hash32::ZERO, vec![]);
                    prune_to_sealed(&sealed, &mut state);
                    model.prune(v(block, u32::MAX));
                }
            }
            prop_assert_eq!(state.total_versions(), model.0.len());
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
