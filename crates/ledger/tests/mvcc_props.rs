//! Property-based tests for [`MvccState`] — the invariants the execution
//! pipeline leans on (DESIGN.md §7): version-positioned reads, sorted
//! chains under arbitrary interleavings, and watermark GC that never
//! changes what a live reader can observe.

use proptest::prelude::*;

use parblock_ledger::{MvccState, Version};
use parblock_types::{BlockNumber, Key, SeqNo, Value};

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
