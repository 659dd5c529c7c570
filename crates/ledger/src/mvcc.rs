//! The blockchain state: a multi-version key-value store.
//!
//! §III-A: "The dependency graph generator … can also be adapted to a
//! multi-version database system. In a multi-version database, each write
//! creates a new version of a data item, and reads are directed to the
//! correct version based on the position of the corresponding transaction
//! in the block (log)."

use std::cmp::Ordering;
use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use serde::{Deserialize, Serialize};

use parblock_types::wire::Wire;
use parblock_types::{Block, BlockNumber, Hash32, Key, SeqNo, Value};

/// The version of a record: the block and in-block position of the
/// transaction that wrote it (Fabric-style `(block, tx)` versions).
///
/// XOV endorsers record the versions they read; the validation phase
/// aborts a transaction whose read versions are stale.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct Version {
    /// Block of the writing transaction.
    pub block: BlockNumber,
    /// In-block position of the writing transaction.
    pub seq: SeqNo,
}

impl Version {
    /// Creates a version stamp.
    #[must_use]
    pub fn new(block: BlockNumber, seq: SeqNo) -> Self {
        Version { block, seq }
    }

    /// The version of values present before any block executed.
    pub const GENESIS: Version = Version {
        block: BlockNumber(0),
        seq: SeqNo(0),
    };
}

/// SipHash under fixed keys, as `parblock_depgraph::CrossBlockIndex`
/// hashes: a map that churns inserts and removals under a per-process
/// `RandomState` grows its table at points that depend on where its
/// entries hash, so its allocations would differ from run to run
/// (`tests/alloc_budget.rs`).
type FixedState = BuildHasherDefault<DefaultHasher>;

/// A store keeping every written version of each key. Every paradigm's
/// executors hold their state in one: OXII reads it at each
/// transaction's log position, OX at its serial position, XOV at its
/// ledger head.
///
/// The newest version of each key is stored inline in one map; only a
/// key that still holds versions below its newest (written since the
/// last prune, or out of order) has a history vector beside it. After a
/// seal ([`prune_to_sealed`]) most keys hold exactly one version, so
/// most keys cost no allocation of their own.
///
/// # Examples
///
/// ```
/// use parblock_ledger::{MvccState, Version};
/// use parblock_types::{BlockNumber, Key, SeqNo, Value};
///
/// let mut state = MvccState::new();
/// let v1 = Version::new(BlockNumber(1), SeqNo(0));
/// let v2 = Version::new(BlockNumber(1), SeqNo(5));
/// state.put(Key(1), Value::Int(10), v1);
/// state.put(Key(1), Value::Int(20), v2);
/// // A reader positioned between the writes sees the first version.
/// let between = Version::new(BlockNumber(1), SeqNo(3));
/// assert_eq!(state.read_at(Key(1), between), Value::Int(10));
/// assert_eq!(state.latest(Key(1)), Value::Int(20));
/// ```
#[derive(Debug, Clone, Default)]
pub struct MvccState {
    /// The newest version of every key ever written, and its value.
    latest: HashMap<Key, (Version, Value)>,
    /// For each key with versions below its newest: those versions,
    /// sorted ascending.
    older: HashMap<Key, Vec<(Version, Value)>, FixedState>,
}

impl MvccState {
    /// Creates an empty store.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a store pre-loaded with genesis values.
    pub fn with_genesis<I: IntoIterator<Item = (Key, Value)>>(items: I) -> Self {
        let items = items.into_iter();
        let mut state = Self::new();
        // Sized once: growing by doubling would hold two tables at once.
        state.latest.reserve(items.size_hint().0);
        for (k, v) in items {
            state.put(k, v, Version::GENESIS);
        }
        state
    }

    /// Writes a new version of `key`.
    ///
    /// Versions may arrive out of order (parallel executors): the history
    /// is kept sorted by version. Writing the same version twice replaces
    /// the value (idempotent re-execution).
    pub fn put(&mut self, key: Key, value: Value, version: Version) {
        let mut newest = match self.latest.entry(key) {
            Entry::Vacant(slot) => {
                slot.insert((version, value));
                return;
            }
            Entry::Occupied(newest) => newest,
        };
        match version.cmp(&newest.get().0) {
            Ordering::Equal => newest.get_mut().1 = value,
            Ordering::Greater => {
                let previous = newest.insert((version, value));
                self.older.entry(key).or_default().push(previous);
            }
            Ordering::Less => {
                let history = self.older.entry(key).or_default();
                match history.binary_search_by_key(&version, |(v, _)| *v) {
                    Ok(i) => history[i].1 = value,
                    Err(i) => history.insert(i, (version, value)),
                }
            }
        }
    }

    /// Applies a batch of writes, all stamped with `version`.
    pub fn apply<I: IntoIterator<Item = (Key, Value)>>(&mut self, writes: I, version: Version) {
        for (k, v) in writes {
            self.put(k, v, version);
        }
    }

    /// Reads the value of `key` visible at `position`: the latest version
    /// `≤ position`. Returns [`Value::Unit`] if no such version exists.
    #[must_use]
    pub fn read_at(&self, key: Key, position: Version) -> Value {
        self.get_at(key, position).unwrap_or_default()
    }

    /// Reads the value of `key` visible at `position`, distinguishing a
    /// key with **no version** at or below the position (`None`) from one
    /// explicitly holding a value — the presence signal contract aborts on
    /// missing state are built from.
    #[must_use]
    pub fn get_at(&self, key: Key, position: Version) -> Option<Value> {
        self.visible(key, position).map(|(_, value)| value.clone())
    }

    /// The newest version of `key` at or below `position`, and its value:
    /// the inline newest version when it qualifies, otherwise a binary
    /// search of the key's history.
    fn visible(&self, key: Key, position: Version) -> Option<&(Version, Value)> {
        let newest = self.latest.get(&key)?;
        if newest.0 <= position {
            return Some(newest);
        }
        let history = self.older.get(&key)?;
        let below = history.partition_point(|(v, _)| *v <= position);
        below.checked_sub(1).map(|i| &history[i])
    }

    /// Reads the newest version of `key`.
    #[must_use]
    pub fn latest(&self, key: Key) -> Value {
        self.latest
            .get(&key)
            .map(|(_, v)| v.clone())
            .unwrap_or_default()
    }

    /// The newest version of `key`, if it was ever written: the read
    /// version an XOV endorser records and its validator checks.
    #[must_use]
    pub fn latest_version(&self, key: Key) -> Option<Version> {
        self.latest.get(&key).map(|(v, _)| *v)
    }

    /// Number of stored versions of `key`.
    #[must_use]
    pub fn version_count(&self, key: Key) -> usize {
        if !self.latest.contains_key(&key) {
            return 0;
        }
        1 + self.older.get(&key).map_or(0, Vec::len)
    }

    /// The versions of `key`, ascending (empty if the key was never
    /// written). Exposed for invariant checks and tests.
    #[must_use]
    pub fn versions_of(&self, key: Key) -> Vec<Version> {
        let history = self.older.get(&key).into_iter().flatten();
        let newest = self.latest.get(&key);
        history.chain(newest).map(|(v, _)| *v).collect()
    }

    /// Total number of stored versions across all keys — the quantity the
    /// commit-watermark garbage collection bounds.
    #[must_use]
    pub fn total_versions(&self) -> usize {
        self.latest.len() + self.older.values().map(Vec::len).sum::<usize>()
    }

    /// Per key, the newest version at or below `horizon` and its value,
    /// in hash order.
    fn visible_at(&self, horizon: Version) -> impl Iterator<Item = (Key, &(Version, Value))> {
        self.latest
            .keys()
            .filter_map(move |&key| self.visible(key, horizon).map(|entry| (key, entry)))
    }

    /// A digest of the **latest** values (keys and contents, not version
    /// histories): two stores that converged to the same key→value
    /// mapping share a digest, whatever writes produced it.
    #[must_use]
    pub fn digest(&self) -> Hash32 {
        self.digest_at(Version::new(BlockNumber(u64::MAX), SeqNo(u32::MAX)))
    }

    /// A digest of the values visible at `horizon` (the newest version at
    /// or below it per key), byte-compatible with [`MvccState::digest`].
    /// A replica whose commit watermark stopped at block `w` is
    /// prefix-consistent with a reference replay iff its `digest_at` the
    /// watermark equals the replay's digest at height `w` — even when the
    /// replica has already applied quorum-voted writes from later,
    /// still-in-flight blocks.
    #[must_use]
    pub fn digest_at(&self, horizon: Version) -> Hash32 {
        // Hash order is harmless: digest_entries sorts by key before hashing.
        digest_entries(self.visible_at(horizon).map(|(key, (_, value))| (key, value)))
    }

    /// The newest version at or below `horizon` for every key, i.e. the
    /// state a reader positioned exactly at the horizon observes. This is
    /// the snapshot a durability checkpoint persists: versions above the
    /// horizon belong to still-in-flight blocks and must not be captured.
    /// Entries are sorted by key so the snapshot bytes are canonical.
    #[must_use]
    pub fn snapshot_at(&self, horizon: Version) -> Vec<(Key, Value, Version)> {
        let mut entries: Vec<(Key, Value, Version)> = self
            .visible_at(horizon)
            .map(|(key, (version, value))| (key, value.clone(), *version))
            .collect();
        entries.sort_unstable_by_key(|(k, _, _)| *k);
        entries
    }

    /// Garbage-collects versions strictly older than `horizon`, keeping at
    /// least the newest version at or below the horizon (it is still
    /// visible to readers positioned at the horizon).
    ///
    /// Only keys with a history are visited, each on its own, so the
    /// visit order changes nothing. A key whose newest version is at or
    /// below the horizon loses its whole history.
    pub fn prune(&mut self, horizon: Version) {
        let latest = &self.latest;
        self.older.retain(|key, history| {
            if latest.get(key).is_some_and(|(newest, _)| *newest <= horizon) {
                return false;
            }
            // Index of the first version > horizon.
            let first_after = history.partition_point(|(v, _)| *v <= horizon);
            if first_after > 1 {
                history.drain(..first_after - 1);
            }
            true
        });
    }
}

/// Prunes `state` to the watermark a just-sealed block establishes:
/// every future reader is positioned in a later block, so only the
/// newest version at or below the end of this block stays reachable per
/// key. OX and OXII peers call it when they seal a block.
pub fn prune_to_sealed(block: &Block, state: &mut MvccState) {
    state.prune(Version::new(block.number(), SeqNo(u32::MAX)));
}

/// Version tag leading every state-digest preimage; bump it on any layout
/// change. (The unversioned layout before it hashed `Debug` renderings.)
const STATE_DIGEST_VERSION: u8 = 1;

/// Hashes a key→value mapping into the state digest: the version tag, then
/// per key in ascending order its bytes and the value's canonical [`Wire`]
/// encoding (tagged and length-prefixed, so the concatenation is
/// unambiguous), each entry written into one reused buffer.
fn digest_entries<'a, I>(entries: I) -> Hash32
where
    I: IntoIterator<Item = (Key, &'a Value)>,
{
    let mut entries: Vec<(Key, &Value)> = entries.into_iter().collect();
    entries.sort_by_key(|(k, _)| *k);
    let mut hasher = parblock_crypto::Sha256::new();
    hasher.update(&[STATE_DIGEST_VERSION]);
    let mut buf = Vec::new();
    for (key, value) in entries {
        buf.clear();
        key.0.encode(&mut buf);
        value.encode(&mut buf);
        hasher.update(&buf);
    }
    hasher.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(block: u64, seq: u32) -> Version {
        Version::new(BlockNumber(block), SeqNo(seq))
    }

    #[test]
    fn reads_route_to_correct_version() {
        let mut s = MvccState::new();
        s.put(Key(1), Value::Int(1), v(1, 1));
        s.put(Key(1), Value::Int(2), v(1, 5));
        s.put(Key(1), Value::Int(3), v(2, 0));
        assert_eq!(s.read_at(Key(1), v(1, 0)), Value::Unit);
        assert_eq!(s.read_at(Key(1), v(1, 1)), Value::Int(1));
        assert_eq!(s.read_at(Key(1), v(1, 4)), Value::Int(1));
        assert_eq!(s.read_at(Key(1), v(1, 5)), Value::Int(2));
        assert_eq!(s.read_at(Key(1), v(9, 9)), Value::Int(3));
        assert_eq!(s.latest(Key(1)), Value::Int(3));
    }

    #[test]
    fn out_of_order_writes_keep_chain_sorted() {
        let mut s = MvccState::new();
        s.put(Key(1), Value::Int(3), v(3, 0));
        s.put(Key(1), Value::Int(1), v(1, 0));
        s.put(Key(1), Value::Int(2), v(2, 0));
        assert_eq!(s.read_at(Key(1), v(2, 0)), Value::Int(2));
        assert_eq!(s.version_count(Key(1)), 3);
    }

    #[test]
    fn same_version_rewrite_is_idempotent() {
        let mut s = MvccState::new();
        s.put(Key(1), Value::Int(1), v(1, 0));
        s.put(Key(1), Value::Int(9), v(1, 0));
        assert_eq!(s.version_count(Key(1)), 1);
        assert_eq!(s.latest(Key(1)), Value::Int(9));
    }

    #[test]
    fn absent_keys_read_unit() {
        let s = MvccState::new();
        assert_eq!(s.read_at(Key(1), v(1, 0)), Value::Unit);
        assert_eq!(s.latest(Key(1)), Value::Unit);
        assert_eq!(s.version_count(Key(1)), 0);
    }

    #[test]
    fn prune_keeps_horizon_visibility() {
        let mut s = MvccState::new();
        for i in 1..=5 {
            s.put(Key(1), Value::Int(i as i64), v(i, 0));
        }
        s.prune(v(3, 0));
        // Versions 1 and 2 dropped; version 3 kept (visible at horizon).
        assert_eq!(s.version_count(Key(1)), 3);
        assert_eq!(s.read_at(Key(1), v(3, 0)), Value::Int(3));
        assert_eq!(s.read_at(Key(1), v(4, 0)), Value::Int(4));
    }

    /// Sealing block 2 collapses every version up to the end of block 2
    /// into the newest one and leaves later blocks' versions alone.
    #[test]
    fn prune_to_sealed_keeps_the_newest_version_of_the_sealed_prefix() {
        let mut s = MvccState::new();
        for block in 1..=3 {
            s.put(Key(1), Value::Int(block as i64), v(block, 0));
        }
        s.put(Key(1), Value::Int(22), v(2, 7));
        let sealed = Block::new(BlockNumber(2), Hash32::ZERO, vec![]);
        prune_to_sealed(&sealed, &mut s);
        assert_eq!(s.version_count(Key(1)), 2);
        assert_eq!(s.read_at(Key(1), v(2, u32::MAX)), Value::Int(22));
        assert_eq!(s.read_at(Key(1), v(3, 0)), Value::Int(3));
    }

    #[test]
    fn genesis_constructor() {
        let s = MvccState::with_genesis([(Key(1), Value::Int(7))]);
        assert_eq!(s.read_at(Key(1), Version::GENESIS), Value::Int(7));
    }

    #[test]
    fn get_at_distinguishes_absent_from_written_zero() {
        let mut s = MvccState::new();
        s.put(Key(1), Value::Int(0), v(1, 0));
        assert_eq!(s.get_at(Key(1), v(1, 0)), Some(Value::Int(0)));
        assert_eq!(s.get_at(Key(1), Version::GENESIS), None, "before the write");
        assert_eq!(s.get_at(Key(2), v(9, 0)), None, "never written");
        assert_eq!(s.read_at(Key(2), v(9, 0)), Value::Unit);
    }

    /// A store with a version history digests like one holding a single
    /// version per key with the same latest values.
    #[test]
    fn digest_matches_kv_state_on_same_mapping() {
        let mut mv = MvccState::new();
        mv.put(Key(1), Value::Int(1), v(1, 0));
        mv.put(Key(1), Value::Int(7), v(2, 3)); // history differs, latest wins
        mv.put(Key(2), Value::Int(2), v(1, 1));
        let mut kv = MvccState::new();
        kv.put(Key(1), Value::Int(7), v(5, 5));
        kv.put(Key(2), Value::Int(2), v(1, 1));
        assert_eq!(mv.digest(), kv.digest());
        mv.put(Key(2), Value::Int(3), v(3, 0));
        assert_ne!(mv.digest(), kv.digest());
    }

    /// Pins the state-digest preimage. If this golden value moves,
    /// `STATE_DIGEST_VERSION` must be bumped in the same change, and every
    /// pinned `RunReport` digest re-pinned with it.
    #[test]
    fn state_digest_is_pinned_and_not_debug_rendered() {
        let state = MvccState::with_genesis([
            (Key(2), Value::Text("paid".into())),
            (Key(1), Value::Int(5)),
        ]);
        assert_eq!(
            state.digest().to_hex(),
            "25d5b08905047d522f2afcc6e820f4c545f03055e4203be269cb124c4d0c196c"
        );
        let mut debug_rendered = parblock_crypto::Sha256::new();
        debug_rendered.update(&1u64.to_le_bytes());
        debug_rendered.update(b"Int(5)");
        debug_rendered.update(&2u64.to_le_bytes());
        debug_rendered.update(b"Text(\"paid\")");
        assert_ne!(state.digest(), debug_rendered.finalize());
    }

    #[test]
    fn digest_at_matches_a_store_truncated_at_the_horizon() {
        let mut s = MvccState::new();
        s.put(Key(1), Value::Int(10), v(1, 0));
        s.put(Key(2), Value::Int(20), v(1, 1));
        s.put(Key(1), Value::Int(11), v(2, 0)); // beyond the horizon
        s.put(Key(3), Value::Int(30), v(3, 0)); // entirely beyond
        let mut truncated = MvccState::new();
        truncated.put(Key(1), Value::Int(10), v(1, 0));
        truncated.put(Key(2), Value::Int(20), v(1, 1));
        let horizon = v(1, u32::MAX);
        assert_eq!(s.digest_at(horizon), truncated.digest());
        assert_ne!(s.digest_at(horizon), s.digest());
        assert_eq!(s.digest_at(v(9, 0)), s.digest(), "horizon above everything");
    }

    #[test]
    fn snapshot_at_excludes_in_flight_versions_and_sorts_keys() {
        let mut s = MvccState::new();
        s.put(Key(2), Value::Int(20), v(1, 0));
        s.put(Key(1), Value::Int(10), v(1, 1));
        s.put(Key(1), Value::Int(11), v(2, 0)); // in-flight: above horizon
        s.put(Key(3), Value::Int(30), v(3, 0)); // entirely above horizon
        let snap = s.snapshot_at(v(1, u32::MAX));
        assert_eq!(
            snap,
            vec![
                (Key(1), Value::Int(10), v(1, 1)),
                (Key(2), Value::Int(20), v(1, 0)),
            ]
        );
        // Rebuilding a store from the snapshot reproduces the horizon view.
        let mut rebuilt = MvccState::new();
        for (k, val, ver) in snap {
            rebuilt.put(k, val, ver);
        }
        assert_eq!(rebuilt.read_at(Key(1), v(1, u32::MAX)), Value::Int(10));
        assert_eq!(MvccState::new().snapshot_at(v(9, 9)), vec![]);
    }

    #[test]
    fn apply_batch_and_version_accounting() {
        let mut s = MvccState::new();
        s.apply([(Key(1), Value::Int(1)), (Key(2), Value::Int(2))], v(1, 0));
        s.apply([(Key(1), Value::Int(3))], v(2, 0));
        assert_eq!(s.total_versions(), 3);
        assert_eq!(s.versions_of(Key(1)), vec![v(1, 0), v(2, 0)]);
        assert_eq!(s.versions_of(Key(9)), Vec::<Version>::new());
    }
}
