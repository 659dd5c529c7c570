//! Single-version key-value state with version stamps.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use parblock_types::{BlockNumber, Key, SeqNo, Value};

/// The version of a record: the block and in-block position of the
/// transaction that last wrote it (Fabric-style `(block, tx)` versions).
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

/// The blockchain state: a versioned key-value datastore.
///
/// Reads of absent keys return [`Value::Unit`] — the paper's accounting
/// application treats missing accounts as invalid at the contract level.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KvState {
    entries: HashMap<Key, (Value, Version)>,
}

impl KvState {
    /// Creates an empty state.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a state pre-loaded with genesis values.
    pub fn with_genesis<I: IntoIterator<Item = (Key, Value)>>(items: I) -> Self {
        let mut state = Self::new();
        for (k, v) in items {
            state.put(k, v, Version::GENESIS);
        }
        state
    }

    /// Reads the current value of `key` ([`Value::Unit`] if absent).
    #[must_use]
    pub fn get(&self, key: Key) -> Value {
        self.entries
            .get(&key)
            .map(|(v, _)| v.clone())
            .unwrap_or_default()
    }

    /// Reads the value and its version, if present.
    #[must_use]
    pub fn get_versioned(&self, key: Key) -> Option<(Value, Version)> {
        self.entries.get(&key).cloned()
    }

    /// The version of `key`, if present.
    #[must_use]
    pub fn version_of(&self, key: Key) -> Option<Version> {
        self.entries.get(&key).map(|(_, v)| *v)
    }

    /// Writes `value` under `key` stamped with `version`.
    pub fn put(&mut self, key: Key, value: Value, version: Version) {
        self.entries.insert(key, (value, version));
    }

    /// Applies a batch of writes, all stamped with `version`.
    pub fn apply<I: IntoIterator<Item = (Key, Value)>>(&mut self, writes: I, version: Version) {
        for (k, v) in writes {
            self.put(k, v, version);
        }
    }

    /// Applies writes only where `version` is newer than the stored
    /// version — last-writer-wins by `(block, seq)` order, so commit
    /// results may be applied in any arrival order (parallel executors)
    /// and still converge to the serial-order state.
    pub fn apply_versioned<I: IntoIterator<Item = (Key, Value)>>(
        &mut self,
        writes: I,
        version: Version,
    ) {
        for (k, v) in writes {
            let stale = self.version_of(k).is_some_and(|existing| existing >= version);
            if !stale {
                self.put(k, v, version);
            }
        }
    }

    /// Number of keys present.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when no key is present.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over all `(key, value, version)` entries in arbitrary
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (Key, &Value, Version)> {
        self.entries.iter().map(|(k, (v, ver))| (*k, v, *ver))
    }

    /// A digest of the *values* (keys and contents, not versions), used
    /// to compare final states across systems and replicas. Two states
    /// with the same key→value mapping share a digest even if the
    /// versions that produced them differ.
    #[must_use]
    pub fn digest(&self) -> parblock_types::Hash32 {
        // Hash order is harmless: digest_entries sorts by key before hashing.
        digest_entries(self.entries.iter().map(|(k, (v, _))| (*k, v)))
    }
}

/// Hashes a key→value mapping (sorted by key internally) into the state
/// digest. Shared by [`KvState::digest`] and
/// [`crate::MvccState::digest`] so single- and multi-version stores that
/// converged to the same mapping stay byte-compatible.
pub(crate) fn digest_entries<'a, I>(entries: I) -> parblock_types::Hash32
where
    I: IntoIterator<Item = (Key, &'a Value)>,
{
    let mut entries: Vec<(Key, &Value)> = entries.into_iter().collect();
    entries.sort_by_key(|(k, _)| *k);
    let mut hasher = parblock_crypto::Sha256::new();
    for (key, value) in entries {
        hasher.update(&key.0.to_le_bytes());
        // Frozen preimage: historical RunReport digests pin this rendering,
        // and it runs once per run (capture_state), never on the commit hot
        // path. Changing it requires a version bump.
        hasher.update(format!("{value:?}").as_bytes());
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
    fn absent_keys_read_unit() {
        let state = KvState::new();
        assert_eq!(state.get(Key(1)), Value::Unit);
        assert_eq!(state.get_versioned(Key(1)), None);
        assert!(state.is_empty());
    }

    #[test]
    fn put_then_get_with_version() {
        let mut state = KvState::new();
        state.put(Key(1), Value::Int(10), v(1, 3));
        assert_eq!(state.get(Key(1)), Value::Int(10));
        assert_eq!(state.version_of(Key(1)), Some(v(1, 3)));
        assert_eq!(state.len(), 1);
    }

    #[test]
    fn apply_batch_stamps_uniform_version() {
        let mut state = KvState::new();
        state.apply([(Key(1), Value::Int(1)), (Key(2), Value::Int(2))], v(2, 0));
        assert_eq!(state.version_of(Key(1)), Some(v(2, 0)));
        assert_eq!(state.version_of(Key(2)), Some(v(2, 0)));
    }

    #[test]
    fn apply_versioned_is_order_insensitive() {
        // Writes from (block 1, seq 5) and (block 1, seq 2) applied in
        // either order converge to the seq-5 value.
        let mut forward = KvState::new();
        forward.apply_versioned([(Key(1), Value::Int(2))], v(1, 2));
        forward.apply_versioned([(Key(1), Value::Int(5))], v(1, 5));
        let mut backward = KvState::new();
        backward.apply_versioned([(Key(1), Value::Int(5))], v(1, 5));
        backward.apply_versioned([(Key(1), Value::Int(2))], v(1, 2));
        assert_eq!(forward.get(Key(1)), Value::Int(5));
        assert_eq!(backward.get(Key(1)), Value::Int(5));
        assert_eq!(backward.version_of(Key(1)), Some(v(1, 5)));
    }

    #[test]
    fn genesis_constructor() {
        let state = KvState::with_genesis([(Key(1), Value::Int(100))]);
        assert_eq!(state.get(Key(1)), Value::Int(100));
        assert_eq!(state.version_of(Key(1)), Some(Version::GENESIS));
    }

    #[test]
    fn versions_order_by_block_then_seq() {
        assert!(v(1, 5) < v(2, 0));
        assert!(v(1, 0) < v(1, 1));
    }

    #[test]
    fn iter_visits_every_entry() {
        let state = KvState::with_genesis([(Key(1), Value::Int(1)), (Key(2), Value::Int(2))]);
        assert_eq!(state.iter().count(), 2);
    }

    #[test]
    fn digest_ignores_versions_but_not_values() {
        let mut a = KvState::new();
        a.put(Key(1), Value::Int(1), v(1, 0));
        let mut b = KvState::new();
        b.put(Key(1), Value::Int(1), v(9, 9));
        assert_eq!(a.digest(), b.digest());
        b.put(Key(1), Value::Int(2), v(10, 0));
        assert_ne!(a.digest(), b.digest());
    }
}
