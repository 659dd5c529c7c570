//! The blockchain ledger and state stores (§III-B).
//!
//! Each executor peer maintains: (1) the blockchain *ledger*, an
//! append-only hash chain of blocks, and (2) the blockchain *state*, a
//! datastore mapping keys to values. The state is the multi-version
//! store of §III-A's multi-version adaptation, for every paradigm.
//!
//! * [`Ledger`] — hash-chained append-only block log with verification.
//! * [`MvccState`] — multi-version store: each key's newest version up
//!   to the sealed watermark, plus every write of each block above it,
//!   stamped with writers' [`Version`]s; the stamps also power XOV's
//!   read-set validation. Keys no seal has replaced read the
//!   [`Genesis`] table, which every replica of a cluster shares.
//! * [`prune_to_sealed`] — the seal OX and OXII peers run on each block
//!   they append: it folds the open blocks up to it into the sealed
//!   versions. Persistence is not this crate's concern: a durable node
//!   also holds a `parblock_store::Store` and seals each block there.
//!
//! # Examples
//!
//! ```
//! use parblock_ledger::{MvccState, Version};
//! use parblock_types::{BlockNumber, Key, SeqNo, Value};
//!
//! let mut state = MvccState::new();
//! let v1 = Version::new(BlockNumber(1), SeqNo(0));
//! state.put(Key(1001), Value::Int(100), v1);
//! assert_eq!(state.latest(Key(1001)), Value::Int(100));
//! assert_eq!(state.latest_version(Key(1001)), Some(v1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chain;
mod mvcc;

pub use chain::{ChainError, Ledger};
pub use mvcc::{prune_to_sealed, Genesis, MvccState, Version};

/// The newest-version key-value view of [`MvccState`] (`latest`,
/// `latest_version`) that XOV endorses and validates against.
#[cfg(test)]
mod kv {
    mod tests {
        use crate::{MvccState, Version};
        use parblock_types::{BlockNumber, Key, SeqNo, Value};

        fn v(block: u64, seq: u32) -> Version {
            Version::new(BlockNumber(block), SeqNo(seq))
        }

        #[test]
        fn absent_keys_read_unit() {
            let state = MvccState::new();
            assert_eq!(state.latest(Key(1)), Value::Unit);
            assert_eq!(state.latest_version(Key(1)), None);
            assert_eq!(state.total_versions(), 0);
        }

        #[test]
        fn put_then_get_with_version() {
            let mut state = MvccState::new();
            state.put(Key(1), Value::Int(10), v(1, 3));
            assert_eq!(state.latest(Key(1)), Value::Int(10));
            assert_eq!(state.latest_version(Key(1)), Some(v(1, 3)));
        }

        #[test]
        fn apply_batch_stamps_uniform_version() {
            let mut state = MvccState::new();
            state.apply([(Key(1), Value::Int(1)), (Key(2), Value::Int(2))], v(2, 0));
            assert_eq!(state.latest_version(Key(1)), Some(v(2, 0)));
            assert_eq!(state.latest_version(Key(2)), Some(v(2, 0)));
        }

        /// Writes from (block 1, seq 5) and (block 1, seq 2) applied in
        /// either order converge to the seq-5 value.
        #[test]
        fn apply_versioned_is_order_insensitive() {
            for order in [[(2, 2), (5, 5)], [(5, 5), (2, 2)]] {
                let mut state = MvccState::new();
                for (seq, value) in order {
                    state.apply([(Key(1), Value::Int(value))], v(1, seq));
                }
                assert_eq!(state.latest(Key(1)), Value::Int(5));
                assert_eq!(state.latest_version(Key(1)), Some(v(1, 5)));
            }
        }

        #[test]
        fn genesis_constructor() {
            let state = MvccState::with_genesis([(Key(1), Value::Int(100))]);
            assert_eq!(state.latest(Key(1)), Value::Int(100));
            assert_eq!(state.latest_version(Key(1)), Some(Version::GENESIS));
        }

        #[test]
        fn versions_order_by_block_then_seq() {
            assert!(v(1, 5) < v(2, 0));
            assert!(v(1, 0) < v(1, 1));
        }

        #[test]
        fn digest_ignores_versions_but_not_values() {
            let mut a = MvccState::new();
            a.put(Key(1), Value::Int(1), v(1, 0));
            let mut b = MvccState::new();
            b.put(Key(1), Value::Int(1), v(9, 9));
            assert_eq!(a.digest(), b.digest());
            b.put(Key(1), Value::Int(2), v(10, 0));
            assert_ne!(a.digest(), b.digest());
        }
    }
}
