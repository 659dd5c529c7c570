//! The append-only, hash-chained block ledger.

use std::error::Error;
use std::fmt;
use std::sync::Arc;

use parblock_crypto::hash_wire;
use parblock_types::{Block, BlockNumber, Hash32};

/// Errors returned when appending to or verifying a [`Ledger`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ChainError {
    /// The appended block's number is not `last + 1`.
    NonContiguous {
        /// The expected next block number.
        expected: BlockNumber,
        /// The number the block carried.
        got: BlockNumber,
    },
    /// The appended block's `prev_hash` does not match the chain head.
    BrokenLink {
        /// The block that failed to link.
        block: BlockNumber,
    },
}

impl fmt::Display for ChainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChainError::NonContiguous { expected, got } => {
                write!(f, "expected block {expected}, got {got}")
            }
            ChainError::BrokenLink { block } => {
                write!(f, "block {block} does not link to the chain head")
            }
        }
    }
}

impl Error for ChainError {}

/// An append-only data structure recording all transactions in the form of
/// a hash chain (§III-B).
///
/// Block 0 is an implicit empty genesis block with `prev_hash = 0`; the
/// first appended block must be block 1 linking to the genesis hash.
///
/// # Examples
///
/// ```
/// use parblock_ledger::Ledger;
/// use parblock_types::{Block, BlockNumber};
///
/// let mut ledger = Ledger::new();
/// let block = Block::new(BlockNumber(1), ledger.head_hash(), vec![]);
/// ledger.append(block)?;
/// assert_eq!(ledger.height(), 1);
/// assert!(ledger.verify().is_ok());
/// # Ok::<(), parblock_ledger::ChainError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    /// Shared with whoever handed the block over: a peer appends the
    /// block object it admitted, not a copy of it.
    blocks: Vec<Arc<Block>>,
    /// `hashes[i]` = H(blocks[i]), cached for O(1) appends.
    hashes: Vec<Hash32>,
}

impl Ledger {
    /// Creates a ledger containing only the implicit genesis block.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The hash of the chain head (genesis hash when empty).
    #[must_use]
    pub fn head_hash(&self) -> Hash32 {
        self.hashes.last().copied().unwrap_or_else(Self::genesis_hash)
    }

    /// The hash of the implicit genesis block.
    #[must_use]
    pub fn genesis_hash() -> Hash32 {
        let genesis = Block::new(BlockNumber::GENESIS, Hash32::ZERO, vec![]);
        hash_wire(&genesis)
    }

    /// Number of appended blocks (excluding genesis).
    #[must_use]
    pub fn height(&self) -> usize {
        self.blocks.len()
    }

    /// Returns `true` when only the genesis block exists.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// The next block number the ledger will accept.
    #[must_use]
    pub fn next_number(&self) -> BlockNumber {
        BlockNumber(self.blocks.len() as u64 + 1)
    }

    /// The block with number `n`, if appended.
    #[must_use]
    pub fn block(&self, n: BlockNumber) -> Option<&Block> {
        let index = n.0.checked_sub(1)?;
        self.blocks.get(index as usize).map(Arc::as_ref)
    }

    /// Iterates appended blocks in chain order.
    pub fn iter(&self) -> impl Iterator<Item = &Block> {
        self.blocks.iter().map(Arc::as_ref)
    }

    /// Appends `block`, checking contiguity and the hash link.
    ///
    /// # Errors
    ///
    /// [`ChainError::NonContiguous`] if the block number skips or repeats;
    /// [`ChainError::BrokenLink`] if `prev_hash` does not equal the current
    /// head hash.
    pub fn append(&mut self, block: impl Into<Arc<Block>>) -> Result<(), ChainError> {
        let block = block.into();
        let hash = hash_wire(block.as_ref());
        self.append_hashed(block, hash)
    }

    /// [`Ledger::append`] for a caller that has already verified
    /// `hash = H(block)`, as NEWBLOCK admission has: the block is not
    /// hashed again.
    ///
    /// # Errors
    ///
    /// As [`Ledger::append`].
    pub fn append_hashed(&mut self, block: Arc<Block>, hash: Hash32) -> Result<(), ChainError> {
        debug_assert_eq!(hash_wire(block.as_ref()), hash, "caller verified the hash");
        let expected = self.next_number();
        if block.number() != expected {
            return Err(ChainError::NonContiguous {
                expected,
                got: block.number(),
            });
        }
        if block.header().prev_hash != self.head_hash() {
            return Err(ChainError::BrokenLink {
                block: block.number(),
            });
        }
        self.blocks.push(block);
        self.hashes.push(hash);
        Ok(())
    }

    /// Re-validates the entire chain (hash links and cached hashes).
    ///
    /// # Errors
    ///
    /// Returns the first [`ChainError::BrokenLink`] found.
    pub fn verify(&self) -> Result<(), ChainError> {
        let mut prev = Self::genesis_hash();
        for (i, block) in self.blocks.iter().enumerate() {
            if block.header().prev_hash != prev || hash_wire(block.as_ref()) != self.hashes[i] {
                return Err(ChainError::BrokenLink {
                    block: block.number(),
                });
            }
            prev = self.hashes[i];
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use parblock_types::{AppId, ClientId, RwSet, Transaction};

    use super::*;

    fn tx(ts: u64) -> Transaction {
        Transaction::new(AppId(0), ClientId(1), ts, RwSet::default(), vec![])
    }

    fn extend(ledger: &mut Ledger, n_blocks: usize) {
        for _ in 0..n_blocks {
            let block = Block::new(ledger.next_number(), ledger.head_hash(), vec![tx(0)]);
            ledger.append(block).expect("append");
        }
    }

    #[test]
    fn append_and_lookup() {
        let mut ledger = Ledger::new();
        extend(&mut ledger, 3);
        assert_eq!(ledger.height(), 3);
        assert!(ledger.block(BlockNumber(2)).is_some());
        assert!(ledger.block(BlockNumber(0)).is_none());
        assert!(ledger.block(BlockNumber(4)).is_none());
        assert_eq!(ledger.iter().count(), 3);
    }

    #[test]
    fn rejects_non_contiguous_numbers() {
        let mut ledger = Ledger::new();
        let block = Block::new(BlockNumber(5), ledger.head_hash(), vec![]);
        assert_eq!(
            ledger.append(block),
            Err(ChainError::NonContiguous {
                expected: BlockNumber(1),
                got: BlockNumber(5),
            })
        );
    }

    #[test]
    fn rejects_broken_hash_link() {
        let mut ledger = Ledger::new();
        extend(&mut ledger, 1);
        let bad = Block::new(BlockNumber(2), Hash32::ZERO, vec![]);
        assert_eq!(
            ledger.append(bad),
            Err(ChainError::BrokenLink {
                block: BlockNumber(2)
            })
        );
    }

    #[test]
    fn verify_detects_tampering() {
        let mut ledger = Ledger::new();
        extend(&mut ledger, 3);
        assert!(ledger.verify().is_ok());
        // Tamper with a middle block.
        let tampered = Block::new(BlockNumber(2), ledger.hashes[0], vec![tx(99)]);
        ledger.blocks[1] = Arc::new(tampered);
        assert!(matches!(
            ledger.verify(),
            Err(ChainError::BrokenLink { .. })
        ));
    }

    #[test]
    fn identical_ledgers_share_head_hash() {
        let mut a = Ledger::new();
        let mut b = Ledger::new();
        extend(&mut a, 2);
        extend(&mut b, 2);
        assert_eq!(a.head_hash(), b.head_hash());
    }

    #[test]
    fn error_display() {
        let e = ChainError::NonContiguous {
            expected: BlockNumber(1),
            got: BlockNumber(3),
        };
        assert!(e.to_string().contains("#1"));
        assert!(e.to_string().contains("#3"));
    }
}
