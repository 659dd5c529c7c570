//! Blocks: batches of ordered transactions linked into a hash chain.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::wire::Wire;
use crate::{AppId, BlockNumber, SeqNo, Transaction};

/// A 256-bit digest (output of the crypto crate's SHA-256).
///
/// Defined here so that block headers can carry the previous-block hash
/// without depending on the crypto crate.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default)]
pub struct Hash32(pub [u8; 32]);

impl Hash32 {
    /// The all-zero hash, used as the previous-hash of the genesis block.
    pub const ZERO: Hash32 = Hash32([0; 32]);

    /// Hex representation of the digest.
    #[must_use]
    pub fn to_hex(&self) -> String {
        self.0.iter().map(|b| format!("{b:02x}")).collect()
    }
}

impl fmt::Debug for Hash32 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Hash32({}…)", &self.to_hex()[..8])
    }
}

impl fmt::Display for Hash32 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl Wire for Hash32 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.0);
    }
}

/// Header of a block: sequence number and the hash link `h = H(B′)` to the
/// previous block (§IV-B, NEWBLOCK message).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockHeader {
    /// Sequence number `n` of the block.
    pub number: BlockNumber,
    /// `H(B′)` where `B′` is block `n − 1`; zero for genesis.
    pub prev_hash: Hash32,
}

impl Wire for BlockHeader {
    fn encode(&self, out: &mut Vec<u8>) {
        self.number.0.encode(out);
        self.prev_hash.encode(out);
    }

    fn wire_len_hint(&self) -> usize {
        8 + 32
    }
}

/// A block: an ordered batch of transactions.
///
/// The position of a transaction within the block is its timestamp `ts(T)`
/// for dependency purposes: if `Ti` appears before `Tj` then
/// `ts(Ti) < ts(Tj)` (§III-A).
///
/// A block owns its transactions as the rows of one packed table (see
/// [`Transaction`]): every transaction in it is a handle to its row.
///
/// # Examples
///
/// ```
/// use parblock_types::{AppId, Block, BlockNumber, ClientId, Hash32, RwSet, Transaction};
///
/// let tx = Transaction::new(AppId(0), ClientId(1), 0, RwSet::default(), vec![]);
/// let block = Block::new(BlockNumber(1), Hash32::ZERO, vec![tx]);
/// assert_eq!(block.len(), 1);
/// assert_eq!(block.apps(), vec![AppId(0)]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    header: BlockHeader,
    txs: Box<[Transaction]>,
}

impl Block {
    /// Creates a block from ordered transactions, packed into one table
    /// unless they already are one table's rows in order.
    #[must_use]
    pub fn new(number: BlockNumber, prev_hash: Hash32, txs: Vec<Transaction>) -> Self {
        Block {
            header: BlockHeader { number, prev_hash },
            txs: Transaction::pack(txs).into_boxed_slice(),
        }
    }

    /// The block header.
    #[must_use]
    pub fn header(&self) -> &BlockHeader {
        &self.header
    }

    /// The block sequence number.
    #[must_use]
    pub fn number(&self) -> BlockNumber {
        self.header.number
    }

    /// The transactions in block order.
    #[must_use]
    pub fn transactions(&self) -> &[Transaction] {
        &self.txs
    }

    /// The transaction at in-block position `seq`.
    #[must_use]
    pub fn tx(&self, seq: SeqNo) -> Option<&Transaction> {
        self.txs.get(seq.0 as usize)
    }

    /// Number of transactions in the block.
    #[must_use]
    pub fn len(&self) -> usize {
        self.txs.len()
    }

    /// Returns `true` when the block has no transactions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.txs.is_empty()
    }

    /// Iterates transactions paired with their in-block sequence number
    /// (the timestamp `ts(T)` of §III-A).
    pub fn iter_seq(&self) -> impl Iterator<Item = (SeqNo, &Transaction)> {
        self.txs
            .iter()
            .enumerate()
            .map(|(i, tx)| (SeqNo(i as u32), tx))
    }

    /// The set `A` of applications that have transactions in the block,
    /// deduplicated, in first-appearance order (carried in NEWBLOCK).
    #[must_use]
    pub fn apps(&self) -> Vec<AppId> {
        let mut seen = Vec::new();
        for tx in self.txs.iter() {
            if !seen.contains(&tx.app()) {
                seen.push(tx.app());
            }
        }
        seen
    }

    /// Decodes a block from a [`Reader`](crate::wire::Reader) positioned
    /// at a `Block::encode` boundary. Returns `None` on malformed input.
    /// Durable block stores round-trip sealed blocks through this.
    #[must_use]
    pub fn decode(reader: &mut crate::wire::Reader<'_>) -> Option<Self> {
        let number = BlockNumber(reader.u64()?);
        let mut prev_hash = [0u8; 32];
        for byte in &mut prev_hash {
            *byte = reader.u8()?;
        }
        let count = usize::try_from(reader.u64()?).ok()?;
        let txs = Transaction::decode_many(reader, count)?;
        Some(Block::new(number, Hash32(prev_hash), txs))
    }

    /// Decodes a block from exactly these bytes.
    #[must_use]
    pub fn from_wire(bytes: &[u8]) -> Option<Self> {
        let mut reader = crate::wire::Reader::new(bytes);
        let block = Self::decode(&mut reader)?;
        reader.is_exhausted().then_some(block)
    }
}

impl Wire for Block {
    fn encode(&self, out: &mut Vec<u8>) {
        self.header.encode(out);
        (self.txs.len() as u64).encode(out);
        for tx in self.txs.iter() {
            tx.encode(out);
        }
    }

    /// Exact: the header, the count and each transaction's
    /// [`Transaction::encoded_len`], so a block hash fills one buffer
    /// without regrowing it.
    fn wire_len_hint(&self) -> usize {
        let txs: usize = self.txs.iter().map(Transaction::encoded_len).sum();
        self.header.wire_len_hint() + 8 + txs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClientId, RwSet};

    fn tx(app: u16, ts: u64) -> Transaction {
        Transaction::new(AppId(app), ClientId(1), ts, RwSet::default(), vec![])
    }

    fn sample() -> Block {
        Block::new(BlockNumber(3), Hash32::ZERO, vec![tx(1, 0), tx(2, 1), tx(1, 2)])
    }

    #[test]
    fn accessors_and_seq_iteration() {
        let b = sample();
        assert_eq!(b.number(), BlockNumber(3));
        assert_eq!(b.len(), 3);
        assert!(!b.is_empty());
        assert_eq!(b.tx(SeqNo(1)).unwrap().app(), AppId(2));
        assert!(b.tx(SeqNo(9)).is_none());
        let seqs: Vec<u32> = b.iter_seq().map(|(s, _)| s.0).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
    }

    #[test]
    fn apps_deduplicated_in_order() {
        assert_eq!(sample().apps(), vec![AppId(1), AppId(2)]);
    }

    #[test]
    fn hash32_display_and_debug() {
        let h = Hash32([0xab; 32]);
        assert_eq!(h.to_hex().len(), 64);
        assert!(format!("{h:?}").contains("abababab"));
        assert_eq!(Hash32::ZERO.to_hex(), "0".repeat(64));
    }

    #[test]
    fn wire_round_trip() {
        let b = sample();
        assert_eq!(Block::from_wire(&b.wire_bytes()), Some(b));
        let empty = Block::new(BlockNumber(1), Hash32([7; 32]), vec![]);
        assert_eq!(Block::from_wire(&empty.wire_bytes()), Some(empty));
    }

    #[test]
    fn from_wire_rejects_truncation_and_trailing_garbage() {
        let bytes = sample().wire_bytes();
        for cut in [0, 1, 8, bytes.len() / 2, bytes.len() - 1] {
            assert_eq!(Block::from_wire(&bytes[..cut]), None, "cut {cut}");
        }
        let mut extended = bytes;
        extended.push(0);
        assert_eq!(Block::from_wire(&extended), None);
    }

    #[test]
    fn wire_encoding_changes_with_contents() {
        let a = sample().wire_bytes();
        let b = Block::new(BlockNumber(3), Hash32::ZERO, vec![tx(1, 0)]).wire_bytes();
        assert_ne!(a, b);
        let c = Block::new(BlockNumber(4), Hash32::ZERO, sample().transactions().to_vec())
            .wire_bytes();
        assert_ne!(a, c);
    }
}
