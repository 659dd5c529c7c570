//! Consensus payloads: batches of transactions and the cut-block marker.
//!
//! Orderers batch client requests before submitting them to consensus
//! (§III-A: batching "improves the performance of the blockchain … and
//! amortizes the cost of cryptography"). The time-based block-cut
//! condition is made deterministic by ordering an explicit cut marker
//! through consensus — the paper's "the primary sends a cut-block message
//! in the consensus step" (§IV-B).

use std::ops::Range;
use std::sync::Arc;

use parblock_types::wire::{Reader, Wire};
use parblock_types::{ClientId, Transaction, TxId};

const TAG_BATCH: u8 = 0;
const TAG_CUT: u8 = 1;

/// Where a batch's transaction count sits: a fixed-width `u64` after the
/// tag, so it can be written last.
const BATCH_COUNT: Range<usize> = 1..9;

/// A consensus payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Payload {
    /// A batch of client transactions, in submission order.
    Batch(Vec<Transaction>),
    /// The leader's cut-block marker (time-based cut condition), tagged
    /// with the oldest pending transaction it was ordered for. Cutters
    /// ignore a marker whose tag no longer matches their oldest pending
    /// transaction — a count/byte cut got there first, and cutting
    /// whatever is now pending would prematurely flush a tiny fresh
    /// block.
    CutMarker {
        /// Id of the first pending transaction at the leader when the
        /// marker was ordered.
        first_pending: TxId,
    },
}

impl Payload {
    /// Encodes the payload for ordering.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Payload::Batch(txs) => {
                out.push(TAG_BATCH);
                (txs.len() as u64).encode(&mut out);
                for tx in txs {
                    tx.encode(&mut out);
                }
            }
            Payload::CutMarker { first_pending } => {
                out.push(TAG_CUT);
                first_pending.client.0.encode(&mut out);
                first_pending.client_ts.encode(&mut out);
            }
        }
        out
    }

    /// Decodes an ordered payload. Returns `None` on malformed bytes. A
    /// batch's transactions are decoded into one table.
    #[must_use]
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        let mut reader = Reader::new(bytes);
        match reader.u8()? {
            TAG_BATCH => {
                let n = usize::try_from(reader.u64()?).ok()?;
                let txs = Transaction::decode_many(&mut reader, n)?;
                reader.is_exhausted().then_some(Payload::Batch(txs))
            }
            TAG_CUT => {
                let client = ClientId(reader.u32()?);
                let client_ts = reader.u64()?;
                reader.is_exhausted().then_some(Payload::CutMarker {
                    first_pending: TxId::new(client, client_ts),
                })
            }
            _ => None,
        }
    }
}

/// The batch an entry orderer is filling: the bytes of
/// [`Payload::Batch`]`(txs).encode()`, written one admitted request at a
/// time, so a request is encoded once for both its signature check and
/// its place in the ordered payload.
#[derive(Debug)]
pub(crate) struct OpenBatch {
    /// `TAG_BATCH`, the count's placeholder, then the encoded requests.
    /// Kept across batches: after the first few it no longer grows.
    buf: Vec<u8>,
    count: usize,
    /// The first admitted transaction: what names the batch in flight.
    first: Option<TxId>,
}

impl OpenBatch {
    pub(crate) fn new() -> Self {
        let mut buf = vec![TAG_BATCH];
        0u64.encode(&mut buf);
        debug_assert_eq!(buf.len(), BATCH_COUNT.end);
        OpenBatch {
            buf,
            count: 0,
            first: None,
        }
    }

    /// Transactions admitted since the last [`OpenBatch::freeze`].
    pub(crate) fn len(&self) -> usize {
        self.count
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The first transaction admitted since the last
    /// [`OpenBatch::freeze`].
    pub(crate) fn first(&self) -> Option<TxId> {
        self.first
    }

    /// Encodes `tx` at the end of the batch and keeps it if `admit`
    /// accepts those bytes (the bytes its client signed); a refused
    /// request leaves no byte behind.
    pub(crate) fn push(&mut self, tx: &Transaction, admit: impl FnOnce(&[u8]) -> bool) -> bool {
        let start = self.buf.len();
        tx.encode(&mut self.buf);
        let admitted = admit(&self.buf[start..]);
        if admitted {
            self.count += 1;
            self.first.get_or_insert(tx.id());
        } else {
            self.buf.truncate(start);
        }
        admitted
    }

    /// Closes the batch: the immutable payload to order, byte-equal to
    /// `Payload::Batch` of the admitted transactions, encoded. The next
    /// batch starts empty.
    pub(crate) fn freeze(&mut self) -> Arc<[u8]> {
        self.buf[BATCH_COUNT].copy_from_slice(&(self.count as u64).to_le_bytes());
        let payload = Arc::from(self.buf.as_slice());
        self.buf.truncate(BATCH_COUNT.end);
        self.count = 0;
        self.first = None;
        payload
    }
}

#[cfg(test)]
mod tests {
    use parblock_types::{AppId, ClientId, Key, RwSet, Transaction};

    use super::*;

    fn tx(ts: u64) -> Transaction {
        Transaction::new(
            AppId(0),
            ClientId(1),
            ts,
            RwSet::new([Key(1)], [Key(2)]),
            vec![1, 2, 3],
        )
    }

    #[test]
    fn batch_round_trip() {
        let batch = Payload::Batch(vec![tx(1), tx(2), tx(3)]);
        assert_eq!(Payload::decode(&batch.encode()), Some(batch));
    }

    #[test]
    fn empty_batch_round_trip() {
        let batch = Payload::Batch(vec![]);
        assert_eq!(Payload::decode(&batch.encode()), Some(batch));
    }

    #[test]
    fn an_open_batch_freezes_to_the_encoding_of_what_it_admitted() {
        let mut open = OpenBatch::new();
        assert_eq!(&*open.freeze(), Payload::Batch(vec![]).encode());
        for round in 0..2 {
            let base = round * 10;
            assert!(open.push(&tx(base + 1), |bytes| bytes == tx(base + 1).wire_bytes()));
            assert!(!open.push(&tx(base + 2), |_| false));
            assert!(open.push(&tx(base + 3), |_| true));
            assert_eq!(open.len(), 2);
            assert_eq!(open.first(), Some(tx(base + 1).id()));
            let expected = Payload::Batch(vec![tx(base + 1), tx(base + 3)]).encode();
            assert_eq!(&*open.freeze(), expected, "round {round}");
            assert_eq!(open.len(), 0);
            assert_eq!(open.first(), None);
        }
    }

    proptest::proptest! {
        /// A batch of any length decodes into one table that reads back
        /// what was encoded, and a count the bytes cannot hold is refused.
        #[test]
        fn a_batch_decodes_into_what_was_encoded(
            n in 0usize..12,
            keys in proptest::collection::vec(0u64..6, 0..4),
            payload in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..8),
            lie in proptest::prelude::any::<u64>(),
        ) {
            let txs: Vec<Transaction> = (0..n as u64)
                .map(|ts| {
                    let keys = keys.iter().map(|&k| Key(k + ts % 3));
                    let rw = RwSet::new(keys.clone(), keys.skip(ts as usize % 2));
                    let payload = payload[..payload.len().min(ts as usize)].to_vec();
                    Transaction::new(AppId(0), ClientId(1), ts, rw, payload)
                })
                .collect();
            let batch = Payload::Batch(txs);
            let mut bytes = batch.encode();
            proptest::prop_assert_eq!(Payload::decode(&bytes), Some(batch));
            let lie = lie.max(n as u64 + 1);
            bytes[BATCH_COUNT].copy_from_slice(&lie.to_le_bytes());
            proptest::prop_assert_eq!(Payload::decode(&bytes), None);
        }
    }

    /// What `Payload::decode` accepts re-encodes to bytes that decode to
    /// the same payload; what it refuses is `None`, never a panic.
    fn decodes_canonically(bytes: &[u8]) -> proptest::TestCaseResult {
        if let Some(payload) = Payload::decode(bytes) {
            proptest::prop_assert_eq!(Payload::decode(&payload.encode()), Some(payload));
        }
        Ok(())
    }

    proptest::proptest! {
        /// ROADMAP 11(b) for the payload decoder: a well-formed batch and
        /// a cut marker truncated at every offset or with one byte
        /// changed, and arbitrary bytes with or without a valid tag.
        #[test]
        fn decode_rejects_or_reencodes_any_bytes(
            n in 0usize..5,
            keys in proptest::collection::vec(0u64..6, 0..4),
            payload in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..8),
            marker in (proptest::prelude::any::<u32>(), proptest::prelude::any::<u64>()),
            mutations in proptest::collection::vec(
                (proptest::prelude::any::<usize>(), proptest::prelude::any::<u8>()),
                1..16,
            ),
            noise in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..64),
        ) {
            let txs = (0..n as u64).map(|ts| {
                let keys = keys.iter().map(|&k| Key(k + ts));
                let rw = RwSet::new(keys.clone(), keys.skip(ts as usize % 2));
                Transaction::new(AppId(ts as u16), ClientId(1), ts, rw, payload.clone())
            });
            let (client, client_ts) = marker;
            let marker = Payload::CutMarker {
                first_pending: TxId::new(ClientId(client), client_ts),
            };
            for bytes in [Payload::Batch(txs.collect()).encode(), marker.encode()] {
                for cut in 0..=bytes.len() {
                    decodes_canonically(&bytes[..cut])?;
                }
                for &(at, byte) in &mutations {
                    let mut mutated = bytes.clone();
                    mutated[at % bytes.len()] = byte;
                    decodes_canonically(&mutated)?;
                }
            }
            decodes_canonically(&noise)?;
            for tag in [TAG_BATCH, TAG_CUT] {
                decodes_canonically(&[&[tag][..], &noise].concat())?;
            }
        }
    }

    #[test]
    fn cut_marker_round_trip() {
        let marker = Payload::CutMarker {
            first_pending: TxId::new(ClientId(7), 99),
        };
        assert_eq!(Payload::decode(&marker.encode()), Some(marker));
    }

    #[test]
    fn malformed_inputs_decode_to_none() {
        assert_eq!(Payload::decode(&[]), None);
        assert_eq!(Payload::decode(&[9]), None);
        let mut bytes = Payload::Batch(vec![tx(1)]).encode();
        bytes.truncate(bytes.len() - 1);
        assert_eq!(Payload::decode(&bytes), None);
        // Truncated and over-long cut markers.
        assert_eq!(Payload::decode(&[TAG_CUT, 0]), None);
        let mut marker = Payload::CutMarker {
            first_pending: TxId::new(ClientId(1), 2),
        }
        .encode();
        marker.push(0);
        assert_eq!(Payload::decode(&marker), None);
    }
}
