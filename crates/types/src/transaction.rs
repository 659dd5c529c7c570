//! Transactions: a client request for one application, with a declared
//! read/write set and an opaque, contract-specific payload.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::wire::{self, Wire};
use crate::{AppId, ClientId, RwSet, TxId};

/// Microsecond timestamp relative to an arbitrary epoch.
pub type Timestamp = u64;

/// A transaction submitted by a client for a given application.
///
/// The payload is opaque to the ordering service: orderers only need the
/// application id (for access control / agent routing) and the read/write
/// set (for dependency-graph generation, §III-A). Executors decode the
/// payload with the application's smart contract.
///
/// A transaction is immutable once built. The read/write set and the
/// payload sit behind one shared allocation, so `clone()` is a
/// reference-count bump: the cutter, the dispatcher and the ledger all
/// hold the copy the node decoded, not copies of it.
///
/// # Examples
///
/// ```
/// use parblock_types::{AppId, ClientId, Key, RwSet, Transaction};
///
/// let rw = RwSet::new([Key(1001)], [Key(1001), Key(1002)]);
/// let tx = Transaction::new(AppId(0), ClientId(1), 42, rw, b"transfer".to_vec());
/// assert_eq!(tx.app(), AppId(0));
/// assert_eq!(tx.id().client_ts, 42);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Transaction {
    id: TxId,
    app: AppId,
    body: Arc<Body>,
}

/// The variable-size part of a [`Transaction`]: three allocations, each
/// at its exact size — this one, the read/write set's key slice and the
/// payload.
#[derive(Debug, PartialEq, Eq, Serialize, Deserialize)]
struct Body {
    rw: RwSet,
    payload: Box<[u8]>,
}

impl Transaction {
    /// Creates a transaction.
    ///
    /// `client_ts` is the client-local timestamp: the paper uses it to
    /// totally order each client's requests and for exactly-once semantics.
    /// The payload is kept as it is when its length fills its capacity,
    /// and shrunk to fit otherwise.
    #[must_use]
    pub fn new(
        app: AppId,
        client: ClientId,
        client_ts: u64,
        rw: RwSet,
        payload: Vec<u8>,
    ) -> Self {
        Transaction {
            id: TxId::new(client, client_ts),
            app,
            body: Arc::new(Body {
                rw,
                payload: payload.into_boxed_slice(),
            }),
        }
    }

    /// The globally unique transaction id.
    #[must_use]
    pub fn id(&self) -> TxId {
        self.id
    }

    /// The application this transaction belongs to.
    #[must_use]
    pub fn app(&self) -> AppId {
        self.app
    }

    /// The issuing client.
    #[must_use]
    pub fn client(&self) -> ClientId {
        self.id.client
    }

    /// The declared read/write set.
    #[must_use]
    pub fn rw_set(&self) -> &RwSet {
        &self.body.rw
    }

    /// The opaque contract payload.
    #[must_use]
    pub fn payload(&self) -> &[u8] {
        &self.body.payload
    }

    /// Serialized size in bytes, used by the block cutter's
    /// maximal-block-size condition (§IV-B). Computed from the field
    /// widths of [`Wire::encode`] below, without encoding.
    #[must_use]
    pub fn encoded_len(&self) -> usize {
        const LEN_PREFIX: usize = 8;
        let key_set = |set: &[crate::Key]| LEN_PREFIX + 8 * set.len();
        4 + 8 + 8 // client, client_ts, app
            + key_set(self.body.rw.reads())
            + key_set(self.body.rw.writes())
            + LEN_PREFIX
            + self.body.payload.len()
    }

    /// Decodes a transaction from a [`Reader`](wire::Reader) positioned at
    /// a `Transaction::encode` boundary. Returns `None` on malformed
    /// input.
    #[must_use]
    pub fn decode(reader: &mut wire::Reader<'_>) -> Option<Self> {
        let client = ClientId(reader.u32()?);
        let client_ts = reader.u64()?;
        let app = AppId(u16::try_from(reader.u64()?).ok()?);
        let reads = reader.keys()?;
        let writes = reader.keys()?;
        let payload = reader.bytes()?.to_vec();
        Some(Transaction::new(
            app,
            client,
            client_ts,
            RwSet::new(reads, writes),
            payload,
        ))
    }

    /// Decodes a transaction from exactly these bytes.
    #[must_use]
    pub fn from_wire(bytes: &[u8]) -> Option<Self> {
        let mut reader = wire::Reader::new(bytes);
        let tx = Self::decode(&mut reader)?;
        reader.is_exhausted().then_some(tx)
    }
}

impl Wire for Transaction {
    fn encode(&self, out: &mut Vec<u8>) {
        self.id.client.0.encode(out);
        self.id.client_ts.encode(out);
        u64::from(self.app.0).encode(out);
        wire::encode_key_set(self.body.rw.reads(), out);
        wire::encode_key_set(self.body.rw.writes(), out);
        self.body.payload.encode(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Key;

    fn sample() -> Transaction {
        Transaction::new(
            AppId(2),
            ClientId(9),
            100,
            RwSet::new([Key(1)], [Key(2)]),
            vec![0xde, 0xad],
        )
    }

    #[test]
    fn accessors() {
        let tx = sample();
        assert_eq!(tx.app(), AppId(2));
        assert_eq!(tx.client(), ClientId(9));
        assert_eq!(tx.id(), TxId::new(ClientId(9), 100));
        assert_eq!(tx.payload(), &[0xde, 0xad]);
        assert!(tx.rw_set().reads().contains(&Key(1)));
    }

    #[test]
    fn wire_encoding_is_deterministic_and_injective_on_samples() {
        let a = sample().wire_bytes();
        let b = sample().wire_bytes();
        assert_eq!(a, b);

        let different = Transaction::new(
            AppId(2),
            ClientId(9),
            101, // only the timestamp differs
            RwSet::new([Key(1)], [Key(2)]),
            vec![0xde, 0xad],
        );
        assert_ne!(a, different.wire_bytes());
    }

    #[test]
    fn wire_round_trip() {
        let tx = sample();
        assert_eq!(Transaction::from_wire(&tx.wire_bytes()), Some(tx));
    }

    #[test]
    fn from_wire_rejects_truncation_and_trailing_garbage() {
        let bytes = sample().wire_bytes();
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            assert_eq!(Transaction::from_wire(&bytes[..cut]), None, "cut {cut}");
        }
        let mut extended = bytes.clone();
        extended.push(0);
        assert_eq!(Transaction::from_wire(&extended), None);
    }

    #[test]
    fn decode_reads_consecutive_transactions() {
        use crate::wire::Reader;
        let a = sample();
        let b = Transaction::new(AppId(1), ClientId(2), 7, RwSet::default(), vec![1]);
        let mut buf = Vec::new();
        a.encode(&mut buf);
        b.encode(&mut buf);
        let mut reader = Reader::new(&buf);
        assert_eq!(Transaction::decode(&mut reader), Some(a));
        assert_eq!(Transaction::decode(&mut reader), Some(b));
        assert!(reader.is_exhausted());
    }

    #[test]
    fn encoded_len_grows_with_payload() {
        let small = sample();
        let big = Transaction::new(
            AppId(2),
            ClientId(9),
            100,
            RwSet::new([Key(1)], [Key(2)]),
            vec![0; 1024],
        );
        assert!(big.encoded_len() > small.encoded_len());
    }
}
