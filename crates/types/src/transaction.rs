//! Transactions: a client request for one application, with a declared
//! read/write set and an opaque, contract-specific payload.
//!
//! Transactions live in packed, immutable tables: a block's in one table,
//! a decoded batch's in one, a transaction built or decoded on its own in
//! a table of one row. A [`Transaction`] is a handle to one row.

use std::fmt;
use std::ops::Deref;
use std::slice;
use std::sync::Arc;

use crate::rwset::key_set;
use crate::wire::{self, Wire};
use crate::{AppId, ClientId, Key, RwRef, RwSet, TxId};

/// Microsecond timestamp relative to an arbitrary epoch.
pub type Timestamp = u64;

/// The shortest encoding of a transaction: client, timestamp, app and
/// three empty length prefixes. Bounds a hostile transaction count.
const MIN_ENCODED_LEN: usize = 4 + 8 + 8 + 3 * 8;

/// A transaction submitted by a client for a given application.
///
/// The payload is opaque to the ordering service: orderers only need the
/// application id (for access control / agent routing) and the read/write
/// set (for dependency-graph generation, §III-A). Executors decode the
/// payload with the application's smart contract.
///
/// A transaction is a handle to one row of an immutable, shared table:
/// an `Arc` and a row index. `clone()` is a reference-count bump, so the
/// cutter, the dispatcher and the ledger all hold the row the node
/// decoded or packed, not copies of it. Equality compares content, not
/// tables.
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
/// assert_eq!(tx.rw_set().writes(), &[Key(1001), Key(1002)]);
/// ```
#[derive(Clone)]
pub struct Transaction {
    table: Arc<Table>,
    row: u32,
}

/// Transactions packed one row each: the fixed-size fields in `rows`,
/// every row's keys in one slice and every payload in another, each
/// row's part ending where the next row's starts.
struct Table {
    rows: Rows,
    keys: Box<[Key]>,
    bytes: Box<[u8]>,
}

/// A table's rows. A table of one row (a transaction built or decoded
/// on its own, a batch of one) keeps it inline rather than behind an
/// allocation of its own.
enum Rows {
    One(Row),
    Many(Box<[Row]>),
}

impl Rows {
    /// `count` rows from `next`, or `None` as soon as it returns `None`.
    fn fill(count: usize, mut next: impl FnMut() -> Option<Row>) -> Option<Self> {
        if count == 1 {
            return next().map(Rows::One);
        }
        let mut rows = Vec::with_capacity(count);
        for _ in 0..count {
            rows.push(next()?);
        }
        Some(Rows::Many(rows.into_boxed_slice()))
    }
}

impl Deref for Rows {
    type Target = [Row];

    fn deref(&self) -> &[Row] {
        match self {
            Rows::One(row) => slice::from_ref(row),
            Rows::Many(rows) => rows,
        }
    }
}

/// One transaction's fixed-size fields and where its key sets and
/// payload start. ρ(T) is `keys[keys..reads_end]` and ω(T) is
/// `keys[writes_start..end]`, with `end` the next row's `keys`. A packed
/// or decoded table stores an ω(T) equal to ρ(T) once (`writes_start ==
/// keys`); any other ω(T), and every one [`Transaction::new`] keeps,
/// follows ρ(T) (`writes_start == reads_end`).
struct Row {
    client_ts: u64,
    client: ClientId,
    keys: u32,
    reads_end: u32,
    writes_start: u32,
    payload: u32,
    app: AppId,
}

// A block pays one handle and one row per transaction.
const _: () = assert!(std::mem::size_of::<Transaction>() == 16);
const _: () = assert!(std::mem::size_of::<Row>() == 32);

impl Table {
    /// Where row `row`'s keys and payload end.
    fn ends(&self, row: usize) -> (usize, usize) {
        match self.rows.get(row + 1) {
            Some(next) => (next.keys as usize, next.payload as usize),
            None => (self.keys.len(), self.bytes.len()),
        }
    }

    /// A handle to each row, in order. Every table holds fewer than 2³²
    /// rows: a decode refuses a larger count.
    fn handles(self: &Arc<Self>) -> Vec<Transaction> {
        (0..self.rows.len())
            .map(|row| Transaction {
                table: Arc::clone(self),
                row: row as u32,
            })
            .collect()
    }
}

/// The keys and payload bytes of a [`Table`] being filled; each row is
/// returned to the caller, which collects them.
struct TableBuilder {
    keys: Vec<Key>,
    bytes: Vec<u8>,
}

impl TableBuilder {
    fn with_capacity(keys: usize, bytes: usize) -> Self {
        TableBuilder {
            keys: Vec::with_capacity(keys),
            bytes: Vec::with_capacity(bytes),
        }
    }

    /// Appends a row's key sets and payload. The read set may arrive in
    /// any order and with any repetition and is normalised in place; a
    /// write set that arrives as the normalised read set is stored once,
    /// any other is appended and normalised. Returns `None` when an
    /// offset does not fit the row's `u32`.
    fn push<W>(
        &mut self,
        id: TxId,
        app: AppId,
        reads: impl IntoIterator<Item = Key>,
        writes: W,
        payload: &[u8],
    ) -> Option<Row>
    where
        W: IntoIterator<Item = Key>,
        W::IntoIter: Clone,
    {
        let start = self.keys.len();
        let reads_end = self.extend_set(reads);
        let writes = writes.into_iter();
        let writes_start = if writes.clone().eq(self.keys[start..].iter().copied()) {
            start
        } else {
            self.extend_set(writes);
            reads_end
        };
        let payload_at = self.bytes.len();
        self.bytes.extend_from_slice(payload);
        let offset = |at: usize| u32::try_from(at).ok();
        Some(Row {
            client_ts: id.client_ts,
            client: id.client,
            keys: offset(start)?,
            reads_end: offset(reads_end)?,
            writes_start: offset(writes_start)?,
            payload: offset(payload_at)?,
            app,
        })
    }

    /// Appends one key set, normalised; returns where it ends.
    fn extend_set(&mut self, set: impl IntoIterator<Item = Key>) -> usize {
        let start = self.keys.len();
        self.keys.extend(set);
        let kept = key_set(&mut self.keys[start..]);
        self.keys.truncate(start + kept);
        self.keys.len()
    }

    /// Decodes one transaction from `reader` into a row.
    fn decode(&mut self, reader: &mut wire::Reader<'_>) -> Option<Row> {
        let client = ClientId(reader.u32()?);
        let client_ts = reader.u64()?;
        let app = AppId(u16::try_from(reader.u64()?).ok()?);
        let reads = reader.keys()?;
        let writes = reader.keys()?;
        let payload = reader.bytes()?;
        self.push(TxId::new(client, client_ts), app, reads, writes, payload)
    }

    fn finish(self, rows: Rows) -> Arc<Table> {
        Arc::new(Table {
            rows,
            keys: self.keys.into_boxed_slice(),
            bytes: self.bytes.into_boxed_slice(),
        })
    }
}

/// The keys and payload bytes a table of the `count` transactions at
/// `reader` holds, so it is allocated once at its size. Exact for a
/// canonical encoding, whose equal key sets encode to equal lists; for
/// key lists that arrive unsorted or repeated, a first guess the table
/// grows or shrinks from. `None` when the bytes do not hold them.
fn measure(mut reader: wire::Reader<'_>, count: usize) -> Option<(usize, usize)> {
    let (mut keys, mut bytes) = (0, 0);
    for _ in 0..count {
        reader.u32()?;
        reader.u64()?;
        reader.u64()?;
        let reads = reader.keys()?;
        let writes = reader.keys()?;
        keys += reads.len();
        if !reads.eq(writes.clone()) {
            keys += writes.len();
        }
        bytes += reader.bytes()?.len();
    }
    Some((keys, bytes))
}

impl Transaction {
    /// Creates a transaction in a table of its own.
    ///
    /// `client_ts` is the client-local timestamp: the paper uses it to
    /// totally order each client's requests and for exactly-once semantics.
    /// The table keeps `rw`'s keys and the payload as they are when the
    /// payload's length fills its capacity, and shrinks the payload to fit
    /// otherwise.
    ///
    /// # Panics
    ///
    /// If `rw` reads 2³² keys or more.
    #[must_use]
    pub fn new(
        app: AppId,
        client: ClientId,
        client_ts: u64,
        rw: RwSet,
        payload: Vec<u8>,
    ) -> Self {
        let (keys, split) = rw.into_parts();
        let split = u32::try_from(split).expect("a read set of fewer than 2^32 keys");
        let row = Row {
            client_ts,
            client,
            keys: 0,
            reads_end: split,
            writes_start: split,
            payload: 0,
            app,
        };
        Transaction {
            table: Arc::new(Table {
                rows: Rows::One(row),
                keys,
                bytes: payload.into_boxed_slice(),
            }),
            row: 0,
        }
    }

    fn fields(&self) -> &Row {
        &self.table.rows[self.row as usize]
    }

    /// The globally unique transaction id.
    #[must_use]
    pub fn id(&self) -> TxId {
        let row = self.fields();
        TxId::new(row.client, row.client_ts)
    }

    /// The application this transaction belongs to.
    #[must_use]
    pub fn app(&self) -> AppId {
        self.fields().app
    }

    /// The issuing client.
    #[must_use]
    pub fn client(&self) -> ClientId {
        self.fields().client
    }

    /// The declared read/write set, borrowed from the table.
    #[must_use]
    pub fn rw_set(&self) -> RwRef<'_> {
        let row = self.fields();
        let (end, _) = self.table.ends(self.row as usize);
        let keys = &self.table.keys;
        RwRef::new(
            &keys[row.keys as usize..row.reads_end as usize],
            &keys[row.writes_start as usize..end],
        )
    }

    /// The opaque contract payload.
    #[must_use]
    pub fn payload(&self) -> &[u8] {
        let (_, end) = self.table.ends(self.row as usize);
        &self.table.bytes[self.fields().payload as usize..end]
    }

    /// Serialized size in bytes, used by the block cutter's
    /// maximal-block-size condition (§IV-B). Computed from the field
    /// widths of [`Wire::encode`] below, without encoding.
    #[must_use]
    pub fn encoded_len(&self) -> usize {
        const LEN_PREFIX: usize = 8;
        let rw = self.rw_set();
        let key_set = |set: &[Key]| LEN_PREFIX + 8 * set.len();
        4 + 8 + 8 // client, client_ts, app
            + key_set(rw.reads())
            + key_set(rw.writes())
            + LEN_PREFIX
            + self.payload().len()
    }

    /// Decodes a transaction from a [`Reader`](wire::Reader) positioned at
    /// a `Transaction::encode` boundary, into a table of its own. Returns
    /// `None` on malformed input.
    #[must_use]
    pub fn decode(reader: &mut wire::Reader<'_>) -> Option<Self> {
        Self::decode_many(reader, 1)?.pop()
    }

    /// Decodes `count` consecutive encoded transactions into one table:
    /// a batch or a block's body costs a handful of allocations, not
    /// three per transaction. Returns `None` on malformed input, a count
    /// the remaining bytes cannot hold included.
    #[must_use]
    pub fn decode_many(reader: &mut wire::Reader<'_>, count: usize) -> Option<Vec<Self>> {
        if count > reader.remaining() / MIN_ENCODED_LEN || u32::try_from(count).is_err() {
            return None;
        }
        let (keys, bytes) = measure(reader.clone(), count)?;
        let mut table = TableBuilder::with_capacity(keys, bytes);
        let rows = Rows::fill(count, || table.decode(reader))?;
        Some(table.finish(rows).handles())
    }

    /// Decodes a transaction from exactly these bytes.
    #[must_use]
    pub fn from_wire(bytes: &[u8]) -> Option<Self> {
        let mut reader = wire::Reader::new(bytes);
        let tx = Self::decode(&mut reader)?;
        reader.is_exhausted().then_some(tx)
    }

    /// `txs` as handles to the rows of one table, in order: a block's
    /// transactions. Transactions that already are exactly one table's
    /// rows in order are returned as they are; others are copied into a
    /// new table, whose handles replace them in the same vector.
    ///
    /// # Panics
    ///
    /// If the keys or payload bytes of `txs` reach 2³².
    pub(crate) fn pack(mut txs: Vec<Self>) -> Vec<Self> {
        let Some(first) = txs.first() else {
            return txs;
        };
        let packed = first.table.rows.len() == txs.len()
            && txs
                .iter()
                .zip(0..)
                .all(|(tx, row)| Arc::ptr_eq(&tx.table, &first.table) && tx.row == row);
        if packed {
            return txs;
        }
        let (mut keys, mut bytes) = (0, 0);
        for tx in &txs {
            let rw = tx.rw_set();
            keys += rw.reads().len();
            if rw.writes() != rw.reads() {
                keys += rw.writes().len();
            }
            bytes += tx.payload().len();
        }
        let mut table = TableBuilder::with_capacity(keys, bytes);
        let mut source = txs.iter();
        let rows = Rows::fill(txs.len(), || {
            let tx = source.next()?;
            let rw = tx.rw_set();
            let (reads, writes) = (rw.reads().iter().copied(), rw.writes().iter().copied());
            table.push(tx.id(), tx.app(), reads, writes, tx.payload())
        })
        .expect("a block of fewer than 2^32 keys and payload bytes");
        let table = table.finish(rows);
        for (row, tx) in (0..).zip(&mut txs) {
            *tx = Transaction {
                table: Arc::clone(&table),
                row,
            };
        }
        txs
    }
}

/// Content equality: the same id, application, key sets and payload,
/// whichever tables hold them.
impl PartialEq for Transaction {
    fn eq(&self, other: &Self) -> bool {
        (Arc::ptr_eq(&self.table, &other.table) && self.row == other.row)
            || (self.id() == other.id()
                && self.app() == other.app()
                && self.rw_set() == other.rw_set()
                && self.payload() == other.payload())
    }
}

impl Eq for Transaction {}

/// Shown as its content, not its table.
impl fmt::Debug for Transaction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rw = self.rw_set();
        f.debug_struct("Transaction")
            .field("id", &self.id())
            .field("app", &self.app())
            .field("reads", &rw.reads())
            .field("writes", &rw.writes())
            .field("payload", &self.payload())
            .finish()
    }
}

impl Wire for Transaction {
    fn encode(&self, out: &mut Vec<u8>) {
        let row = self.fields();
        let rw = self.rw_set();
        row.client.0.encode(out);
        row.client_ts.encode(out);
        u64::from(row.app.0).encode(out);
        wire::encode_key_set(rw.reads(), out);
        wire::encode_key_set(rw.writes(), out);
        self.payload().encode(out);
    }

    fn wire_len_hint(&self) -> usize {
        self.encoded_len()
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
