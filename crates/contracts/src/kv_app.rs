//! A generic key-value application: the simplest possible contract,
//! useful for workloads that need precise control over read/write sets.

use parblock_types::{AppId, ClientId, Key, RwSet, Transaction, Value};

use crate::traits::{ExecOutcome, SmartContract, StateReader};

/// Operations understood by the [`KvContract`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvOp {
    /// Writes a literal integer.
    Put {
        /// The written key.
        key: Key,
        /// The written value.
        value: i64,
    },
    /// Reads a set of keys and writes `base + Σ reads` to a target key —
    /// a read-modify-write whose footprint is fully controllable, used by
    /// the contention-shaping workload generator.
    Mix {
        /// Keys read.
        reads: Vec<Key>,
        /// Keys written (each receives the same derived value).
        writes: Vec<Key>,
    },
    /// Increments a counter key by `delta`.
    Incr {
        /// The counter key.
        key: Key,
        /// The increment.
        delta: i64,
    },
}

impl KvOp {
    /// The declared read/write set.
    #[must_use]
    pub fn rw_set(&self) -> RwSet {
        match self {
            KvOp::Put { key, .. } => RwSet::write_only([*key]),
            KvOp::Mix { reads, writes } => {
                RwSet::new(reads.iter().copied(), writes.iter().copied())
            }
            KvOp::Incr { key, .. } => RwSet::new([*key], [*key]),
        }
    }

    /// Serializes the operation into a payload.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            KvOp::Put { key, value } => {
                out.push(0);
                out.extend_from_slice(&key.0.to_le_bytes());
                out.extend_from_slice(&value.to_le_bytes());
            }
            KvOp::Mix { reads, writes } => {
                out.push(1);
                for list in [reads, writes] {
                    out.extend_from_slice(&(list.len() as u32).to_le_bytes());
                    for k in list {
                        out.extend_from_slice(&k.0.to_le_bytes());
                    }
                }
            }
            KvOp::Incr { key, delta } => {
                out.push(2);
                out.extend_from_slice(&key.0.to_le_bytes());
                out.extend_from_slice(&delta.to_le_bytes());
            }
        }
        out
    }

    /// Deserializes an operation from a payload.
    #[must_use]
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        let (&tag, rest) = bytes.split_first()?;
        match tag {
            0 => Some(KvOp::Put {
                key: Key(u64::from_le_bytes(rest.get(..8)?.try_into().ok()?)),
                value: i64::from_le_bytes(rest.get(8..16)?.try_into().ok()?),
            }),
            1 => {
                let mut off = 0usize;
                let mut lists: [Vec<Key>; 2] = [Vec::new(), Vec::new()];
                for list in &mut lists {
                    let n = u32::from_le_bytes(rest.get(off..off + 4)?.try_into().ok()?) as usize;
                    off += 4;
                    for _ in 0..n {
                        list.push(Key(u64::from_le_bytes(
                            rest.get(off..off + 8)?.try_into().ok()?,
                        )));
                        off += 8;
                    }
                }
                let [reads, writes] = lists;
                Some(KvOp::Mix { reads, writes })
            }
            2 => Some(KvOp::Incr {
                key: Key(u64::from_le_bytes(rest.get(..8)?.try_into().ok()?)),
                delta: i64::from_le_bytes(rest.get(8..16)?.try_into().ok()?),
            }),
            _ => None,
        }
    }
}

/// The key-value smart contract.
#[derive(Debug, Clone)]
pub struct KvContract {
    app: AppId,
}

impl KvContract {
    /// Creates the contract for application `app`.
    #[must_use]
    pub fn new(app: AppId) -> Self {
        KvContract { app }
    }

    /// Builds a transaction for `op`.
    #[must_use]
    pub fn transaction(&self, client: ClientId, client_ts: u64, op: &KvOp) -> Transaction {
        Transaction::new(self.app, client, client_ts, op.rw_set(), op.encode())
    }
}

impl SmartContract for KvContract {
    fn app(&self) -> AppId {
        self.app
    }

    fn name(&self) -> &str {
        "kv"
    }

    fn execute(&self, tx: &Transaction, state: &dyn StateReader) -> ExecOutcome {
        let Some(op) = KvOp::decode(tx.payload()) else {
            return ExecOutcome::Abort("malformed kv payload".into());
        };
        match op {
            KvOp::Put { key, value } => ExecOutcome::Commit(vec![(key, Value::Int(value))]),
            KvOp::Mix { reads, writes } => {
                let sum: i64 = reads
                    .iter()
                    .map(|k| state.read(*k).as_int().unwrap_or(0))
                    .sum();
                let derived = sum + 1;
                ExecOutcome::Commit(
                    writes.into_iter().map(|k| (k, Value::Int(derived))).collect(),
                )
            }
            KvOp::Incr { key, delta } => {
                let current = state.read(key).as_int().unwrap_or(0);
                ExecOutcome::Commit(vec![(key, Value::Int(current + delta))])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use parblock_ledger::MvccState;

    use super::*;

    #[test]
    fn put_and_incr() {
        let c = KvContract::new(AppId(1));
        let state = MvccState::with_genesis([(Key(1), Value::Int(5))]);
        let tx = c.transaction(ClientId(1), 0, &KvOp::Put { key: Key(2), value: 9 });
        assert_eq!(
            c.execute(&tx, &state).writes().unwrap(),
            &[(Key(2), Value::Int(9))]
        );
        let tx = c.transaction(ClientId(1), 1, &KvOp::Incr { key: Key(1), delta: 3 });
        assert_eq!(
            c.execute(&tx, &state).writes().unwrap(),
            &[(Key(1), Value::Int(8))]
        );
    }

    #[test]
    fn mix_reads_feed_writes() {
        let c = KvContract::new(AppId(1));
        let state = MvccState::with_genesis([(Key(1), Value::Int(10)), (Key(2), Value::Int(20))]);
        let op = KvOp::Mix {
            reads: vec![Key(1), Key(2)],
            writes: vec![Key(3), Key(4)],
        };
        let tx = c.transaction(ClientId(1), 0, &op);
        let outcome = c.execute(&tx, &state);
        assert_eq!(
            outcome.writes().unwrap(),
            &[(Key(3), Value::Int(31)), (Key(4), Value::Int(31))]
        );
    }

    #[test]
    fn ops_round_trip_through_encoding() {
        let ops = [
            KvOp::Put { key: Key(1), value: -7 },
            KvOp::Mix {
                reads: vec![Key(1), Key(2)],
                writes: vec![Key(3)],
            },
            KvOp::Mix { reads: vec![], writes: vec![] },
            KvOp::Incr { key: Key(9), delta: 1 },
        ];
        for op in ops {
            assert_eq!(KvOp::decode(&op.encode()), Some(op.clone()), "{op:?}");
        }
    }

    #[test]
    fn incr_declares_rmw_set() {
        let rw = KvOp::Incr { key: Key(1), delta: 1 }.rw_set();
        assert!(rw.reads().contains(&Key(1)));
        assert!(rw.writes().contains(&Key(1)));
    }

    #[test]
    fn malformed_payload_aborts() {
        let c = KvContract::new(AppId(1));
        let state = MvccState::new();
        let tx = Transaction::new(AppId(1), ClientId(1), 0, RwSet::default(), vec![77]);
        assert!(!c.execute(&tx, &state).is_commit());
    }
}
