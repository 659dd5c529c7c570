//! An escrow application: multi-party, multi-key contract logic of the
//! kind the paper's introduction motivates (supply-chain style workflows
//! across organizations sharing a datastore).
//!
//! An escrow is a record holding funds in flight between a buyer and a
//! seller. Opening it debits the buyer; releasing credits the seller;
//! refunding credits the buyer back. Escrow transactions intentionally
//! touch *account keys of another application's key space* when configured
//! so, producing the cross-application conflicts of Fig 4(c).

use parblock_types::{AppId, ClientId, Key, RwSet, Transaction, Value};

use crate::traits::{ExecOutcome, SmartContract, StateReader};

/// Operations understood by the [`EscrowContract`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EscrowOp {
    /// Opens an escrow: debits `buyer` by `amount` into `escrow`.
    Open {
        /// Key of the escrow record (must not exist).
        escrow: Key,
        /// The paying account.
        buyer: Key,
        /// The receiving account (recorded for release).
        seller: Key,
        /// The escrowed amount.
        amount: i64,
    },
    /// Releases an escrow to its seller.
    Release {
        /// Key of the escrow record.
        escrow: Key,
        /// The seller account (must match the recorded one).
        seller: Key,
    },
    /// Refunds an escrow to its buyer.
    Refund {
        /// Key of the escrow record.
        escrow: Key,
        /// The buyer account (must match the recorded one).
        buyer: Key,
    },
}

impl EscrowOp {
    /// The declared read/write set.
    #[must_use]
    pub fn rw_set(&self) -> RwSet {
        match self {
            EscrowOp::Open { escrow, buyer, .. } => {
                RwSet::new([*escrow, *buyer], [*escrow, *buyer])
            }
            EscrowOp::Release { escrow, seller } => {
                RwSet::new([*escrow, *seller], [*escrow, *seller])
            }
            EscrowOp::Refund { escrow, buyer } => {
                RwSet::new([*escrow, *buyer], [*escrow, *buyer])
            }
        }
    }

    /// Serializes the operation into a payload.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let mut put = |k: &Key| out.extend_from_slice(&k.0.to_le_bytes());
        match self {
            EscrowOp::Open {
                escrow,
                buyer,
                seller,
                amount,
            } => {
                put(escrow);
                put(buyer);
                put(seller);
                let mut tagged = vec![0u8];
                tagged.extend_from_slice(&out);
                tagged.extend_from_slice(&amount.to_le_bytes());
                tagged
            }
            EscrowOp::Release { escrow, seller } => {
                put(escrow);
                put(seller);
                let mut tagged = vec![1u8];
                tagged.extend_from_slice(&out);
                tagged
            }
            EscrowOp::Refund { escrow, buyer } => {
                put(escrow);
                put(buyer);
                let mut tagged = vec![2u8];
                tagged.extend_from_slice(&out);
                tagged
            }
        }
    }

    /// Deserializes an operation from a payload.
    #[must_use]
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        let (&tag, rest) = bytes.split_first()?;
        let key_at = |off: usize| -> Option<Key> {
            rest.get(off..off + 8)
                .and_then(|s| s.try_into().ok())
                .map(|b| Key(u64::from_le_bytes(b)))
        };
        match tag {
            0 => Some(EscrowOp::Open {
                escrow: key_at(0)?,
                buyer: key_at(8)?,
                seller: key_at(16)?,
                amount: i64::from_le_bytes(rest.get(24..32)?.try_into().ok()?),
            }),
            1 => Some(EscrowOp::Release {
                escrow: key_at(0)?,
                seller: key_at(8)?,
            }),
            2 => Some(EscrowOp::Refund {
                escrow: key_at(0)?,
                buyer: key_at(8)?,
            }),
            _ => None,
        }
    }
}

/// The escrow smart contract.
///
/// Escrow records are stored as `Value::Bytes([amount, seller, buyer])`
/// encodings under the escrow key; released/refunded escrows are cleared
/// to [`Value::Unit`].
#[derive(Debug, Clone)]
pub struct EscrowContract {
    app: AppId,
}

fn encode_escrow(amount: i64, seller: Key, buyer: Key) -> Value {
    let mut bytes = Vec::with_capacity(24);
    bytes.extend_from_slice(&amount.to_le_bytes());
    bytes.extend_from_slice(&seller.0.to_le_bytes());
    bytes.extend_from_slice(&buyer.0.to_le_bytes());
    Value::Bytes(bytes)
}

fn decode_escrow(value: &Value) -> Option<(i64, Key, Key)> {
    let bytes = value.as_bytes()?;
    if bytes.len() != 24 {
        return None;
    }
    let amount = i64::from_le_bytes(bytes[..8].try_into().ok()?);
    let seller = Key(u64::from_le_bytes(bytes[8..16].try_into().ok()?));
    let buyer = Key(u64::from_le_bytes(bytes[16..24].try_into().ok()?));
    Some((amount, seller, buyer))
}

impl EscrowContract {
    /// Creates the contract for application `app`.
    #[must_use]
    pub fn new(app: AppId) -> Self {
        EscrowContract { app }
    }

    /// Builds a transaction for `op`.
    #[must_use]
    pub fn transaction(&self, client: ClientId, client_ts: u64, op: &EscrowOp) -> Transaction {
        Transaction::new(self.app, client, client_ts, op.rw_set(), op.encode())
    }
}

impl SmartContract for EscrowContract {
    fn app(&self) -> AppId {
        self.app
    }

    fn name(&self) -> &str {
        "escrow"
    }

    fn execute(&self, tx: &Transaction, state: &dyn StateReader) -> ExecOutcome {
        let Some(op) = EscrowOp::decode(tx.payload()) else {
            return ExecOutcome::Abort("malformed escrow payload".into());
        };
        match op {
            EscrowOp::Open {
                escrow,
                buyer,
                seller,
                amount,
            } => {
                if amount <= 0 {
                    return ExecOutcome::Abort("non-positive escrow amount".into());
                }
                if !state.read(escrow).is_unit() {
                    return ExecOutcome::Abort("escrow already exists".into());
                }
                let Some(funds) = state.read(buyer).as_int() else {
                    return ExecOutcome::Abort("buyer account missing".into());
                };
                if funds < amount {
                    return ExecOutcome::Abort("insufficient funds".into());
                }
                ExecOutcome::Commit(vec![
                    (buyer, Value::Int(funds - amount)),
                    (escrow, encode_escrow(amount, seller, buyer)),
                ])
            }
            EscrowOp::Release { escrow, seller } => {
                let Some((amount, recorded_seller, _)) = decode_escrow(&state.read(escrow))
                else {
                    return ExecOutcome::Abort("escrow missing".into());
                };
                if recorded_seller != seller {
                    return ExecOutcome::Abort("seller mismatch".into());
                }
                let funds = state.read(seller).as_int().unwrap_or(0);
                ExecOutcome::Commit(vec![
                    (seller, Value::Int(funds + amount)),
                    (escrow, Value::Unit),
                ])
            }
            EscrowOp::Refund { escrow, buyer } => {
                let Some((amount, _, recorded_buyer)) = decode_escrow(&state.read(escrow))
                else {
                    return ExecOutcome::Abort("escrow missing".into());
                };
                if recorded_buyer != buyer {
                    return ExecOutcome::Abort("buyer mismatch".into());
                }
                let funds = state.read(buyer).as_int().unwrap_or(0);
                ExecOutcome::Commit(vec![
                    (buyer, Value::Int(funds + amount)),
                    (escrow, Value::Unit),
                ])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use parblock_ledger::{MvccState, Version};

    use super::*;

    fn apply(state: &mut MvccState, outcome: &ExecOutcome) {
        state.apply(outcome.writes().unwrap().iter().cloned(), Version::GENESIS);
    }

    fn open_escrow(contract: &EscrowContract, state: &mut MvccState) {
        let op = EscrowOp::Open {
            escrow: Key(500),
            buyer: Key(1),
            seller: Key(2),
            amount: 40,
        };
        let tx = contract.transaction(ClientId(1), 0, &op);
        let outcome = contract.execute(&tx, state);
        assert!(outcome.is_commit());
        apply(state, &outcome);
    }

    fn setup() -> (EscrowContract, MvccState) {
        let contract = EscrowContract::new(AppId(2));
        let state = MvccState::with_genesis([(Key(1), Value::Int(100)), (Key(2), Value::Int(0))]);
        (contract, state)
    }

    #[test]
    fn open_then_release_pays_seller() {
        let (contract, mut state) = setup();
        open_escrow(&contract, &mut state);
        assert_eq!(state.latest(Key(1)), Value::Int(60));

        let op = EscrowOp::Release {
            escrow: Key(500),
            seller: Key(2),
        };
        let tx = contract.transaction(ClientId(1), 1, &op);
        let outcome = contract.execute(&tx, &state);
        apply(&mut state, &outcome);
        assert_eq!(state.latest(Key(2)), Value::Int(40));
        assert!(state.latest(Key(500)).is_unit());
    }

    #[test]
    fn open_then_refund_returns_to_buyer() {
        let (contract, mut state) = setup();
        open_escrow(&contract, &mut state);
        let op = EscrowOp::Refund {
            escrow: Key(500),
            buyer: Key(1),
        };
        let tx = contract.transaction(ClientId(1), 1, &op);
        let outcome = contract.execute(&tx, &state);
        apply(&mut state, &outcome);
        assert_eq!(state.latest(Key(1)), Value::Int(100));
    }

    #[test]
    fn double_release_aborts() {
        let (contract, mut state) = setup();
        open_escrow(&contract, &mut state);
        let op = EscrowOp::Release {
            escrow: Key(500),
            seller: Key(2),
        };
        let tx = contract.transaction(ClientId(1), 1, &op);
        let outcome = contract.execute(&tx, &state);
        apply(&mut state, &outcome);
        assert!(!contract.execute(&tx, &state).is_commit());
    }

    #[test]
    fn wrong_party_aborts() {
        let (contract, mut state) = setup();
        open_escrow(&contract, &mut state);
        let release = EscrowOp::Release {
            escrow: Key(500),
            seller: Key(9),
        };
        let tx = contract.transaction(ClientId(1), 1, &release);
        assert!(!contract.execute(&tx, &state).is_commit());
    }

    #[test]
    fn insufficient_buyer_funds_abort_open() {
        let (contract, state) = setup();
        let op = EscrowOp::Open {
            escrow: Key(501),
            buyer: Key(1),
            seller: Key(2),
            amount: 1000,
        };
        let tx = contract.transaction(ClientId(1), 0, &op);
        assert!(!contract.execute(&tx, &state).is_commit());
    }

    #[test]
    fn ops_round_trip_through_encoding() {
        let ops = [
            EscrowOp::Open {
                escrow: Key(1),
                buyer: Key(2),
                seller: Key(3),
                amount: 9,
            },
            EscrowOp::Release {
                escrow: Key(1),
                seller: Key(3),
            },
            EscrowOp::Refund {
                escrow: Key(1),
                buyer: Key(2),
            },
        ];
        for op in ops {
            assert_eq!(EscrowOp::decode(&op.encode()), Some(op.clone()), "{op:?}");
        }
    }
}
