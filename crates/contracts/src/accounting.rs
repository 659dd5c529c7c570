//! The paper's evaluation application (§V): "a simple accounting
//! application where each client has several accounts … clients can send
//! requests to transfer assets from one or more of their accounts to other
//! accounts."

use parblock_types::{AppId, ClientId, Key, RwSet, Transaction, Value};

use crate::traits::{ExecOutcome, SmartContract, StateReader};

/// Operations understood by the [`AccountingContract`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccountingOp {
    /// Creates an account with an opening balance.
    Open {
        /// The account key.
        account: Key,
        /// The opening balance (must be non-negative).
        balance: i64,
    },
    /// "Transfer x units from account `from` to account `to`." Valid iff
    /// `from` exists and holds at least `amount`.
    Transfer {
        /// The debited account.
        from: Key,
        /// The credited account.
        to: Key,
        /// The transferred amount (must be positive to be valid).
        amount: i64,
    },
    /// Transfers from several source accounts to one destination ("one or
    /// more of their accounts", §V). Valid iff every source covers its
    /// share.
    MultiTransfer {
        /// Debited accounts with their share of the transfer.
        sources: Vec<(Key, i64)>,
        /// The credited account.
        to: Key,
    },
    /// Reads an account balance (read-only; always valid).
    Audit {
        /// The audited account.
        account: Key,
    },
}

impl AccountingOp {
    /// The declared read/write set of the operation (§III-A: "all records
    /// involved in a transaction are accessed by their primary keys").
    #[must_use]
    pub fn rw_set(&self) -> RwSet {
        match self {
            AccountingOp::Open { account, .. } => RwSet::new([*account], [*account]),
            AccountingOp::Transfer { from, to, .. } => {
                RwSet::new([*from, *to], [*from, *to])
            }
            AccountingOp::MultiTransfer { sources, to } => {
                let keys = || sources.iter().map(|(k, _)| *k).chain([*to]);
                RwSet::new(keys(), keys())
            }
            AccountingOp::Audit { account } => RwSet::read_only([*account]),
        }
    }

    /// Serializes the operation into a transaction payload, allocated
    /// once at its exact size: a transaction keeps it as it is.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let len = match self {
            AccountingOp::Open { .. } => 1 + 8 + 8,
            AccountingOp::Transfer { .. } => 1 + 8 + 8 + 8,
            AccountingOp::MultiTransfer { sources, .. } => 1 + 4 + 16 * sources.len() + 8,
            AccountingOp::Audit { .. } => 1 + 8,
        };
        let mut out = Vec::with_capacity(len);
        match self {
            AccountingOp::Open { account, balance } => {
                out.push(0);
                out.extend_from_slice(&account.0.to_le_bytes());
                out.extend_from_slice(&balance.to_le_bytes());
            }
            AccountingOp::Transfer { from, to, amount } => {
                out.push(1);
                out.extend_from_slice(&from.0.to_le_bytes());
                out.extend_from_slice(&to.0.to_le_bytes());
                out.extend_from_slice(&amount.to_le_bytes());
            }
            AccountingOp::MultiTransfer { sources, to } => {
                out.push(2);
                out.extend_from_slice(&(sources.len() as u32).to_le_bytes());
                for (key, share) in sources {
                    out.extend_from_slice(&key.0.to_le_bytes());
                    out.extend_from_slice(&share.to_le_bytes());
                }
                out.extend_from_slice(&to.0.to_le_bytes());
            }
            AccountingOp::Audit { account } => {
                out.push(3);
                out.extend_from_slice(&account.0.to_le_bytes());
            }
        }
        debug_assert_eq!(out.len(), len, "{self:?}: payload length");
        out
    }

    /// Deserializes an operation from a transaction payload.
    #[must_use]
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        let (&tag, rest) = bytes.split_first()?;
        let u64_at = |off: usize| -> Option<u64> {
            rest.get(off..off + 8)?.try_into().ok().map(u64::from_le_bytes)
        };
        let i64_at = |off: usize| -> Option<i64> {
            rest.get(off..off + 8)?.try_into().ok().map(i64::from_le_bytes)
        };
        match tag {
            0 => Some(AccountingOp::Open {
                account: Key(u64_at(0)?),
                balance: i64_at(8)?,
            }),
            1 => Some(AccountingOp::Transfer {
                from: Key(u64_at(0)?),
                to: Key(u64_at(8)?),
                amount: i64_at(16)?,
            }),
            2 => {
                let n = u32::from_le_bytes(rest.get(..4)?.try_into().ok()?) as usize;
                let mut sources = Vec::with_capacity(n);
                let mut off = 4;
                for _ in 0..n {
                    let key = Key(u64_at(off)?);
                    let share = i64_at(off + 8)?;
                    sources.push((key, share));
                    off += 16;
                }
                Some(AccountingOp::MultiTransfer {
                    sources,
                    to: Key(u64_at(off)?),
                })
            }
            3 => Some(AccountingOp::Audit {
                account: Key(u64_at(0)?),
            }),
            _ => None,
        }
    }
}

/// The accounting smart contract.
#[derive(Debug, Clone)]
pub struct AccountingContract {
    app: AppId,
}

impl AccountingContract {
    /// Creates the contract for application `app`.
    #[must_use]
    pub fn new(app: AppId) -> Self {
        AccountingContract { app }
    }

    /// Builds a signed-ready transaction for `op` (payload + declared
    /// read/write set).
    #[must_use]
    pub fn transaction(&self, client: ClientId, client_ts: u64, op: &AccountingOp) -> Transaction {
        Transaction::new(self.app, client, client_ts, op.rw_set(), op.encode())
    }
}

fn balance_of(state: &dyn StateReader, key: Key) -> Option<i64> {
    state.try_read(key).and_then(|value| value.as_int())
}

impl SmartContract for AccountingContract {
    fn app(&self) -> AppId {
        self.app
    }

    fn name(&self) -> &str {
        "accounting"
    }

    fn execute(&self, tx: &Transaction, state: &dyn StateReader) -> ExecOutcome {
        let Some(op) = AccountingOp::decode(tx.payload()) else {
            return ExecOutcome::Abort("malformed accounting payload".into());
        };
        match op {
            AccountingOp::Open { account, balance } => {
                if balance < 0 {
                    return ExecOutcome::Abort("negative opening balance".into());
                }
                if balance_of(state, account).is_some() {
                    return ExecOutcome::Abort("account already exists".into());
                }
                ExecOutcome::Commit(vec![(account, Value::Int(balance))])
            }
            AccountingOp::Transfer { from, to, amount } => {
                if amount <= 0 {
                    return ExecOutcome::Abort("non-positive transfer amount".into());
                }
                let Some(src) = balance_of(state, from) else {
                    return ExecOutcome::Abort("source account missing".into());
                };
                if src < amount {
                    return ExecOutcome::Abort("insufficient funds".into());
                }
                let dst = balance_of(state, to).unwrap_or(0);
                ExecOutcome::Commit(vec![
                    (from, Value::Int(src - amount)),
                    (to, Value::Int(dst + amount)),
                ])
            }
            AccountingOp::MultiTransfer { sources, to } => {
                let mut writes = Vec::with_capacity(sources.len() + 1);
                let mut total = 0i64;
                for (key, share) in &sources {
                    if *share <= 0 {
                        return ExecOutcome::Abort("non-positive share".into());
                    }
                    let Some(balance) = balance_of(state, *key) else {
                        return ExecOutcome::Abort("source account missing".into());
                    };
                    if balance < *share {
                        return ExecOutcome::Abort("insufficient funds".into());
                    }
                    writes.push((*key, Value::Int(balance - share)));
                    total += share;
                }
                let dst = balance_of(state, to).unwrap_or(0);
                writes.push((to, Value::Int(dst + total)));
                ExecOutcome::Commit(writes)
            }
            AccountingOp::Audit { .. } => ExecOutcome::Commit(Vec::new()),
        }
    }
}

#[cfg(test)]
mod tests {
    use parblock_ledger::MvccState;

    use super::*;

    fn setup() -> (AccountingContract, MvccState) {
        let contract = AccountingContract::new(AppId(0));
        let state = MvccState::with_genesis([
            (Key(1001), Value::Int(100)),
            (Key(1002), Value::Int(50)),
        ]);
        (contract, state)
    }

    fn run(contract: &AccountingContract, state: &MvccState, op: AccountingOp) -> ExecOutcome {
        let tx = contract.transaction(ClientId(1), 0, &op);
        contract.execute(&tx, state)
    }

    #[test]
    fn paper_example_transfer() {
        // "transfer x units from account 1001 to account 1002" — valid iff
        // the balance covers x.
        let (contract, state) = setup();
        let outcome = run(
            &contract,
            &state,
            AccountingOp::Transfer {
                from: Key(1001),
                to: Key(1002),
                amount: 30,
            },
        );
        assert_eq!(
            outcome.writes().unwrap(),
            &[(Key(1001), Value::Int(70)), (Key(1002), Value::Int(80))]
        );
    }

    #[test]
    fn insufficient_funds_aborts() {
        let (contract, state) = setup();
        let outcome = run(
            &contract,
            &state,
            AccountingOp::Transfer {
                from: Key(1001),
                to: Key(1002),
                amount: 1000,
            },
        );
        assert_eq!(outcome, ExecOutcome::Abort("insufficient funds".into()));
    }

    #[test]
    fn missing_source_aborts() {
        let (contract, state) = setup();
        let outcome = run(
            &contract,
            &state,
            AccountingOp::Transfer {
                from: Key(9999),
                to: Key(1002),
                amount: 1,
            },
        );
        assert!(!outcome.is_commit());
    }

    #[test]
    fn non_positive_amount_aborts() {
        let (contract, state) = setup();
        for amount in [0, -5] {
            let outcome = run(
                &contract,
                &state,
                AccountingOp::Transfer {
                    from: Key(1001),
                    to: Key(1002),
                    amount,
                },
            );
            assert!(!outcome.is_commit(), "amount {amount}");
        }
    }

    #[test]
    fn multi_transfer_debits_every_source() {
        let (contract, state) = setup();
        let outcome = run(
            &contract,
            &state,
            AccountingOp::MultiTransfer {
                sources: vec![(Key(1001), 40), (Key(1002), 10)],
                to: Key(1003),
            },
        );
        assert_eq!(
            outcome.writes().unwrap(),
            &[
                (Key(1001), Value::Int(60)),
                (Key(1002), Value::Int(40)),
                (Key(1003), Value::Int(50)),
            ]
        );
    }

    #[test]
    fn multi_transfer_all_or_nothing() {
        let (contract, state) = setup();
        let outcome = run(
            &contract,
            &state,
            AccountingOp::MultiTransfer {
                sources: vec![(Key(1001), 40), (Key(1002), 500)],
                to: Key(1003),
            },
        );
        assert!(!outcome.is_commit());
    }

    #[test]
    fn open_and_double_open() {
        let (contract, mut state) = setup();
        let op = AccountingOp::Open {
            account: Key(2000),
            balance: 5,
        };
        let outcome = run(&contract, &state, op.clone());
        assert!(outcome.is_commit());
        state.apply(
            outcome.writes().unwrap().iter().cloned(),
            parblock_ledger::Version::GENESIS,
        );
        assert!(!run(&contract, &state, op).is_commit(), "double open");
    }

    #[test]
    fn audit_is_read_only_and_valid() {
        let (contract, state) = setup();
        let op = AccountingOp::Audit { account: Key(1001) };
        assert!(op.rw_set().writes().is_empty());
        assert_eq!(run(&contract, &state, op), ExecOutcome::Commit(vec![]));
    }

    #[test]
    fn ops_round_trip_through_encoding() {
        let ops = [
            AccountingOp::Open {
                account: Key(1),
                balance: 10,
            },
            AccountingOp::Transfer {
                from: Key(1),
                to: Key(2),
                amount: 3,
            },
            AccountingOp::MultiTransfer {
                sources: vec![(Key(1), 2), (Key(3), 4)],
                to: Key(5),
            },
            AccountingOp::Audit { account: Key(7) },
        ];
        for op in ops {
            assert_eq!(AccountingOp::decode(&op.encode()), Some(op.clone()), "{op:?}");
        }
    }

    #[test]
    fn malformed_payload_aborts_not_panics() {
        let (contract, state) = setup();
        let tx = Transaction::new(AppId(0), ClientId(1), 0, RwSet::default(), vec![9, 9]);
        assert!(!contract.execute(&tx, &state).is_commit());
        let tx = Transaction::new(AppId(0), ClientId(1), 0, RwSet::default(), vec![]);
        assert!(!contract.execute(&tx, &state).is_commit());
    }

    #[test]
    fn rw_sets_match_declared_keys() {
        let op = AccountingOp::Transfer {
            from: Key(1),
            to: Key(2),
            amount: 1,
        };
        let rw = op.rw_set();
        assert!(rw.reads().contains(&Key(1)) && rw.reads().contains(&Key(2)));
        assert!(rw.writes().contains(&Key(1)) && rw.writes().contains(&Key(2)));
    }
}
