//! The smart-contract execution interface.

use parblock_ledger::MvccState;
use parblock_types::{AppId, Key, Transaction, Value};

/// A read view of the blockchain state presented to contracts.
///
/// Contracts never write directly: they return their write set in the
/// [`ExecOutcome`], and the hosting executor applies it once the
/// transaction commits (Algorithm 3). This keeps execution deterministic
/// and side-effect free, as the paper's model requires.
pub trait StateReader {
    /// Reads `key`, distinguishing **absence** (`None`) from a stored
    /// value — including stored zeros and empty strings, which `read`
    /// cannot tell apart from a missing key when a contract stores
    /// [`Value::Unit`]-adjacent data. Contract aborts on missing state
    /// should be built on this, so they stay observable.
    fn try_read(&self, key: Key) -> Option<Value>;

    /// Reads the current value of `key` ([`Value::Unit`] if absent).
    fn read(&self, key: Key) -> Value {
        self.try_read(key).unwrap_or_default()
    }
}

/// Reads the newest version of every key, for contract tests and
/// examples. Executors read through position-bound snapshots of the
/// declared read set instead.
impl StateReader for MvccState {
    fn try_read(&self, key: Key) -> Option<Value> {
        self.get_at(key, self.latest_version(key)?)
    }
}

/// The result of executing one transaction, and an agent's vote in a
/// COMMIT message: matching outcomes are counted against τ(A)
/// (Algorithm 3).
///
/// An aborted transaction is the paper's `(x, "abort")` entry in a COMMIT
/// message: it carries no writes but still counts as processed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecOutcome {
    /// The transaction is valid; apply these writes.
    Commit(Vec<(Key, Value)>),
    /// The transaction is invalid at the application level (the reason
    /// is kept for diagnostics).
    Abort(String),
}

impl ExecOutcome {
    /// The writes, if committed.
    #[must_use]
    pub fn writes(&self) -> Option<&[(Key, Value)]> {
        match self {
            ExecOutcome::Commit(w) => Some(w),
            ExecOutcome::Abort(_) => None,
        }
    }

    /// The writes, if committed, by value.
    #[must_use]
    pub fn into_writes(self) -> Option<Vec<(Key, Value)>> {
        match self {
            ExecOutcome::Commit(w) => Some(w),
            ExecOutcome::Abort(_) => None,
        }
    }

    /// Returns `true` when the execution committed.
    #[must_use]
    pub fn is_commit(&self) -> bool {
        matches!(self, ExecOutcome::Commit(_))
    }

    /// Whether two agents' outcomes match for τ(A): commits with equal
    /// writes, or two aborts whatever their reasons, as honest agents
    /// agree on the abort but need not word it alike.
    #[must_use]
    pub fn matches(&self, other: &ExecOutcome) -> bool {
        match (self, other) {
            (ExecOutcome::Commit(a), ExecOutcome::Commit(b)) => a == b,
            (ExecOutcome::Abort(_), ExecOutcome::Abort(_)) => true,
            _ => false,
        }
    }
}

/// A deterministic smart contract: the program code implementing one
/// application's logic.
///
/// Implementations must be pure functions of `(tx, state)` — executors on
/// different nodes must produce byte-identical outcomes so that matching
/// results can be counted against τ(A).
pub trait SmartContract: Send + Sync {
    /// The application this contract implements.
    fn app(&self) -> AppId;

    /// Human-readable contract name.
    fn name(&self) -> &str;

    /// Executes `tx` against `state`.
    ///
    /// Contracts must only read keys in the transaction's declared read
    /// set and only write keys in the declared write set; the execution
    /// engine relies on the declaration for scheduling.
    fn execute(&self, tx: &Transaction, state: &dyn StateReader) -> ExecOutcome;
}

#[cfg(test)]
mod tests {
    use parblock_types::Value;

    use super::*;

    #[test]
    fn try_read_distinguishes_absent_from_zero() {
        let state = MvccState::with_genesis([(Key(1), Value::Int(0))]);
        assert_eq!(state.read(Key(1)), Value::Int(0));
        assert_eq!(state.try_read(Key(1)), Some(Value::Int(0)), "stored zero");
        assert_eq!(state.try_read(Key(2)), None, "absent key");
        assert_eq!(state.read(Key(2)), Value::Unit);
    }

    #[test]
    fn outcome_accessors() {
        let commit = ExecOutcome::Commit(vec![(Key(1), Value::Int(1))]);
        assert!(commit.is_commit());
        assert_eq!(commit.writes().unwrap().len(), 1);
        let abort = ExecOutcome::Abort("insufficient funds".into());
        assert!(!abort.is_commit());
        assert!(abort.writes().is_none());
    }

    #[test]
    fn exec_outcomes_match_by_content() {
        let a = ExecOutcome::Commit(vec![(Key(1), Value::Int(1))]);
        let b = ExecOutcome::Commit(vec![(Key(1), Value::Int(1))]);
        let c = ExecOutcome::Commit(vec![(Key(1), Value::Int(2))]);
        assert!(a.matches(&b));
        assert!(!a.matches(&c));
        let x = ExecOutcome::Abort("one reason".into());
        let y = ExecOutcome::Abort("another".into());
        assert!(x.matches(&y));
        assert!(!a.matches(&x));
        assert!(!x.matches(&a));
    }
}
