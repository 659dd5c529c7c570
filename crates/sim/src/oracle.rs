//! The four correctness oracles checked after every simulated run
//! (DESIGN.md §10).
//!
//! 1. **Conflict serializability** — the committed history (the
//!    observer's sealed chain) must be equivalent to a *sequential*
//!    replay in dependency order. In-block position order is a valid
//!    topological order of every OXII dependency graph (edges always
//!    point from earlier to later positions, following the paper's
//!    timestamp order), so the replay executes each block's transactions
//!    serially in position order and compares state digests height by
//!    height — the conflict-serializability equivalence Bartoletti et
//!    al. formalize for blockchain transaction parallelism.
//! 2. **Replica convergence** — every live replica's chain is a prefix
//!    of the observer's (byte-equal hash at its height), its state
//!    digest at the commit watermark matches the replay at that height,
//!    and replicas never touched by a fault reach the full chain.
//! 3. **Exactly-once** — no transaction id appears twice in the chain,
//!    and for drained runs the committed+aborted set equals the
//!    submitted set: nothing lost across crash/recovery, nothing
//!    duplicated by quorum re-delivery.
//! 4. **Recovery equivalence** — a run with crash/partition faults must
//!    end with the same chain and state as the *uninterrupted* run of
//!    the same seed.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parblock_contracts::{AppRegistry, ExecOutcome, StateReader};
use parblock_crypto::hash_wire;
use parblock_ledger::{prune_to_sealed, Ledger, MvccState, Version};
use parblock_types::{Block, BlockNumber, Hash32, Key, SeqNo, TxId, Value};
use parblock_workload::WorkloadGen;
use parblockchain::{ClusterSpec, SimOutcome};

/// A snapshot of a transaction's declared read set, mirroring the
/// executor's snapshot semantics: declared-but-absent keys read as
/// `None`, undeclared reads are flagged and abort the transaction.
struct ReplayReader {
    entries: HashMap<Key, Option<Value>>,
    undeclared: AtomicBool,
}

impl StateReader for ReplayReader {
    fn try_read(&self, key: Key) -> Option<Value> {
        match self.entries.get(&key) {
            Some(present) => present.clone(),
            None => {
                self.undeclared.store(true, Ordering::Relaxed);
                None
            }
        }
    }
}

/// The sequential dependency-order replay of a chain.
#[derive(Debug, Clone)]
pub struct Replay {
    /// `digests[h]` = state digest after sealing block `h`
    /// (`digests[0]` = the genesis digest).
    pub digests: Vec<Hash32>,
    /// `heads[h]` = chain head hash at height `h` (`heads[0]` = the
    /// genesis hash).
    pub heads: Vec<Hash32>,
    /// Committed transaction count.
    pub committed: u64,
    /// Aborted transaction count.
    pub aborted: u64,
}

/// Executes `chain` sequentially — every block in order, every
/// transaction in position order (a topological order of its dependency
/// graph), each against the fully-applied prefix state — recording the
/// state digest and head hash at every height.
///
/// This is the serializability reference: a parallel OXII execution is
/// conflict-serializable iff it converges to these digests.
#[must_use]
pub fn serial_replay(
    chain: &[Arc<Block>],
    genesis: &[(Key, Value)],
    registry: &AppRegistry,
) -> Replay {
    let mut state = MvccState::with_genesis(genesis.iter().cloned());
    let mut digests = vec![state.digest()];
    let mut heads = vec![Ledger::genesis_hash()];
    let mut committed = 0u64;
    let mut aborted = 0u64;
    for block in chain {
        for (seq, tx) in block.iter_seq() {
            let position = Version::new(block.number(), seq);
            let entries: HashMap<Key, Option<Value>> = tx
                .rw_set()
                .reads()
                .iter()
                .map(|key| (*key, state.get_at(*key, position)))
                .collect();
            let reader = ReplayReader {
                entries,
                undeclared: AtomicBool::new(false),
            };
            let Ok(contract) = registry.contract(tx.app()) else {
                aborted += 1;
                continue;
            };
            // Mirrors `pool::execute`: an access outside the
            // declared sets aborts.
            match contract.execute(tx, &reader) {
                ExecOutcome::Commit(writes)
                    if !reader.undeclared.load(Ordering::Relaxed)
                        && writes
                            .iter()
                            .all(|(key, _)| tx.rw_set().declares_write(*key)) =>
                {
                    state.apply(writes, position);
                    committed += 1;
                }
                _ => aborted += 1,
            }
        }
        // Seal, then digest at the watermark, as the executor does.
        prune_to_sealed(block, &mut state);
        digests.push(state.digest_at(Version::new(block.number(), SeqNo(u32::MAX))));
        heads.push(hash_wire(block.as_ref()));
    }
    Replay {
        digests,
        heads,
        committed,
        aborted,
    }
}

fn height_of(replay: &Replay) -> u64 {
    (replay.heads.len() - 1) as u64
}

/// Oracle 1: conflict serializability of the committed history.
///
/// # Errors
///
/// A description of the violation: the observer's state diverged from
/// the sequential dependency-order replay, or its chain does not link.
pub fn check_serializability(
    spec: &ClusterSpec,
    outcome: &SimOutcome,
    replay: &Replay,
) -> Result<(), String> {
    // The chain itself must link (heads are recomputed from the bytes).
    let mut prev = Ledger::genesis_hash();
    for block in &outcome.observer_chain {
        if block.header().prev_hash != prev {
            return Err(format!(
                "observer chain breaks at block {}: prev_hash does not link",
                block.number()
            ));
        }
        prev = hash_wire(block.as_ref());
    }
    let observer = spec.observer();
    let replica = outcome
        .replicas
        .iter()
        .find(|r| r.node == observer)
        .ok_or_else(|| "observer replica missing from outcome".to_string())?;
    let h = replica.height as usize;
    if h >= replay.digests.len() {
        return Err(format!(
            "observer height {h} exceeds replayed chain length {}",
            replay.digests.len() - 1
        ));
    }
    if replica.state_digest != replay.digests[h] {
        return Err(format!(
            "NOT conflict-serializable: observer state digest at height {h} \
             ({}) != sequential dependency-order replay ({})",
            replica.state_digest.to_hex(),
            replay.digests[h].to_hex()
        ));
    }
    Ok(())
}

/// Oracle 2: replica convergence / prefix consistency.
///
/// # Errors
///
/// A description of the violation: a replica holds a chain that is not
/// a byte-equal prefix of the observer's, a state digest inconsistent
/// with its own watermark, or an unfaulted replica/orderer, or an orderer
/// restarted and not faulted since, failed to reach the full chain.
pub fn check_convergence(outcome: &SimOutcome, replay: &Replay) -> Result<(), String> {
    let full = height_of(replay);
    for replica in &outcome.replicas {
        let h = replica.height;
        let expected_head = replay
            .heads
            .get(h as usize)
            .ok_or_else(|| format!("replica {:?} is ahead of the observer chain", replica.node))?;
        if replica.head != *expected_head {
            return Err(format!(
                "replica {:?} diverged: head at height {h} is {} but the \
                 observer chain has {}",
                replica.node,
                replica.head.to_hex(),
                expected_head.to_hex()
            ));
        }
        if replica.state_digest != replay.digests[h as usize] {
            return Err(format!(
                "replica {:?} state diverged at its watermark {h}: {} != replay {}",
                replica.node,
                replica.state_digest.to_hex(),
                replay.digests[h as usize].to_hex()
            ));
        }
        if !replica.faulted && outcome.completed && h != full {
            return Err(format!(
                "unfaulted replica {:?} stalled at height {h} of {full}",
                replica.node
            ));
        }
    }
    for orderer in &outcome.orderers {
        let h = orderer.next_number.0 - 1;
        let expected_head = replay.heads.get(h as usize).ok_or_else(|| {
            format!("orderer {:?} emitted beyond the observer chain", orderer.node)
        })?;
        if orderer.head != *expected_head {
            return Err(format!(
                "orderer {:?} chain diverged at height {h}: {} != {}",
                orderer.node,
                orderer.head.to_hex(),
                expected_head.to_hex()
            ));
        }
        // A restart recovers what the orderer missed, so an orderer
        // restarted and not faulted since is held to the full chain too.
        if (!orderer.faulted || orderer.rejoined) && outcome.completed && h != full {
            let which = if orderer.faulted { "restarted" } else { "unfaulted" };
            return Err(format!(
                "{which} orderer {:?} stalled at height {h} of {full}",
                orderer.node
            ));
        }
    }
    Ok(())
}

/// Oracle 3: exactly-once — nothing committed twice, nothing lost.
///
/// # Errors
///
/// A description of the violation: a duplicated transaction id in the
/// chain, a chain transaction that was never submitted, or (for drained
/// runs) a submitted transaction missing from the chain.
pub fn check_exactly_once(outcome: &SimOutcome) -> Result<(), String> {
    let submitted: HashSet<TxId> = outcome.submitted.iter().copied().collect();
    let mut in_chain: HashSet<TxId> = HashSet::new();
    for block in &outcome.observer_chain {
        for tx in block.transactions() {
            let id = tx.id();
            if !in_chain.insert(id) {
                return Err(format!(
                    "transaction {id:?} appears twice in the chain (block {})",
                    block.number()
                ));
            }
            if !submitted.contains(&id) {
                return Err(format!("chain contains never-submitted transaction {id:?}"));
            }
        }
    }
    if outcome.completed {
        for id in &outcome.submitted {
            if !in_chain.contains(id) {
                return Err(format!(
                    "transaction {id:?} was submitted and acknowledged processed \
                     but is missing from the chain (lost across recovery?)"
                ));
            }
        }
        let processed = outcome.report.committed + outcome.report.aborted;
        if processed != outcome.submitted.len() as u64 {
            return Err(format!(
                "observer processed {processed} transactions for {} submissions",
                outcome.submitted.len()
            ));
        }
    }
    Ok(())
}

/// Oracle 4: recovery equivalence — the faulted run must be
/// indistinguishable (chain + state) from the uninterrupted run of the
/// same seed.
///
/// # Errors
///
/// A description of the violation: either run failed to drain, or the
/// final ledger heads / state digests / block counts differ.
pub fn check_recovery_equivalence(
    faulted: &SimOutcome,
    reference: &SimOutcome,
) -> Result<(), String> {
    if !reference.completed {
        return Err("reference run did not drain (infrastructure problem)".to_string());
    }
    if !faulted.completed {
        return Err(format!(
            "faulted run did not drain: {} of {} processed after {:?} virtual",
            faulted.report.committed + faulted.report.aborted,
            faulted.submitted.len(),
            faulted.virtual_elapsed
        ));
    }
    if faulted.report.ledger_head != reference.report.ledger_head {
        return Err(format!(
            "faulted chain diverged from the uninterrupted reference: {:?} != {:?}",
            faulted.report.ledger_head, reference.report.ledger_head
        ));
    }
    if faulted.report.state_digest != reference.report.state_digest {
        return Err(format!(
            "faulted state diverged from the uninterrupted reference: {:?} != {:?}",
            faulted.report.state_digest, reference.report.state_digest
        ));
    }
    if faulted.observer_chain.len() != reference.observer_chain.len() {
        return Err(format!(
            "faulted run sealed {} blocks, reference {}",
            faulted.observer_chain.len(),
            reference.observer_chain.len()
        ));
    }
    Ok(())
}

/// Checks all four oracles on `faulted` (a run of `spec`), the last
/// against `reference`, an uninterrupted run of the same spec and seed.
/// Returns one `"[oracle] why"` line per violation, in oracle order;
/// empty means every oracle passed.
#[must_use]
pub fn check_oracles(
    spec: &ClusterSpec,
    faulted: &SimOutcome,
    reference: &SimOutcome,
) -> Vec<String> {
    let genesis = WorkloadGen::new(spec.workload_config()).genesis();
    let replay = serial_replay(&faulted.observer_chain, &genesis, &spec.registry());
    [
        (
            "serializability",
            check_serializability(spec, faulted, &replay),
        ),
        ("convergence", check_convergence(faulted, &replay)),
        ("exactly-once", check_exactly_once(faulted)),
        ("recovery", check_recovery_equivalence(faulted, reference)),
    ]
    .into_iter()
    .filter_map(|(name, result)| result.err().map(|why| format!("[{name}] {why}")))
    .collect()
}

/// Helper for oracle construction/tests: the chain's head hash at every
/// height without a full replay.
#[must_use]
pub fn chain_heads(chain: &[Arc<Block>]) -> Vec<Hash32> {
    let mut heads = vec![Ledger::genesis_hash()];
    heads.extend(chain.iter().map(|block| hash_wire(block.as_ref())));
    heads
}

/// Helper for the oracle property tests: the genesis-relative position
/// version of `(block, seq)`.
#[must_use]
pub fn position(block: u64, seq: u32) -> Version {
    Version::new(BlockNumber(block), SeqNo(seq))
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use parblock_types::{AppId, ClientId, RwSet, Transaction};
    use parblockchain::RunReport;

    use super::*;

    /// The offender named is the first in chain order, not whichever a
    /// hash set yields first, so a re-run of a failing seed names the
    /// same transaction the sweep did.
    #[test]
    fn exactly_once_names_the_earliest_never_submitted_transaction() {
        let txs: Vec<Transaction> = (0..=64)
            .map(|ts| Transaction::new(AppId(0), ClientId(1), ts, RwSet::default(), vec![]))
            .collect();
        let first_stray = txs[1].id();
        let outcome = SimOutcome {
            report: RunReport::default(),
            completed: false,
            virtual_elapsed: Duration::ZERO,
            events: 0,
            submitted: vec![txs[0].id()],
            peak_outstanding: 1,
            observer_chain: vec![Arc::new(Block::new(BlockNumber(1), Hash32::ZERO, txs))],
            replicas: Vec::new(),
            orderers: Vec::new(),
        };
        let named = format!("chain contains never-submitted transaction {first_stray:?}");
        assert_eq!(check_exactly_once(&outcome), Err(named));
    }
}
