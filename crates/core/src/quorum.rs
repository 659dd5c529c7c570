//! NEWBLOCK admission shared by every peer kind: signature/hash
//! verification and quorum counting over matching orderer announcements
//! (§IV-C: a peer "marks the new block as a valid block" after "a
//! specified number of matching new block messages", e.g. f + 1 under
//! PBFT).

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::Arc;

use parblock_crypto::{hash_wire, Signature};
use parblock_types::{Hash32, NodeId};

use crate::msg::BlockBundle;
use crate::shared::Shared;

/// The τ(A) rule an executor commits a result by and an XOV client
/// assembles an envelope by, applied one vote at a time: whether `vote`
/// from `agent`, with the earlier `votes`, makes `required` that match
/// it. `None` if `agent` has voted already. Callers stop counting once a
/// vote completes the rule, so before this vote no result had `required`
/// matches and only this vote's can reach them now.
pub(crate) fn completes<T>(
    votes: &[(NodeId, T)],
    agent: NodeId,
    vote: &T,
    required: usize,
    matches: impl Fn(&T, &T) -> bool,
) -> Option<bool> {
    if votes.iter().any(|(voter, _)| *voter == agent) {
        return None;
    }
    Some(1 + votes.iter().filter(|(_, v)| matches(v, vote)).count() >= required)
}

/// The content kept for one claimed hash, and who has signed that hash.
struct Candidate {
    /// The first announcement's bundle, whose block hashes to the key
    /// this candidate is stored under.
    bundle: Arc<BlockBundle>,
    signers: HashSet<NodeId>,
}

/// Tracks NEWBLOCK announcements until a block reaches its quorum.
///
/// A block is validated iff `required` distinct orderers signed one hash
/// `h` and the kept content hashes to `h`. Content is hashed once, when
/// it becomes the stored candidate for its claimed hash; a later
/// announcement of the same hash adds its verified signature and its
/// content is dropped unread.
pub(crate) struct NewBlockQuorum {
    required: usize,
    candidates: BTreeMap<u64, HashMap<Hash32, Candidate>>,
    /// Numbers at or above the caller's `next_needed` that already
    /// reached quorum: their bundle is waiting its turn at the peer, and
    /// further announcements of them have nothing to add.
    validated: BTreeSet<u64>,
}

impl NewBlockQuorum {
    pub(crate) fn new(required: usize) -> Self {
        NewBlockQuorum {
            required: required.max(1),
            candidates: BTreeMap::new(),
            validated: BTreeSet::new(),
        }
    }

    /// Verifies an announcement end-to-end (transport sender = claimed
    /// orderer, known orderer, block still wanted, valid signature over
    /// the hash, hash matches the kept block) and counts it, cheapest
    /// check first. Returns the validated bundle the moment its quorum
    /// is reached, once per block number.
    pub(crate) fn admit(
        &mut self,
        shared: &Shared,
        from: NodeId,
        bundle: Arc<BlockBundle>,
        orderer: NodeId,
        sig: &Signature,
        next_needed: u64,
    ) -> Option<Arc<BlockBundle>> {
        if from != orderer || !shared.spec.is_orderer(orderer) {
            return None;
        }
        // Nothing below `next_needed` is wanted again, so whatever was
        // kept for those numbers goes, late candidates included.
        self.candidates.retain(|&number, _| number >= next_needed);
        self.validated.retain(|&number| number >= next_needed);
        let number = bundle.block.number().0;
        if number < next_needed || self.validated.contains(&number) {
            return None; // applied, or validated and waiting its turn
        }
        let signer = shared.spec.node_signer(orderer);
        if !shared.keys.verify(signer, &bundle.hash.0, sig) {
            return None;
        }
        let kept = self
            .candidates
            .get(&number)
            .is_some_and(|slot| slot.contains_key(&bundle.hash));
        if !kept && hash_wire(bundle.block.as_ref()) != bundle.hash {
            return None; // stores nothing: an honest copy can still arrive
        }
        let slot = self.candidates.entry(number).or_default();
        let candidate = slot.entry(bundle.hash).or_insert_with(|| Candidate {
            bundle,
            signers: HashSet::new(),
        });
        candidate.signers.insert(orderer);
        if candidate.signers.len() < self.required {
            return None;
        }
        let validated = Arc::clone(&candidate.bundle);
        self.candidates.remove(&number);
        self.validated.insert(number);
        Some(validated)
    }
}

#[cfg(test)]
mod tests {
    use parblock_types::{AppId, Block, BlockNumber, ClientId, RwSet, Transaction};

    use crate::cluster::{ClusterSpec, SystemKind};

    use super::*;

    fn setup() -> (Arc<Shared>, Arc<BlockBundle>) {
        let mut spec = ClusterSpec::new(SystemKind::Oxii);
        spec.consensus = crate::cluster::ConsensusKind::Pbft;
        spec.orderers = 4;
        let shared = Shared::new(spec);
        (shared, bundle_of(1, 0))
    }

    /// An honest bundle for block `number` holding `txs` transactions.
    fn bundle_of(number: u64, txs: u64) -> Arc<BlockBundle> {
        let txs = (0..txs)
            .map(|ts| Transaction::new(AppId(0), ClientId(1), ts, RwSet::default(), vec![]))
            .collect();
        let block = Block::new(
            BlockNumber(number),
            parblock_ledger::Ledger::genesis_hash(),
            txs,
        );
        let hash = hash_wire(&block);
        Arc::new(BlockBundle {
            block: Arc::new(block),
            graph: None,
            hash,
        })
    }

    /// `content`'s block announced under `claimed`'s hash.
    fn claiming(content: &BlockBundle, claimed: &BlockBundle) -> Arc<BlockBundle> {
        Arc::new(BlockBundle {
            block: Arc::clone(&content.block),
            graph: None,
            hash: claimed.hash,
        })
    }

    fn announce(
        quorum: &mut NewBlockQuorum,
        shared: &Shared,
        bundle: &Arc<BlockBundle>,
        orderer: NodeId,
    ) -> Option<Arc<BlockBundle>> {
        let sig = shared
            .keys
            .sign(shared.spec.node_signer(orderer), &bundle.hash.0);
        quorum.admit(shared, orderer, Arc::clone(bundle), orderer, &sig, 1)
    }

    #[test]
    fn quorum_requires_distinct_orderers() {
        let (shared, bundle) = setup();
        let mut quorum = NewBlockQuorum::new(2);
        assert!(announce(&mut quorum, &shared, &bundle, NodeId(0)).is_none());
        // Duplicate from the same orderer does not help.
        assert!(announce(&mut quorum, &shared, &bundle, NodeId(0)).is_none());
        assert!(announce(&mut quorum, &shared, &bundle, NodeId(1)).is_some());
    }

    #[test]
    fn forged_sender_and_bad_signature_rejected() {
        let (shared, bundle) = setup();
        let mut quorum = NewBlockQuorum::new(1);
        // Transport sender differs from the claimed orderer.
        let sig = shared
            .keys
            .sign(shared.spec.node_signer(NodeId(0)), &bundle.hash.0);
        assert!(quorum
            .admit(&shared, NodeId(3), Arc::clone(&bundle), NodeId(0), &sig, 1)
            .is_none());
        // Signature from the wrong key.
        let bad_sig = shared
            .keys
            .sign(shared.spec.node_signer(NodeId(1)), &bundle.hash.0);
        assert!(quorum
            .admit(&shared, NodeId(0), Arc::clone(&bundle), NodeId(0), &bad_sig, 1)
            .is_none());
        // Non-orderer announcer.
        let sig9 = shared
            .keys
            .sign(shared.spec.node_signer(NodeId(5)), &bundle.hash.0);
        assert!(quorum
            .admit(&shared, NodeId(5), Arc::clone(&bundle), NodeId(5), &sig9, 1)
            .is_none());
    }

    #[test]
    fn stale_blocks_rejected() {
        let (shared, bundle) = setup();
        let mut quorum = NewBlockQuorum::new(1);
        let sig = shared
            .keys
            .sign(shared.spec.node_signer(NodeId(0)), &bundle.hash.0);
        // next_needed = 2 > block number 1.
        assert!(quorum
            .admit(&shared, NodeId(0), bundle, NodeId(0), &sig, 2)
            .is_none());
    }

    #[test]
    fn tampered_block_content_rejected() {
        let (shared, bundle) = setup();
        let mut quorum = NewBlockQuorum::new(1);
        // Re-wrap with a mismatching hash.
        let tampered = Arc::new(BlockBundle {
            block: bundle.block.clone(),
            graph: None,
            hash: Hash32([9; 32]),
        });
        let sig = shared
            .keys
            .sign(shared.spec.node_signer(NodeId(0)), &tampered.hash.0);
        assert!(quorum
            .admit(&shared, NodeId(0), tampered, NodeId(0), &sig, 1)
            .is_none());
    }

    /// Under a quorum above 1 a second announcement of a stored hash
    /// counts on its verified signature alone: its content, different
    /// here, is neither hashed nor kept.
    #[test]
    fn later_announcement_of_a_stored_hash_adds_only_its_signature() {
        let (shared, first) = setup();
        let mut quorum = NewBlockQuorum::new(2);
        assert!(announce(&mut quorum, &shared, &first, NodeId(0)).is_none());
        let second = claiming(&bundle_of(1, 3), &first);
        assert_ne!(hash_wire(second.block.as_ref()), second.hash);
        let validated = announce(&mut quorum, &shared, &second, NodeId(1)).expect("quorum");
        assert!(Arc::ptr_eq(&validated, &first));
        assert_eq!(Arc::strong_count(&second), 1, "the second copy is not kept");
    }

    #[test]
    fn tampered_first_content_does_not_poison_the_true_hash() {
        let (shared, honest) = setup();
        let mut quorum = NewBlockQuorum::new(2);
        let tampered = claiming(&bundle_of(1, 3), &honest);
        assert!(announce(&mut quorum, &shared, &tampered, NodeId(0)).is_none());
        assert!(
            quorum.candidates.is_empty(),
            "rejected content is not stored"
        );
        // Two honest orderers still validate the block, with their content.
        assert!(announce(&mut quorum, &shared, &honest, NodeId(1)).is_none());
        let validated = announce(&mut quorum, &shared, &honest, NodeId(2)).expect("quorum");
        assert!(Arc::ptr_eq(&validated, &honest));
    }

    #[test]
    fn duplicate_after_quorum_is_not_revalidated() {
        let (shared, bundle) = setup();
        let mut quorum = NewBlockQuorum::new(1);
        assert!(announce(&mut quorum, &shared, &bundle, NodeId(0)).is_some());
        // Block 1 is validated but not applied yet (`next_needed` is
        // still 1): another orderer's copy is dropped, not kept.
        assert!(announce(&mut quorum, &shared, &bundle, NodeId(1)).is_none());
        assert!(quorum.candidates.is_empty());
        assert_eq!(Arc::strong_count(&bundle), 1);
    }

    /// Four orderers announce each of 1 000 blocks at `required = 2`, so
    /// two announcements per block arrive after its quorum, while the
    /// peer is still two blocks behind. Nothing may accumulate.
    #[test]
    fn candidates_and_validated_stay_bounded() {
        let (shared, _) = setup();
        let mut quorum = NewBlockQuorum::new(2);
        for number in 1..=1_000u64 {
            let next_needed = number.saturating_sub(2).max(1);
            let bundle = bundle_of(number, 1);
            let mut validations = 0;
            for orderer in 0..4 {
                let orderer = NodeId(orderer);
                let sig = shared
                    .keys
                    .sign(shared.spec.node_signer(orderer), &bundle.hash.0);
                let admitted = quorum.admit(
                    &shared,
                    orderer,
                    Arc::clone(&bundle),
                    orderer,
                    &sig,
                    next_needed,
                );
                validations += usize::from(admitted.is_some());
            }
            assert_eq!(validations, 1, "block {number}");
            assert!(
                quorum.candidates.is_empty(),
                "block {number}: late copy kept"
            );
            assert!(quorum.validated.len() <= 3, "block {number}");
            assert_eq!(
                Arc::strong_count(&bundle),
                1,
                "block {number}: bundle pinned"
            );
        }
    }
}
