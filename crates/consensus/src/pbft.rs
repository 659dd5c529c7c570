//! Practical Byzantine Fault Tolerance (Castro & Liskov) as a sans-io
//! state machine.
//!
//! The normal-case three-phase flow:
//!
//! 1. the primary of the current view assigns the next sequence number and
//!    broadcasts `PRE-PREPARE(v, n, m)`;
//! 2. backups accept the pre-prepare (right primary, fresh slot, matching
//!    digest) and broadcast `PREPARE(v, n, d)`;
//! 3. on a quorum of `2f + 1` prepare votes a replica broadcasts
//!    `COMMIT(v, n, d)`; on `2f + 1` commit votes the slot is committed
//!    and delivered in sequence order.
//!
//! On primary silence a progress timer fires and replicas vote a view
//! change; the new primary re-proposes every prepared-but-undelivered
//! slot in the new view. See the crate docs for the documented
//! simplifications relative to the full protocol.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::time::Duration;

use parblock_crypto::sha256;
use parblock_types::{Hash32, NodeId};

use crate::action::{Action, TimerId};
use crate::traits::{OrderingProtocol, Payload, ProtocolConfig};

/// The progress timer: armed while this replica knows of undelivered
/// work, fires a view change when the primary stalls.
const PROGRESS_TIMER: TimerId = TimerId(0);

/// A replica's prepared-but-undelivered `(seq, payload)` set, carried in
/// view-change votes.
type PreparedSet = Vec<(u64, Payload)>;

/// PBFT wire messages. Transport authentication supplies the sender.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PbftMsg {
    /// A backup forwards a client payload to the primary.
    Forward {
        /// The client payload.
        payload: Payload,
    },
    /// Primary proposal for slot `seq` in `view`.
    PrePrepare {
        /// The proposing view.
        view: u64,
        /// The assigned sequence number.
        seq: u64,
        /// The proposed payload.
        payload: Payload,
    },
    /// A replica's prepare vote.
    Prepare {
        /// The vote's view.
        view: u64,
        /// The slot.
        seq: u64,
        /// Digest of the proposed payload.
        digest: Hash32,
    },
    /// A replica's commit vote.
    Commit {
        /// The vote's view.
        view: u64,
        /// The slot.
        seq: u64,
        /// Digest of the proposed payload.
        digest: Hash32,
    },
    /// A vote to move to `new_view`, carrying the voter's prepared but
    /// undelivered `(seq, payload)` set.
    ViewChange {
        /// The proposed view.
        new_view: u64,
        /// Prepared-but-undelivered slots at the voter.
        prepared: Vec<(u64, Payload)>,
    },
    /// The new primary's installation message, re-proposing the prepared
    /// slots it learned from `2f + 1` view-change votes.
    NewView {
        /// The installed view.
        view: u64,
        /// Re-proposals `(seq, payload)`.
        proposals: Vec<(u64, Payload)>,
    },
}

#[derive(Debug, Default, Clone)]
struct Slot {
    /// View of the accepted pre-prepare.
    view: u64,
    digest: Option<Hash32>,
    payload: Option<Payload>,
    prepares: BTreeSet<NodeId>,
    commits: BTreeSet<NodeId>,
    sent_commit: bool,
    committed: bool,
}

/// A PBFT replica.
///
/// # Examples
///
/// Four replicas delivering one payload (driven by the test harness):
///
/// ```
/// use parblock_consensus::testing::SimCluster;
/// use parblock_consensus::Pbft;
///
/// let mut cluster = SimCluster::pbft(4, std::time::Duration::from_millis(100));
/// cluster.submit(0, b"tx".to_vec());
/// cluster.run_to_quiescence();
/// assert_eq!(cluster.delivered(0), vec![(0, b"tx".to_vec())]);
/// assert!(cluster.all_agree());
/// ```
#[derive(Debug)]
pub struct Pbft {
    cfg: ProtocolConfig,
    f: usize,
    view: u64,
    /// Next sequence number this primary will assign.
    next_seq: u64,
    /// Next sequence number to deliver.
    next_deliver: u64,
    slots: BTreeMap<u64, Slot>,
    /// Payloads awaiting proposal (primary in view change) or forwarding.
    pending: VecDeque<Payload>,
    /// Payloads this replica forwarded but has not yet seen delivered;
    /// re-issued after a view change so a crashed primary cannot lose
    /// them (the client-retransmission role of full PBFT). Duplicate
    /// proposals are possible and deduplicated by the host layer via
    /// client timestamps.
    unacked: Vec<(Hash32, Payload)>,
    /// View-change votes: candidate view → voter → prepared set.
    vc_votes: BTreeMap<u64, BTreeMap<NodeId, PreparedSet>>,
    /// The view this replica has voted to move to, if any.
    vc_target: Option<u64>,
    timeout: Duration,
    timer_armed: bool,
}

impl Pbft {
    /// Creates a replica.
    ///
    /// # Panics
    ///
    /// Panics if fewer than 4 replicas are configured (`f` would be 0 and
    /// the protocol degenerate).
    #[must_use]
    pub fn new(cfg: ProtocolConfig, timeout: Duration) -> Self {
        assert!(cfg.n() >= 4, "PBFT needs n ≥ 4 (n = 3f + 1)");
        let f = (cfg.n() - 1) / 3;
        Pbft {
            cfg,
            f,
            view: 0,
            next_seq: 0,
            next_deliver: 0,
            slots: BTreeMap::new(),
            pending: VecDeque::new(),
            unacked: Vec::new(),
            vc_votes: BTreeMap::new(),
            vc_target: None,
            timeout,
            timer_armed: false,
        }
    }

    /// The quorum size `2f + 1`.
    #[must_use]
    pub fn quorum(&self) -> usize {
        2 * self.f + 1
    }

    /// The current view.
    #[must_use]
    pub fn view(&self) -> u64 {
        self.view
    }

    /// The primary of `view`.
    #[must_use]
    pub fn primary_of(&self, view: u64) -> NodeId {
        self.cfg.peers[(view % self.cfg.n() as u64) as usize]
    }

    fn is_primary(&self) -> bool {
        self.primary_of(self.view) == self.cfg.id && self.vc_target.is_none()
    }

    fn remember_unacked(&mut self, payload: &Payload) {
        let digest = sha256(payload);
        if !self.unacked.iter().any(|(d, _)| *d == digest) {
            self.unacked.push((digest, Payload::clone(payload)));
        }
    }

    fn arm_timer(&mut self, actions: &mut Vec<Action<PbftMsg>>) {
        if !self.timer_armed {
            self.timer_armed = true;
            actions.push(Action::SetTimer {
                id: PROGRESS_TIMER,
                after: self.timeout,
            });
        }
    }

    fn disarm_timer_if_idle(&mut self, actions: &mut Vec<Action<PbftMsg>>) {
        let work_outstanding = !self.pending.is_empty()
            || !self.unacked.is_empty()
            || self.slots.values().any(|s| s.payload.is_some() && !s.committed);
        if self.timer_armed && !work_outstanding && self.vc_target.is_none() {
            self.timer_armed = false;
            actions.push(Action::CancelTimer { id: PROGRESS_TIMER });
        }
    }

    /// Primary-side proposal of one payload.
    fn propose(&mut self, payload: Payload, actions: &mut Vec<Action<PbftMsg>>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let digest = sha256(&payload);
        let slot = self.slots.entry(seq).or_default();
        slot.view = self.view;
        slot.digest = Some(digest);
        slot.payload = Some(payload.clone());
        slot.prepares.insert(self.cfg.id);
        actions.push(Action::Broadcast {
            msg: PbftMsg::PrePrepare {
                view: self.view,
                seq,
                payload,
            },
        });
        self.arm_timer(actions);
        // A 4-replica cluster with f = 1 needs 3 prepare votes; the
        // primary's own is counted above, backups supply the rest.
        self.maybe_commit(seq, actions);
    }

    fn maybe_commit(&mut self, seq: u64, actions: &mut Vec<Action<PbftMsg>>) {
        let quorum = self.quorum();
        let id = self.cfg.id;
        let view = self.view;
        let Some(slot) = self.slots.get_mut(&seq) else {
            return;
        };
        if slot.payload.is_none() || slot.sent_commit {
            return;
        }
        if slot.prepares.len() >= quorum {
            slot.sent_commit = true;
            slot.commits.insert(id);
            let digest = slot.digest.expect("payload implies digest");
            actions.push(Action::Broadcast {
                msg: PbftMsg::Commit { view, seq, digest },
            });
            self.maybe_committed(seq, actions);
        }
    }

    fn maybe_committed(&mut self, seq: u64, actions: &mut Vec<Action<PbftMsg>>) {
        let quorum = self.quorum();
        let Some(slot) = self.slots.get_mut(&seq) else {
            return;
        };
        if slot.committed || slot.payload.is_none() || slot.commits.len() < quorum {
            return;
        }
        slot.committed = true;
        self.try_deliver(actions);
    }

    fn try_deliver(&mut self, actions: &mut Vec<Action<PbftMsg>>) {
        while let Some(slot) = self.slots.get(&self.next_deliver) {
            if !slot.committed {
                break;
            }
            let seq = self.next_deliver;
            let slot = self.slots.remove(&seq).expect("present");
            let payload = slot.payload.expect("committed implies payload");
            if let Some(digest) = slot.digest {
                self.unacked.retain(|(d, _)| *d != digest);
            }
            actions.push(Action::Deliver { seq, payload });
            self.next_deliver += 1;
            if self.next_seq < self.next_deliver {
                self.next_seq = self.next_deliver;
            }
        }
        self.disarm_timer_if_idle(actions);
    }

    /// Starts (or escalates) a view change towards `target`.
    fn start_view_change(&mut self, target: u64, actions: &mut Vec<Action<PbftMsg>>) {
        if self.vc_target.is_some_and(|t| t >= target) {
            return;
        }
        self.vc_target = Some(target);
        // Prepared-but-undelivered slots travel with the vote.
        let prepared: Vec<(u64, Payload)> = self
            .slots
            .iter()
            .filter(|(_, s)| s.prepares.len() >= self.quorum() && s.payload.is_some())
            .map(|(&seq, s)| (seq, s.payload.clone().expect("filtered")))
            .collect();
        let msg = PbftMsg::ViewChange {
            new_view: target,
            prepared: prepared.clone(),
        };
        self.vc_votes
            .entry(target)
            .or_default()
            .insert(self.cfg.id, prepared);
        actions.push(Action::Broadcast { msg });
        // Re-arm so a failed view change escalates further.
        self.timer_armed = false;
        self.arm_timer(actions);
        self.maybe_install_view(target, actions);
    }

    fn maybe_install_view(&mut self, target: u64, actions: &mut Vec<Action<PbftMsg>>) {
        let votes = self.vc_votes.get(&target).map_or(0, BTreeMap::len);
        if votes < self.quorum() || self.primary_of(target) != self.cfg.id {
            return;
        }
        // Merge prepared sets: highest-voted payload per sequence (honest
        // replicas never diverge on a prepared slot).
        let mut proposals: BTreeMap<u64, Payload> = BTreeMap::new();
        for set in self.vc_votes.remove(&target).expect("checked").into_values() {
            for (seq, payload) in set {
                if seq >= self.next_deliver {
                    proposals.entry(seq).or_insert(payload);
                }
            }
        }
        let proposals: Vec<(u64, Payload)> = proposals.into_iter().collect();
        actions.push(Action::Broadcast {
            msg: PbftMsg::NewView {
                view: target,
                proposals: proposals.clone(),
            },
        });
        self.install_view(target, &proposals, actions);
        // Propose any queued client payloads in the new view.
        while let Some(payload) = self.pending.pop_front() {
            self.propose(payload, actions);
        }
    }

    /// Adopts `view`, treating `proposals` as pre-prepares.
    fn install_view(
        &mut self,
        view: u64,
        proposals: &[(u64, Payload)],
        actions: &mut Vec<Action<PbftMsg>>,
    ) {
        self.view = view;
        self.vc_target = None;
        self.vc_votes.retain(|&v, _| v > view);
        // Undelivered, uncommitted slots are superseded by the new view's
        // proposals.
        self.slots.retain(|_, s| s.committed);
        self.next_seq = self.next_deliver;
        let primary = self.primary_of(view);
        let my_id = self.cfg.id;
        let i_am_primary = primary == my_id;
        for (seq, payload) in proposals {
            self.next_seq = self.next_seq.max(seq + 1);
            let digest = sha256(payload);
            let slot = self.slots.entry(*seq).or_default();
            if slot.committed {
                continue;
            }
            slot.view = view;
            slot.digest = Some(digest);
            slot.payload = Some(payload.clone());
            slot.prepares.insert(primary);
            slot.prepares.insert(my_id);
            if !i_am_primary {
                actions.push(Action::Broadcast {
                    msg: PbftMsg::Prepare {
                        view,
                        seq: *seq,
                        digest,
                    },
                });
            }
            self.maybe_commit(*seq, actions);
        }
        // Re-issue forwarded-but-undelivered payloads that did not make
        // it into the new view's proposals.
        let in_flight: BTreeSet<Hash32> = self
            .slots
            .values()
            .filter_map(|s| s.digest)
            .collect();
        let to_reissue: Vec<Payload> = self
            .unacked
            .iter()
            .filter(|(d, _)| !in_flight.contains(d))
            .map(|(_, p)| p.clone())
            .collect();
        for payload in to_reissue {
            if i_am_primary {
                self.propose(payload, actions);
            } else {
                actions.push(Action::Send {
                    to: primary,
                    msg: PbftMsg::Forward { payload },
                });
            }
        }
        if !self.slots.is_empty() || !self.pending.is_empty() || !self.unacked.is_empty() {
            self.timer_armed = false;
            self.arm_timer(actions);
        } else {
            self.disarm_timer_if_idle(actions);
        }
    }
}

impl OrderingProtocol for Pbft {
    type Msg = PbftMsg;

    fn submit(&mut self, payload: Payload) -> Vec<Action<PbftMsg>> {
        let mut actions = Vec::new();
        if self.is_primary() {
            self.propose(payload, &mut actions);
        } else if self.vc_target.is_none() {
            // Broadcast (not just send to the primary): every replica
            // buffers the request and arms its progress timer, so a
            // crashed primary cannot lose it — the same role the client's
            // broadcast-on-timeout plays in full PBFT.
            self.remember_unacked(&payload);
            actions.push(Action::Broadcast {
                msg: PbftMsg::Forward { payload },
            });
            self.arm_timer(&mut actions);
        } else {
            // Hold until the view change settles.
            self.pending.push_back(payload);
        }
        actions
    }

    fn on_message(&mut self, from: NodeId, msg: PbftMsg) -> Vec<Action<PbftMsg>> {
        let mut actions = Vec::new();
        match msg {
            PbftMsg::Forward { payload } => {
                if self.is_primary() {
                    // Dedup: a payload can reach the primary several
                    // times (broadcast forwards, view-change re-issues).
                    let digest = sha256(&payload);
                    let in_flight = self.slots.values().any(|s| s.digest == Some(digest));
                    if !in_flight {
                        self.propose(payload, &mut actions);
                    }
                } else if self.vc_target.is_some() {
                    self.pending.push_back(payload);
                } else {
                    // Buffer and watch the primary on the requester's
                    // behalf.
                    self.remember_unacked(&payload);
                    self.arm_timer(&mut actions);
                }
            }
            PbftMsg::PrePrepare { view, seq, payload } => {
                if view != self.view
                    || from != self.primary_of(view)
                    || self.vc_target.is_some()
                    || seq < self.next_deliver
                {
                    return actions;
                }
                let digest = sha256(&payload);
                let slot = self.slots.entry(seq).or_default();
                if let Some(existing) = slot.digest {
                    if existing != digest {
                        // Equivocating primary: refuse; the timer will
                        // eventually vote it out.
                        return actions;
                    }
                }
                slot.view = view;
                slot.digest = Some(digest);
                slot.payload = Some(payload);
                slot.prepares.insert(from);
                slot.prepares.insert(self.cfg.id);
                actions.push(Action::Broadcast {
                    msg: PbftMsg::Prepare { view, seq, digest },
                });
                self.arm_timer(&mut actions);
                self.maybe_commit(seq, &mut actions);
            }
            PbftMsg::Prepare { view, seq, digest } => {
                if view != self.view || self.vc_target.is_some() || seq < self.next_deliver {
                    return actions;
                }
                let slot = self.slots.entry(seq).or_default();
                if slot.digest.is_some_and(|d| d != digest) {
                    return actions;
                }
                slot.prepares.insert(from);
                self.maybe_commit(seq, &mut actions);
            }
            PbftMsg::Commit { view, seq, digest } => {
                if view != self.view || self.vc_target.is_some() || seq < self.next_deliver {
                    return actions;
                }
                let slot = self.slots.entry(seq).or_default();
                if slot.digest.is_some_and(|d| d != digest) {
                    return actions;
                }
                slot.commits.insert(from);
                self.maybe_committed(seq, &mut actions);
            }
            PbftMsg::ViewChange { new_view, prepared } => {
                if new_view <= self.view {
                    return actions;
                }
                self.vc_votes
                    .entry(new_view)
                    .or_default()
                    .insert(from, prepared);
                // Join a view change once f + 1 replicas vote for it —
                // at least one of them is honest.
                let votes = self.vc_votes.get(&new_view).map_or(0, BTreeMap::len);
                if votes > self.f && self.vc_target.is_none_or(|t| t < new_view) {
                    self.start_view_change(new_view, &mut actions);
                } else {
                    self.maybe_install_view(new_view, &mut actions);
                }
            }
            PbftMsg::NewView { view, proposals } => {
                if view < self.view || from != self.primary_of(view) {
                    return actions;
                }
                if view == self.view && self.vc_target.is_none() {
                    return actions;
                }
                self.install_view(view, &proposals, &mut actions);
                // Forward anything we held during the change.
                let pending: Vec<_> = self.pending.drain(..).collect();
                for payload in pending {
                    actions.push(Action::Send {
                        to: self.primary_of(self.view),
                        msg: PbftMsg::Forward { payload },
                    });
                }
            }
        }
        actions
    }

    fn on_timer(&mut self, id: TimerId) -> Vec<Action<PbftMsg>> {
        let mut actions = Vec::new();
        if id != PROGRESS_TIMER {
            return actions;
        }
        self.timer_armed = false;
        let target = match self.vc_target {
            Some(t) => t + 1,
            None => self.view + 1,
        };
        self.start_view_change(target, &mut actions);
        actions
    }

    fn id(&self) -> NodeId {
        self.cfg.id
    }

    fn is_leader(&self) -> bool {
        self.is_primary()
    }

    fn current_view(&self) -> u64 {
        self.view
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;
    use std::time::Duration;

    use crate::testing::SimCluster;

    use super::*;

    fn cluster(n: usize) -> SimCluster<Pbft> {
        SimCluster::pbft(n, Duration::from_millis(100))
    }

    #[test]
    fn single_payload_commits_on_all_replicas() {
        let mut c = cluster(4);
        c.submit(0, b"a".to_vec());
        c.run_to_quiescence();
        assert!(c.all_agree());
        for r in 0..4 {
            assert_eq!(c.delivered(r), vec![(0, b"a".to_vec())]);
        }
    }

    #[test]
    fn backup_submission_is_forwarded_to_primary() {
        let mut c = cluster(4);
        c.submit(2, b"via-backup".to_vec());
        c.run_to_quiescence();
        assert!(c.all_agree());
        assert_eq!(c.delivered(0).len(), 1);
    }

    /// One copy: a payload proposed by the primary, or forwarded to it
    /// by a backup, is delivered everywhere as the submitted allocation.
    #[test]
    fn every_delivery_holds_the_submitted_allocation() {
        let mut c = cluster(4);
        let proposed: Payload = b"via-primary".as_slice().into();
        let forwarded: Payload = b"via-backup".as_slice().into();
        c.submit_shared(0, Payload::clone(&proposed));
        c.submit_shared(2, Payload::clone(&forwarded));
        c.run_to_quiescence();
        for r in 0..4 {
            let delivered = c.delivered_shared(r);
            assert_eq!(delivered.len(), 2, "replica {r}");
            assert!(Arc::ptr_eq(&delivered[0].1, &proposed), "replica {r}");
            assert!(Arc::ptr_eq(&delivered[1].1, &forwarded), "replica {r}");
        }
    }

    #[test]
    fn many_payloads_deliver_in_identical_order() {
        let mut c = cluster(4);
        for i in 0..20u8 {
            c.submit((i % 4) as usize, vec![i]);
            // Interleave processing to mix forwarding with proposals.
            c.step_n(5);
        }
        c.run_to_quiescence();
        assert!(c.all_agree());
        assert_eq!(c.delivered(0).len(), 20);
        let seqs: Vec<u64> = c.delivered(0).iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn seven_replicas_tolerate_two_crashes() {
        let mut c = SimCluster::pbft(7, Duration::from_millis(100));
        // Crash two backups (f = 2): quorum of 5 still commits.
        c.crash(5);
        c.crash(6);
        c.submit(0, b"x".to_vec());
        c.run_to_quiescence();
        for r in 0..5 {
            assert_eq!(c.delivered(r), vec![(0, b"x".to_vec())], "replica {r}");
        }
    }

    #[test]
    fn primary_crash_triggers_view_change_and_recovers_request() {
        let mut c = cluster(4);
        c.submit(1, b"lost-then-found".to_vec());
        // Let the forward reach the primary and the pre-prepare go out,
        // then crash the primary before commits can quorum.
        c.crash(0);
        c.run_to_quiescence();
        // Backups still hold the request; fire their progress timers.
        c.fire_timers();
        c.run_to_quiescence();
        // Re-fire in case the first change elected the crashed node.
        c.fire_timers();
        c.run_to_quiescence();
        for r in 1..4 {
            let delivered = c.delivered(r);
            assert_eq!(delivered.len(), 1, "replica {r}: {delivered:?}");
            assert_eq!(delivered[0].1, b"lost-then-found".to_vec());
        }
        assert!(c.view_of(1) > 0, "view must have advanced");
    }

    #[test]
    fn equivocating_preprepare_is_refused() {
        let cfg = ProtocolConfig::new(
            NodeId(1),
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)],
        );
        let mut backup = Pbft::new(cfg, Duration::from_millis(100));
        let a1 = backup.on_message(
            NodeId(0),
            PbftMsg::PrePrepare {
                view: 0,
                seq: 0,
                payload: b"one".as_slice().into(),
            },
        );
        assert!(a1
            .iter()
            .any(|a| matches!(a, Action::Broadcast { msg: PbftMsg::Prepare { .. } })));
        // Same slot, different payload: must be ignored.
        let a2 = backup.on_message(
            NodeId(0),
            PbftMsg::PrePrepare {
                view: 0,
                seq: 0,
                payload: b"two".as_slice().into(),
            },
        );
        assert!(a2.is_empty());
    }

    #[test]
    fn preprepare_from_non_primary_is_ignored() {
        let cfg = ProtocolConfig::new(
            NodeId(1),
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)],
        );
        let mut backup = Pbft::new(cfg, Duration::from_millis(100));
        let actions = backup.on_message(
            NodeId(2), // not the view-0 primary
            PbftMsg::PrePrepare {
                view: 0,
                seq: 0,
                payload: b"evil".as_slice().into(),
            },
        );
        assert!(actions.is_empty());
    }

    #[test]
    fn quorum_sizes() {
        let cfg = ProtocolConfig::new(
            NodeId(0),
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)],
        );
        let pbft = Pbft::new(cfg, Duration::from_millis(1));
        assert_eq!(pbft.quorum(), 3);
        let peers: Vec<NodeId> = (0..7).map(NodeId).collect();
        let pbft = Pbft::new(
            ProtocolConfig::new(NodeId(0), peers),
            Duration::from_millis(1),
        );
        assert_eq!(pbft.quorum(), 5);
    }

    #[test]
    #[should_panic(expected = "n ≥ 4")]
    fn too_few_replicas_panics() {
        let cfg = ProtocolConfig::new(NodeId(0), vec![NodeId(0), NodeId(1), NodeId(2)]);
        let _ = Pbft::new(cfg, Duration::from_millis(1));
    }

    #[test]
    fn delivery_under_message_reordering() {
        let mut c = SimCluster::pbft_with_seed(4, Duration::from_millis(100), 1234);
        c.shuffle_delivery(true);
        for i in 0..10u8 {
            c.submit(0, vec![i]);
        }
        c.run_to_quiescence();
        assert!(c.all_agree());
        assert_eq!(c.delivered(1).len(), 10);
    }
}
