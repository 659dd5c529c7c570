//! A crash-fault-tolerant quorum sequencer: the Kafka-like ordering
//! service of the paper's evaluation (§V: "a typical Kafka orderer
//! setup"), reduced to its ordering essence.
//!
//! One leader per epoch appends payloads at increasing offsets and
//! replicates them to followers; once a majority (including the leader)
//! has stored an offset, the leader commits it and followers deliver in
//! order. A stalled leader is replaced by bumping the epoch
//! (bully-style): the new leader re-appends its stored-but-undelivered
//! suffix. With `2f + 1` replicas the protocol tolerates `f` crashes.
//!
//! The log a leader keeps for lagging replicas is compacted: each
//! replica's host reports the lowest offset its own restart would replay
//! from ([`OrderingProtocol::compact`]), followers carry theirs on every
//! `Ack`, and the leader carries the minimum over all replicas on every
//! `Commit`. A replica that fetches below what the leader still holds (it
//! restarted) gets an [`Action::CatchUp`] ahead of the replay.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::time::Duration;

use parblock_types::NodeId;

use crate::action::{Action, TimerId};
use crate::traits::{OrderingProtocol, Payload, ProtocolConfig};

const PROGRESS_TIMER: TimerId = TimerId(0);

/// Sequencer wire messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SeqMsg {
    /// A follower forwards a client payload to the leader.
    Forward {
        /// The client payload.
        payload: Payload,
    },
    /// Leader replication of `payload` at `offset`.
    Append {
        /// The leader's epoch.
        epoch: u64,
        /// Log offset.
        offset: u64,
        /// The payload.
        payload: Payload,
    },
    /// Follower acknowledgement of a stored offset.
    Ack {
        /// Epoch of the acked append.
        epoch: u64,
        /// The stored offset.
        offset: u64,
        /// The lowest offset the follower's restart would replay from,
        /// as its host last reported it.
        floor: u64,
    },
    /// Leader notification that `offset` is replicated on a majority.
    Commit {
        /// The leader's epoch.
        epoch: u64,
        /// The committed offset.
        offset: u64,
        /// The lowest floor over all replicas, a replica the leader never
        /// heard from counting as 0: every replica may drop its retained
        /// log below it.
        floor: u64,
    },
    /// Epoch-change announcement (bully).
    NewEpoch {
        /// The proposed epoch.
        epoch: u64,
    },
    /// Catch-up request: the sender is missing every offset from `from`
    /// up to the first one it has stored. Sent when a replica detects a
    /// delivery gap — after a partition heals, or after a restart — and
    /// answered by replaying the retained committed offsets from `from`
    /// as ordinary `Append` + `Commit` pairs. A live replica never asks
    /// below the leader's log start, since its floor never passes its own
    /// next delivery; a restarted one can, and then the replay from the
    /// log start follows an [`Action::CatchUp`].
    Fetch {
        /// First missing offset.
        from: u64,
    },
}

#[derive(Debug, Default)]
struct Entry {
    payload: Option<Payload>,
    acks: BTreeSet<NodeId>,
    committed: bool,
}

/// A quorum-sequencer replica.
///
/// # Examples
///
/// ```
/// use parblock_consensus::testing::SimCluster;
///
/// let mut cluster = SimCluster::sequencer(3, std::time::Duration::from_millis(100));
/// cluster.submit(0, b"tx".to_vec());
/// cluster.run_to_quiescence();
/// assert_eq!(cluster.delivered(2), vec![(0, b"tx".to_vec())]);
/// ```
#[derive(Debug)]
pub struct QuorumSequencer {
    cfg: ProtocolConfig,
    epoch: u64,
    next_offset: u64,
    next_deliver: u64,
    log: BTreeMap<u64, Entry>,
    pending: VecDeque<Payload>,
    timeout: Duration,
    timer_armed: bool,
    /// Delivered payloads retained to answer [`SeqMsg::Fetch`] catch-up
    /// requests from partitioned or restarted replicas: exactly the
    /// offsets `log_start..next_deliver`. A `Commit`'s floor moves
    /// `log_start` up, so in a fault-free run this holds the few offsets
    /// between the slowest replica's last report and the newest delivery.
    /// An entry is a pointer to the bytes the log and the delivery held,
    /// so replicas of one process retain one copy between them.
    retained: BTreeMap<u64, Payload>,
    /// The lowest retained offset; never above `next_deliver`.
    log_start: u64,
    /// The lowest offset this replica's own restart would replay from,
    /// as its host last reported it ([`OrderingProtocol::compact`]).
    floor: u64,
    /// The highest floor each other replica has reported in an `Ack`.
    floors: BTreeMap<NodeId, u64>,
    /// `(gap head, highest offset announced when requested)` of the
    /// outstanding Fetch. Suppresses a replay-per-message burst during
    /// catch-up, but re-arms when a *higher* offset is announced — so a
    /// Fetch (or its replay) lost to a second fault window is retried
    /// as soon as the leader makes any further progress, instead of
    /// stalling the follower forever. Cleared when delivery progresses.
    fetch_requested: Option<(u64, u64)>,
}

impl QuorumSequencer {
    /// Creates a replica.
    ///
    /// # Panics
    ///
    /// Panics on an empty peer set (checked by [`ProtocolConfig`]) or a
    /// single-replica "cluster" (no fault tolerance, likely a bug).
    #[must_use]
    pub fn new(cfg: ProtocolConfig, timeout: Duration) -> Self {
        assert!(cfg.n() >= 2, "sequencer needs at least 2 replicas");
        QuorumSequencer {
            cfg,
            epoch: 0,
            next_offset: 0,
            next_deliver: 0,
            log: BTreeMap::new(),
            pending: VecDeque::new(),
            timeout,
            timer_armed: false,
            retained: BTreeMap::new(),
            log_start: 0,
            floor: 0,
            floors: BTreeMap::new(),
            fetch_requested: None,
        }
    }

    /// Majority size (including the leader).
    #[must_use]
    pub fn majority(&self) -> usize {
        self.cfg.n() / 2 + 1
    }

    /// The leader of `epoch`.
    #[must_use]
    pub fn leader_of(&self, epoch: u64) -> NodeId {
        self.cfg.peers[(epoch % self.cfg.n() as u64) as usize]
    }

    fn i_lead(&self) -> bool {
        self.leader_of(self.epoch) == self.cfg.id
    }

    fn arm_timer(&mut self, actions: &mut Vec<Action<SeqMsg>>) {
        if !self.timer_armed {
            self.timer_armed = true;
            actions.push(Action::SetTimer {
                id: PROGRESS_TIMER,
                after: self.timeout,
            });
        }
    }

    fn disarm_if_idle(&mut self, actions: &mut Vec<Action<SeqMsg>>) {
        let outstanding = !self.pending.is_empty()
            || self
                .log
                .values()
                .any(|e| e.payload.is_some() && !e.committed);
        if self.timer_armed && !outstanding {
            self.timer_armed = false;
            actions.push(Action::CancelTimer { id: PROGRESS_TIMER });
        }
    }

    fn append(&mut self, payload: Payload, actions: &mut Vec<Action<SeqMsg>>) {
        let offset = self.next_offset;
        self.next_offset += 1;
        let entry = self.log.entry(offset).or_default();
        entry.payload = Some(payload.clone());
        entry.acks.insert(self.cfg.id);
        actions.push(Action::Broadcast {
            msg: SeqMsg::Append {
                epoch: self.epoch,
                offset,
                payload,
            },
        });
        self.arm_timer(actions);
        self.maybe_commit(offset, actions);
    }

    fn maybe_commit(&mut self, offset: u64, actions: &mut Vec<Action<SeqMsg>>) {
        let majority = self.majority();
        let epoch = self.epoch;
        let Some(entry) = self.log.get_mut(&offset) else {
            return;
        };
        if entry.committed || entry.payload.is_none() || entry.acks.len() < majority {
            return;
        }
        entry.committed = true;
        let floor = self.cluster_floor();
        actions.push(Action::Broadcast {
            msg: SeqMsg::Commit {
                epoch,
                offset,
                floor,
            },
        });
        self.try_deliver(actions);
        self.trim(floor);
    }

    /// The lowest floor over all replicas: this one's, and each other's
    /// highest report, 0 for one that never reported.
    fn cluster_floor(&self) -> u64 {
        let others = self.cfg.peers.iter().filter(|&&p| p != self.cfg.id);
        let reported = others.map(|p| self.floors.get(p).copied().unwrap_or(0));
        reported.fold(self.floor, u64::min)
    }

    /// Drops the retained payloads below `floor`, or below the next
    /// delivery when that is lower.
    fn trim(&mut self, floor: u64) {
        let start = floor.min(self.next_deliver);
        while let Some(entry) = self.retained.first_entry() {
            if *entry.key() >= start {
                break;
            }
            entry.remove();
        }
        self.log_start = self.log_start.max(start);
    }

    fn try_deliver(&mut self, actions: &mut Vec<Action<SeqMsg>>) {
        while let Some(entry) = self.log.get(&self.next_deliver) {
            if !entry.committed || entry.payload.is_none() {
                break;
            }
            let offset = self.next_deliver;
            let entry = self.log.remove(&offset).expect("present");
            let payload = entry.payload.expect("checked");
            self.retained.insert(offset, payload.clone());
            actions.push(Action::Deliver {
                seq: offset,
                payload,
            });
            self.next_deliver += 1;
            self.next_offset = self.next_offset.max(self.next_deliver);
        }
        // Progress re-arms gap fetching: the previous request either
        // worked (and a further gap, if any, starts at a new head) or is
        // now about a different offset entirely.
        if self
            .fetch_requested
            .is_some_and(|(head, _)| self.next_deliver > head)
        {
            self.fetch_requested = None;
        }
        self.disarm_if_idle(actions);
    }

    /// Detects a delivery gap — `from` announced (or committed) an offset
    /// beyond `next_deliver` while the head offset cannot deliver — and
    /// asks the announcer for the missing range.
    ///
    /// A present-but-uncommitted head counts as a gap only in *commit
    /// context* (`committed_context`, the `Commit` handler): Commit
    /// messages for one epoch are broadcast in offset order, so under
    /// FIFO links receiving `Commit(j)` while `Commit(next_deliver < j)`
    /// has not arrived means the head's commit was dropped — it is never
    /// resent, and without a Fetch the replica would stall forever. In
    /// append context the head's commit is simply still in flight.
    ///
    /// At most one Fetch is outstanding per gap head
    /// (`fetch_requested`, re-armed when delivery progresses), so a
    /// catch-up does not trigger a replay per received message. Fetch
    /// replays are idempotent: the log absorbs duplicates.
    fn fetch_gap_if_any(
        &mut self,
        from: NodeId,
        announced: u64,
        committed_context: bool,
        actions: &mut Vec<Action<SeqMsg>>,
    ) {
        if announced <= self.next_deliver {
            return;
        }
        // Already requested for this gap head, and nothing new has been
        // announced since — the replay is (presumably) in flight. A
        // higher announcement re-arms the request, covering a Fetch or
        // replay lost to a later fault window.
        if matches!(
            self.fetch_requested,
            Some((head, upto)) if head == self.next_deliver && announced <= upto
        ) {
            return;
        }
        let head_blocked = match self.log.get(&self.next_deliver) {
            None => true,
            Some(e) if e.payload.is_none() => true,
            Some(e) => committed_context && !e.committed,
        };
        if head_blocked {
            self.fetch_requested = Some((self.next_deliver, announced));
            actions.push(Action::Send {
                to: from,
                msg: SeqMsg::Fetch {
                    from: self.next_deliver,
                },
            });
        }
    }

    fn adopt_epoch(&mut self, epoch: u64, actions: &mut Vec<Action<SeqMsg>>) {
        if epoch <= self.epoch {
            return;
        }
        self.epoch = epoch;
        for entry in self.log.values_mut() {
            if !entry.committed {
                entry.acks.clear();
                entry.acks.insert(self.cfg.id);
            }
        }
        if self.i_lead() {
            // Re-replicate the stored, undelivered suffix under the new
            // epoch, then any queued fresh payloads.
            self.next_offset = self
                .log
                .keys()
                .next_back()
                .map_or(self.next_deliver, |&last| (last + 1).max(self.next_deliver));
            let stored: Vec<(u64, Payload)> = self
                .log
                .iter()
                .filter(|(_, e)| e.payload.is_some() && !e.committed)
                .map(|(&o, e)| (o, e.payload.clone().expect("filtered")))
                .collect();
            for (offset, payload) in stored {
                actions.push(Action::Broadcast {
                    msg: SeqMsg::Append {
                        epoch: self.epoch,
                        offset,
                        payload,
                    },
                });
                self.maybe_commit(offset, actions);
            }
            let pending: Vec<Payload> = self.pending.drain(..).collect();
            for payload in pending {
                self.append(payload, actions);
            }
        } else {
            // Forward queued payloads to the new leader.
            let leader = self.leader_of(self.epoch);
            for payload in self.pending.drain(..) {
                actions.push(Action::Send {
                    to: leader,
                    msg: SeqMsg::Forward { payload },
                });
            }
        }
        if self.timer_armed {
            self.timer_armed = false;
            self.arm_timer(actions);
        }
    }
}

impl OrderingProtocol for QuorumSequencer {
    type Msg = SeqMsg;

    fn submit(&mut self, payload: Payload) -> Vec<Action<SeqMsg>> {
        let mut actions = Vec::new();
        if self.i_lead() {
            self.append(payload, &mut actions);
        } else {
            actions.push(Action::Send {
                to: self.leader_of(self.epoch),
                msg: SeqMsg::Forward { payload },
            });
            self.arm_timer(&mut actions);
        }
        actions
    }

    fn on_message(&mut self, from: NodeId, msg: SeqMsg) -> Vec<Action<SeqMsg>> {
        let mut actions = Vec::new();
        match msg {
            SeqMsg::Forward { payload } => {
                if self.i_lead() {
                    self.append(payload, &mut actions);
                } else {
                    // Stale leadership view at the sender: re-forward.
                    actions.push(Action::Send {
                        to: self.leader_of(self.epoch),
                        msg: SeqMsg::Forward { payload },
                    });
                }
            }
            SeqMsg::Append {
                epoch,
                offset,
                payload,
            } => {
                if epoch < self.epoch || from != self.leader_of(epoch) {
                    return actions;
                }
                self.adopt_epoch(epoch, &mut actions);
                if offset < self.next_deliver {
                    return actions;
                }
                let entry = self.log.entry(offset).or_default();
                entry.payload = Some(payload);
                let already_committed = entry.committed;
                self.next_offset = self.next_offset.max(offset + 1);
                actions.push(Action::Send {
                    to: from,
                    msg: SeqMsg::Ack {
                        epoch,
                        offset,
                        floor: self.floor,
                    },
                });
                self.arm_timer(&mut actions);
                // A commit may have arrived before the (re)append.
                if already_committed {
                    self.try_deliver(&mut actions);
                }
                self.fetch_gap_if_any(from, offset, false, &mut actions);
            }
            SeqMsg::Ack {
                epoch,
                offset,
                floor,
            } => {
                let reported = self.floors.entry(from).or_default();
                *reported = (*reported).max(floor);
                if epoch != self.epoch || !self.i_lead() {
                    return actions;
                }
                if let Some(entry) = self.log.get_mut(&offset) {
                    entry.acks.insert(from);
                }
                self.maybe_commit(offset, &mut actions);
            }
            SeqMsg::Commit {
                epoch,
                offset,
                floor,
            } => {
                if from != self.leader_of(epoch) || epoch < self.epoch {
                    return actions;
                }
                self.adopt_epoch(epoch, &mut actions);
                if offset >= self.next_deliver {
                    self.log.entry(offset).or_default().committed = true;
                }
                self.try_deliver(&mut actions);
                self.trim(floor);
                self.fetch_gap_if_any(from, offset, true, &mut actions);
            }
            SeqMsg::NewEpoch { epoch } => {
                self.adopt_epoch(epoch, &mut actions);
            }
            SeqMsg::Fetch { from: first } => {
                if self.i_lead() {
                    // Below the log start only the host's state can bring
                    // the requester (a restarted replica) up to date, and
                    // it goes ahead of the replay.
                    let epoch = self.epoch;
                    if first < self.log_start {
                        actions.push(Action::CatchUp {
                            to: from,
                            epoch,
                            log_start: self.log_start,
                        });
                    }
                    // Replay the retained committed range as ordinary
                    // Append + Commit pairs — the requester's normal
                    // admission path absorbs them (and deduplicates any
                    // offsets it meanwhile obtained elsewhere).
                    let floor = self.cluster_floor();
                    for (&offset, payload) in self.retained.range(first..) {
                        actions.push(Action::Send {
                            to: from,
                            msg: SeqMsg::Append {
                                epoch,
                                offset,
                                payload: payload.clone(),
                            },
                        });
                        actions.push(Action::Send {
                            to: from,
                            msg: SeqMsg::Commit {
                                epoch,
                                offset,
                                floor,
                            },
                        });
                    }
                }
                // Non-leaders ignore Fetch: gaps are only ever detected
                // on messages from the leader, so requests are already
                // addressed there; replays from anyone else would fail
                // the receiver's leadership check anyway.
            }
        }
        actions
    }

    fn on_timer(&mut self, id: TimerId) -> Vec<Action<SeqMsg>> {
        let mut actions = Vec::new();
        if id != PROGRESS_TIMER {
            return actions;
        }
        self.timer_armed = false;
        let next = self.epoch + 1;
        actions.push(Action::Broadcast {
            msg: SeqMsg::NewEpoch { epoch: next },
        });
        self.adopt_epoch(next, &mut actions);
        self.arm_timer(&mut actions);
        actions
    }

    fn id(&self) -> NodeId {
        self.cfg.id
    }

    fn is_leader(&self) -> bool {
        self.i_lead()
    }

    fn current_view(&self) -> u64 {
        self.epoch
    }

    fn compact(&mut self, below: u64) {
        self.floor = below;
    }

    /// A restarted replica knows neither the epoch nor its leader, so it
    /// sends every other replica one `Fetch` from its next delivery; only
    /// the leader answers. Without it a replica restarted after the last
    /// payload was ordered hears no `Append` or `Commit` that shows its
    /// gap, and stays behind.
    fn rejoin(&mut self) -> Vec<Action<SeqMsg>> {
        let from = self.next_deliver;
        let others = self.cfg.peers.iter().filter(|&&p| p != self.cfg.id);
        others
            .map(|&to| Action::Send {
                to,
                msg: SeqMsg::Fetch { from },
            })
            .collect()
    }

    fn catch_up(&mut self, from: NodeId, epoch: u64, offset: u64) -> Option<Vec<Action<SeqMsg>>> {
        if epoch < self.epoch || from != self.leader_of(epoch) || offset <= self.next_deliver {
            return None;
        }
        let mut actions = Vec::new();
        self.adopt_epoch(epoch, &mut actions);
        self.log = self.log.split_off(&offset);
        self.retained.clear();
        self.log_start = offset;
        self.next_deliver = offset;
        self.next_offset = self.next_offset.max(offset);
        self.fetch_requested = None;
        self.try_deliver(&mut actions);
        Some(actions)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;
    use std::time::Duration;

    use crate::testing::SimCluster;

    use super::*;

    fn cluster(n: usize) -> SimCluster<QuorumSequencer> {
        SimCluster::sequencer(n, Duration::from_millis(100))
    }

    #[test]
    fn leader_orders_and_everyone_delivers() {
        let mut c = cluster(3);
        c.submit(0, b"a".to_vec());
        c.submit(0, b"b".to_vec());
        c.run_to_quiescence();
        for r in 0..3 {
            assert_eq!(
                c.delivered(r),
                vec![(0, b"a".to_vec()), (1, b"b".to_vec())],
                "replica {r}"
            );
        }
    }

    #[test]
    fn follower_submissions_are_forwarded() {
        let mut c = cluster(3);
        c.submit(1, b"x".to_vec());
        c.submit(2, b"y".to_vec());
        c.run_to_quiescence();
        assert!(c.all_agree());
        assert_eq!(c.delivered(0).len(), 2);
    }

    #[test]
    fn tolerates_one_crashed_follower_of_three() {
        let mut c = cluster(3);
        c.crash(2);
        c.submit(0, b"still-works".to_vec());
        c.run_to_quiescence();
        assert_eq!(c.delivered(0).len(), 1);
        assert_eq!(c.delivered(1).len(), 1);
    }

    #[test]
    fn leader_crash_triggers_epoch_change() {
        let mut c = cluster(3);
        c.submit(1, b"urgent".to_vec());
        c.crash(0); // leader of epoch 0 dies before appending? (forward may be lost)
        c.run_to_quiescence();
        // Followers' timers fire: epoch 1 elects replica 1 as leader.
        c.fire_timers();
        c.run_to_quiescence();
        assert!(c.view_of(1) >= 1);
        assert!(c.node(1).is_leader() || c.node(2).is_leader());
        // The payload was forwarded to the dead leader and lost — the
        // host layer resubmits (documented at-most-once). Resubmit here:
        c.submit(1, b"urgent".to_vec());
        c.run_to_quiescence();
        assert_eq!(c.delivered(1).len(), 1);
        assert_eq!(c.delivered(2).len(), 1);
        assert!(c.all_agree());
    }

    #[test]
    fn new_leader_recovers_stored_suffix() {
        let mut c = cluster(3);
        // Leader appends; followers store and ack; commit goes out.
        c.submit(0, b"committed".to_vec());
        c.run_to_quiescence();
        // Now an append that reaches followers but whose commit does not:
        // crash the leader right after submitting (acks still queued).
        c.submit(0, b"in-flight".to_vec());
        c.step_n(2); // deliver the two Appends only
        c.crash(0);
        c.run_to_quiescence(); // acks to the dead leader vanish
        c.fire_timers();
        c.run_to_quiescence();
        // The new leader stored "in-flight" and must finish it.
        for r in 1..3 {
            let log = c.delivered(r);
            assert_eq!(log.len(), 2, "replica {r}: {log:?}");
            assert_eq!(log[1].1, b"in-flight".to_vec());
        }
        assert!(c.all_agree());
    }

    #[test]
    fn five_replicas_survive_two_crashes() {
        let mut c = cluster(5);
        c.crash(3);
        c.crash(4);
        c.submit(0, b"q".to_vec());
        c.run_to_quiescence();
        for r in 0..3 {
            assert_eq!(c.delivered(r).len(), 1, "replica {r}");
        }
    }

    #[test]
    fn partitioned_follower_fetches_the_gap_after_heal() {
        let mut c = cluster(3);
        c.submit(0, b"a".to_vec());
        c.run_to_quiescence();
        // Replica 2 drops off the network; the majority keeps ordering.
        c.crash(2);
        c.submit(0, b"b".to_vec());
        c.submit(0, b"c".to_vec());
        c.run_to_quiescence();
        assert_eq!(c.delivered(2).len(), 1, "partitioned: stuck at offset 0");
        // Heal. The next ordered payload announces offset 3; replica 2
        // detects the gap [1, 3), fetches, and replays to full length.
        c.reconnect(2);
        c.submit(0, b"d".to_vec());
        c.run_to_quiescence();
        assert_eq!(
            c.delivered(2),
            vec![
                (0, b"a".to_vec()),
                (1, b"b".to_vec()),
                (2, b"c".to_vec()),
                (3, b"d".to_vec()),
            ],
            "healed follower must catch up to the full log"
        );
        assert!(c.all_agree());
    }

    /// One copy: what a replica logs, retains, delivers and replays to a
    /// lagging follower is the allocation that was submitted.
    #[test]
    fn every_log_and_delivery_holds_the_submitted_allocation() {
        let mut c = cluster(3);
        let first: Payload = b"ordered once".as_slice().into();
        let second: Payload = b"and kept once".as_slice().into();
        c.crash(2);
        c.submit_shared(0, Payload::clone(&first));
        c.run_to_quiescence();
        // Replica 2 missed offset 0 and obtains it through a Fetch replay.
        c.reconnect(2);
        c.submit_shared(1, Payload::clone(&second));
        c.run_to_quiescence();
        for r in 0..3 {
            let delivered = c.delivered_shared(r);
            assert_eq!(delivered.len(), 2, "replica {r}");
            for (offset, submitted) in [(0, &first), (1, &second)] {
                assert!(Arc::ptr_eq(&delivered[offset].1, submitted), "replica {r}");
                let retained = &c.node(r).retained[&(offset as u64)];
                assert!(Arc::ptr_eq(retained, submitted), "replica {r}");
            }
        }
    }

    #[test]
    fn lost_commit_for_a_stored_offset_triggers_fetch_exactly_once() {
        let peers: Vec<NodeId> = (0..3).map(NodeId).collect();
        let mut follower = QuorumSequencer::new(
            ProtocolConfig::new(NodeId(2), peers),
            Duration::from_millis(100),
        );
        let append = |offset: u64, payload: &[u8]| SeqMsg::Append {
            epoch: 0,
            offset,
            payload: payload.into(),
        };
        let commit = |offset| SeqMsg::Commit {
            epoch: 0,
            offset,
            floor: 0,
        };
        // Both Appends arrive; Commit(0) is lost to a partition window.
        let _ = follower.on_message(NodeId(0), append(0, b"a"));
        let _ = follower.on_message(NodeId(0), append(1, b"b"));
        // Commit(1) arriving while offset 0 is stored-but-uncommitted is
        // proof (FIFO links, in-order commit broadcast) that Commit(0)
        // was dropped and will never be resent: fetch.
        let actions = follower.on_message(NodeId(0), commit(1));
        let is_fetch0 = |a: &Action<SeqMsg>| {
            matches!(a, Action::Send { to: NodeId(0), msg: SeqMsg::Fetch { from: 0 } })
        };
        assert_eq!(actions.iter().filter(|a| is_fetch0(a)).count(), 1);
        // Further observations of the *same* gap evidence do not
        // re-fetch — the replay is in flight.
        let again = follower.on_message(NodeId(0), commit(1));
        assert!(!again.iter().any(is_fetch0), "duplicate Fetch for one gap head");
        // But a higher announcement re-arms the request: if the first
        // Fetch (or its replay) was itself lost to a fault window, the
        // leader's continued progress retries it.
        let rearmed = follower.on_message(NodeId(0), commit(2));
        assert_eq!(
            rearmed.iter().filter(|a| is_fetch0(a)).count(),
            1,
            "a higher offset must re-arm the gap fetch"
        );
        // The leader's replay (Append + Commit for offset 0) unblocks
        // delivery of both offsets.
        let _ = follower.on_message(NodeId(0), append(0, b"a"));
        let actions = follower.on_message(NodeId(0), commit(0));
        let delivered: Vec<u64> = actions
            .iter()
            .filter_map(|a| match a {
                Action::Deliver { seq, .. } => Some(*seq),
                _ => None,
            })
            .collect();
        assert_eq!(delivered, vec![0, 1]);
    }

    #[test]
    fn fetch_replays_only_from_the_requested_offset() {
        let peers: Vec<NodeId> = (0..3).map(NodeId).collect();
        let mut leader = QuorumSequencer::new(
            ProtocolConfig::new(NodeId(0), peers),
            Duration::from_millis(100),
        );
        // Order two payloads (self-ack + one follower ack each).
        for payload in [b"x", b"y"] {
            let _ = leader.submit(payload.as_slice().into());
        }
        for offset in 0..2 {
            let ack = SeqMsg::Ack {
                epoch: 0,
                offset,
                floor: 0,
            };
            let _ = leader.on_message(NodeId(1), ack);
        }
        let replay = leader.on_message(NodeId(2), SeqMsg::Fetch { from: 1 });
        // Offset 0 is not replayed; offset 1 arrives as Append + Commit.
        assert!(replay.iter().all(|a| !matches!(
            a,
            Action::Send { msg: SeqMsg::Append { offset: 0, .. }, .. }
        )));
        assert!(replay.iter().any(|a| matches!(
            a,
            Action::Send { to: NodeId(2), msg: SeqMsg::Append { offset: 1, .. } }
        )));
        assert!(replay.iter().any(|a| matches!(
            a,
            Action::Send { to: NodeId(2), msg: SeqMsg::Commit { offset: 1, .. } }
        )));
    }

    /// The largest retained log of any replica.
    fn most_retained(c: &SimCluster<QuorumSequencer>) -> usize {
        (0..3).map(|r| c.node(r).retained.len()).max().unwrap_or(0)
    }

    /// Fault-free, every replica reports its next delivery, and each
    /// commit's floor trims the log to the offsets still being ordered.
    #[test]
    fn a_fault_free_run_retains_a_bounded_log() {
        let mut c = cluster(3);
        let mut most = 0;
        for i in 0..1_000u32 {
            c.submit((i % 3) as usize, i.to_le_bytes().to_vec());
            while c.step() {
                most = most.max(most_retained(&c));
            }
        }
        assert_eq!(c.delivered(2).len(), 1_000);
        assert!(c.all_agree());
        assert!(most <= 2, "a replica retained {most} payloads");
        for r in 0..3 {
            assert!(c.node(r).log_start >= 998, "replica {r}");
        }
    }

    /// A replica the leader never heard from counts as floor 0: nothing
    /// is trimmed while it may still need offset 0.
    #[test]
    fn a_replica_that_never_acked_keeps_the_floor_at_zero() {
        let mut c = cluster(3);
        c.crash(2);
        for i in 0..50u32 {
            c.submit(0, i.to_le_bytes().to_vec());
            c.run_to_quiescence();
        }
        for r in 0..2 {
            assert_eq!(c.node(r).log_start, 0, "replica {r}");
            assert_eq!(c.node(r).retained.len(), 50, "replica {r}");
        }
    }

    /// A leader that trimmed past offset 0 answers a Fetch from offset 0
    /// with a catch-up first, then replays from its log start.
    #[test]
    fn a_fetch_below_the_log_start_sends_a_catch_up_before_the_replay() {
        let peers: Vec<NodeId> = (0..3).map(NodeId).collect();
        let mut leader = QuorumSequencer::new(
            ProtocolConfig::new(NodeId(0), peers),
            Duration::from_millis(100),
        );
        let ack = |offset, floor| SeqMsg::Ack {
            epoch: 0,
            offset,
            floor,
        };
        for offset in 0..3 {
            let _ = leader.submit([offset as u8].as_slice().into());
            let _ = leader.on_message(NodeId(1), ack(offset, 0));
        }
        leader.compact(3);
        let _ = leader.on_message(NodeId(1), ack(2, 2));
        let _ = leader.on_message(NodeId(2), ack(2, 2));
        let _ = leader.submit(b"d".as_slice().into());
        let committed = leader.on_message(NodeId(1), ack(3, 2));
        assert!(committed.iter().any(|a| matches!(
            a,
            Action::Broadcast {
                msg: SeqMsg::Commit {
                    offset: 3,
                    floor: 2,
                    ..
                }
            }
        )));
        assert_eq!(leader.log_start, 2);
        let retained: Vec<u64> = leader.retained.keys().copied().collect();
        assert_eq!(retained, vec![2, 3]);

        let replay = leader.on_message(NodeId(2), SeqMsg::Fetch { from: 0 });
        let catch_up = Action::CatchUp {
            to: NodeId(2),
            epoch: 0,
            log_start: 2,
        };
        assert_eq!(replay.first(), Some(&catch_up));
        let offsets: Vec<(u64, bool)> = replay[1..]
            .iter()
            .map(|a| match a {
                Action::Send {
                    to: NodeId(2),
                    msg: SeqMsg::Append { offset, .. },
                } => (*offset, false),
                Action::Send {
                    to: NodeId(2),
                    msg: SeqMsg::Commit { offset, .. },
                } => (*offset, true),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(offsets, vec![(2, false), (2, true), (3, false), (3, true)]);
        // A Fetch at the log start needs no catch-up.
        let replay = leader.on_message(NodeId(2), SeqMsg::Fetch { from: 2 });
        assert!(!replay.iter().any(|a| matches!(a, Action::CatchUp { .. })));
    }

    /// A replica restarted with nothing takes the leader's delivered log
    /// through the catch-up and then follows the live stream.
    #[test]
    fn a_restarted_replica_catches_up_from_the_leaders_log() {
        let mut c = cluster(3);
        for i in 0..100u32 {
            c.submit(0, i.to_le_bytes().to_vec());
            c.run_to_quiescence();
        }
        assert!(c.node(0).log_start > 0, "the leader trimmed past offset 0");
        let peers: Vec<NodeId> = (0..3).map(NodeId).collect();
        let fresh = QuorumSequencer::new(
            ProtocolConfig::new(NodeId(2), peers),
            Duration::from_millis(100),
        );
        c.restart(2, fresh);
        c.submit(1, b"after".to_vec());
        c.run_to_quiescence();
        assert_eq!(c.delivered(2).len(), 101);
        assert_eq!(c.delivered(2), c.delivered(0));
        // A catch-up from a replica that does not lead is refused.
        let mut follower = QuorumSequencer::new(
            ProtocolConfig::new(NodeId(2), (0..3).map(NodeId).collect()),
            Duration::from_millis(100),
        );
        assert!(follower.catch_up(NodeId(1), 0, 5).is_none());
        assert!(follower.catch_up(NodeId(0), 0, 5).is_some());
        let again = follower.catch_up(NodeId(0), 0, 5);
        assert!(again.is_none(), "already there");
    }

    /// A replica restarted after the last payload was ordered hears no
    /// `Append` or `Commit` that shows its gap; its rejoin `Fetch` is what
    /// brings it to the leader's log.
    #[test]
    fn a_replica_restarted_after_the_last_payload_catches_up_by_itself() {
        for victim in [1, 2] {
            let mut c = cluster(3);
            for i in 0..10u32 {
                c.submit(0, i.to_le_bytes().to_vec());
                c.run_to_quiescence();
            }
            let peers: Vec<NodeId> = (0..3).map(NodeId).collect();
            let fresh = QuorumSequencer::new(
                ProtocolConfig::new(NodeId(victim as u32), peers),
                Duration::from_millis(100),
            );
            c.restart(victim, fresh);
            c.run_to_quiescence();
            assert_eq!(c.delivered(victim), c.delivered(0), "victim {victim}");
            assert_eq!(c.node(victim).next_deliver, 10);
        }
    }

    #[test]
    fn majority_sizes() {
        let peers: Vec<NodeId> = (0..3).map(NodeId).collect();
        let s = QuorumSequencer::new(
            ProtocolConfig::new(NodeId(0), peers),
            Duration::from_millis(1),
        );
        assert_eq!(s.majority(), 2);
        let peers: Vec<NodeId> = (0..5).map(NodeId).collect();
        let s = QuorumSequencer::new(
            ProtocolConfig::new(NodeId(0), peers),
            Duration::from_millis(1),
        );
        assert_eq!(s.majority(), 3);
    }

    #[test]
    #[should_panic(expected = "at least 2 replicas")]
    fn single_replica_panics() {
        let peers = vec![NodeId(0)];
        let _ = QuorumSequencer::new(
            ProtocolConfig::new(NodeId(0), peers),
            Duration::from_millis(1),
        );
    }

    #[test]
    fn stale_epoch_appends_are_ignored() {
        let peers: Vec<NodeId> = (0..3).map(NodeId).collect();
        let mut follower = QuorumSequencer::new(
            ProtocolConfig::new(NodeId(2), peers),
            Duration::from_millis(100),
        );
        // Jump to epoch 1 (leader = NodeId(1)).
        let _ = follower.on_message(NodeId(1), SeqMsg::NewEpoch { epoch: 1 });
        assert_eq!(follower.current_view(), 1);
        // An epoch-0 append from the old leader is rejected.
        let actions = follower.on_message(
            NodeId(0),
            SeqMsg::Append {
                epoch: 0,
                offset: 0,
                payload: b"old".as_slice().into(),
            },
        );
        assert!(actions.is_empty());
    }
}
