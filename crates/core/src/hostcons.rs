//! Hosting glue for the pluggable consensus protocols: a uniform wrapper
//! over PBFT and the quorum sequencer, plus deadline tracking for their
//! timers.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use parblock_consensus::{
    Action, OrderingProtocol, Payload, Pbft, ProtocolConfig, QuorumSequencer, TimerId,
};
use parblock_types::NodeId;

use crate::msg::ConsMsg;

/// A consensus instance of either kind, presenting [`ConsMsg`] uniformly.
#[derive(Debug)]
pub enum AnyConsensus {
    /// PBFT (Byzantine fault-tolerant, n ≥ 4).
    Pbft(Pbft),
    /// Quorum sequencer (crash fault-tolerant, n ≥ 2).
    Seq(QuorumSequencer),
}

fn map_actions<M>(actions: Vec<Action<M>>, wrap: fn(M) -> ConsMsg) -> Vec<Action<ConsMsg>> {
    actions
        .into_iter()
        .map(|a| match a {
            Action::Send { to, msg } => Action::Send { to, msg: wrap(msg) },
            Action::Broadcast { msg } => Action::Broadcast { msg: wrap(msg) },
            Action::Deliver { seq, payload } => Action::Deliver { seq, payload },
            Action::SetTimer { id, after } => Action::SetTimer { id, after },
            Action::CancelTimer { id } => Action::CancelTimer { id },
            Action::CatchUp {
                to,
                epoch,
                log_start,
            } => Action::CatchUp {
                to,
                epoch,
                log_start,
            },
        })
        .collect()
}

impl AnyConsensus {
    /// Builds a PBFT instance.
    #[must_use]
    pub fn pbft(cfg: ProtocolConfig, timeout: Duration) -> Self {
        AnyConsensus::Pbft(Pbft::new(cfg, timeout))
    }

    /// Builds a sequencer instance.
    #[must_use]
    pub fn sequencer(cfg: ProtocolConfig, timeout: Duration) -> Self {
        AnyConsensus::Seq(QuorumSequencer::new(cfg, timeout))
    }
}

impl OrderingProtocol for AnyConsensus {
    type Msg = ConsMsg;

    fn submit(&mut self, payload: Payload) -> Vec<Action<ConsMsg>> {
        match self {
            AnyConsensus::Pbft(p) => map_actions(p.submit(payload), ConsMsg::Pbft),
            AnyConsensus::Seq(s) => map_actions(s.submit(payload), ConsMsg::Seq),
        }
    }

    fn on_message(&mut self, from: NodeId, msg: ConsMsg) -> Vec<Action<ConsMsg>> {
        match (self, msg) {
            (AnyConsensus::Pbft(p), ConsMsg::Pbft(m)) => {
                map_actions(p.on_message(from, m), ConsMsg::Pbft)
            }
            (AnyConsensus::Seq(s), ConsMsg::Seq(m)) => {
                map_actions(s.on_message(from, m), ConsMsg::Seq)
            }
            // Mixed traffic (misconfigured cluster) is dropped.
            _ => Vec::new(),
        }
    }

    fn on_timer(&mut self, id: TimerId) -> Vec<Action<ConsMsg>> {
        match self {
            AnyConsensus::Pbft(p) => map_actions(p.on_timer(id), ConsMsg::Pbft),
            AnyConsensus::Seq(s) => map_actions(s.on_timer(id), ConsMsg::Seq),
        }
    }

    fn id(&self) -> NodeId {
        match self {
            AnyConsensus::Pbft(p) => p.id(),
            AnyConsensus::Seq(s) => s.id(),
        }
    }

    fn is_leader(&self) -> bool {
        match self {
            AnyConsensus::Pbft(p) => p.is_leader(),
            AnyConsensus::Seq(s) => s.is_leader(),
        }
    }

    fn current_view(&self) -> u64 {
        match self {
            AnyConsensus::Pbft(p) => p.current_view(),
            AnyConsensus::Seq(s) => s.current_view(),
        }
    }

    fn compact(&mut self, below: u64) {
        match self {
            AnyConsensus::Pbft(p) => p.compact(below),
            AnyConsensus::Seq(s) => s.compact(below),
        }
    }

    fn rejoin(&mut self) -> Vec<Action<ConsMsg>> {
        match self {
            AnyConsensus::Pbft(p) => map_actions(p.rejoin(), ConsMsg::Pbft),
            AnyConsensus::Seq(s) => map_actions(s.rejoin(), ConsMsg::Seq),
        }
    }

    fn catch_up(&mut self, from: NodeId, epoch: u64, offset: u64) -> Option<Vec<Action<ConsMsg>>> {
        match self {
            AnyConsensus::Pbft(p) => {
                Some(map_actions(p.catch_up(from, epoch, offset)?, ConsMsg::Pbft))
            }
            AnyConsensus::Seq(s) => {
                Some(map_actions(s.catch_up(from, epoch, offset)?, ConsMsg::Seq))
            }
        }
    }
}

/// Deadlines for protocol timers ([`Action::SetTimer`] /
/// [`Action::CancelTimer`]).
///
/// The caller supplies *now* explicitly (from the cluster [`Clock`]), so
/// the table works identically under the wall clock and under the
/// deterministic simulator; a `BTreeMap` keeps expiry order a pure
/// function of the timer ids rather than of hash-map iteration order.
///
/// [`Clock`]: parblock_types::Clock
#[derive(Debug, Default)]
pub struct TimerTable {
    deadlines: BTreeMap<TimerId, Instant>,
}

impl TimerTable {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Applies the timer-related actions in `actions` (send/deliver
    /// actions are left for the caller), with deadlines measured from
    /// `now`.
    pub fn absorb<M>(&mut self, actions: &[Action<M>], now: Instant) {
        for action in actions {
            match action {
                Action::SetTimer { id, after } => {
                    self.deadlines.insert(*id, now + *after);
                }
                Action::CancelTimer { id } => {
                    self.deadlines.remove(id);
                }
                _ => {}
            }
        }
    }

    /// The earliest pending deadline.
    #[must_use]
    pub fn next_deadline(&self) -> Option<Instant> {
        self.deadlines.values().min().copied()
    }

    /// Removes and returns the timers expired as of `now`, in timer-id
    /// order.
    pub fn take_expired(&mut self, now: Instant) -> Vec<TimerId> {
        let expired: Vec<TimerId> = self
            .deadlines
            .iter()
            .filter(|(_, &d)| d <= now)
            .map(|(&id, _)| id)
            .collect();
        for id in &expired {
            self.deadlines.remove(id);
        }
        expired
    }
}

#[cfg(test)]
mod tests {
    use parblock_consensus::{PbftMsg, SeqMsg};

    use super::*;

    fn peers(n: u32) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    #[test]
    fn wrapped_sequencer_orders_payloads() {
        let cfg = ProtocolConfig::new(NodeId(0), peers(3));
        let mut leader = AnyConsensus::sequencer(cfg, Duration::from_millis(100));
        assert!(leader.is_leader());
        let actions = leader.submit(b"p".as_slice().into());
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::Broadcast { msg: ConsMsg::Seq(_) })));
    }

    #[test]
    fn wrapped_pbft_reports_identity() {
        let cfg = ProtocolConfig::new(NodeId(2), peers(4));
        let replica = AnyConsensus::pbft(cfg, Duration::from_millis(100));
        assert_eq!(replica.id(), NodeId(2));
        assert!(!replica.is_leader());
        assert_eq!(replica.current_view(), 0);
    }

    #[test]
    fn mixed_protocol_traffic_is_dropped() {
        let cfg = ProtocolConfig::new(NodeId(0), peers(3));
        let mut seq = AnyConsensus::sequencer(cfg, Duration::from_millis(100));
        let actions = seq.on_message(
            NodeId(1),
            ConsMsg::Pbft(parblock_consensus::PbftMsg::Forward {
                payload: Payload::from([]),
            }),
        );
        assert!(actions.is_empty());
    }

    #[test]
    fn timer_table_tracks_deadlines() {
        let mut table = TimerTable::new();
        let now = Instant::now();
        let actions: Vec<Action<ConsMsg>> = vec![
            Action::SetTimer {
                id: TimerId(1),
                after: Duration::ZERO,
            },
            Action::SetTimer {
                id: TimerId(2),
                after: Duration::from_secs(60),
            },
        ];
        table.absorb(&actions, now);
        assert!(table.next_deadline().is_some());
        let expired = table.take_expired(now);
        assert_eq!(expired, vec![TimerId(1)]);
        let cancel: Vec<Action<ConsMsg>> = vec![Action::CancelTimer { id: TimerId(2) }];
        table.absorb(&cancel, now);
        assert!(table.next_deadline().is_none());
    }

    #[test]
    fn timer_table_expiry_is_deterministic_and_time_driven() {
        let mut table = TimerTable::new();
        let now = Instant::now();
        let actions: Vec<Action<ConsMsg>> = (0..4)
            .map(|i| Action::SetTimer {
                id: TimerId(3 - i),
                after: Duration::from_millis(5),
            })
            .collect();
        table.absorb(&actions, now);
        assert!(table.take_expired(now).is_empty(), "nothing due yet");
        let expired = table.take_expired(now + Duration::from_millis(5));
        assert_eq!(
            expired,
            vec![TimerId(0), TimerId(1), TimerId(2), TimerId(3)],
            "expiry order is id order, not insertion or hash order"
        );
    }

    #[test]
    fn unused_import_guard() {
        // PbftMsg/SeqMsg are re-exported through ConsMsg construction.
        let _ = ConsMsg::Pbft(PbftMsg::Forward {
            payload: Payload::from([]),
        });
        let _ = ConsMsg::Seq(SeqMsg::Forward {
            payload: Payload::from([]),
        });
    }
}
