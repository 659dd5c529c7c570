//! A deterministic single-threaded cluster harness for driving sans-io
//! protocol instances in tests and simulations.
//!
//! The harness owns a message queue and the timers; nothing runs
//! concurrently, so every schedule is reproducible (optionally shuffled
//! with a seeded RNG). It hosts each replica the way an in-memory orderer
//! does: the replica's delivered log is the host's state, so its floor
//! ([`OrderingProtocol::compact`]) is its next delivery, and a catch-up
//! hands the leader's delivered log to the replica that asked.

use std::collections::BTreeSet;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use parblock_types::NodeId;

use crate::action::{Action, TimerId};
use crate::pbft::Pbft;
use crate::sequencer::QuorumSequencer;
use crate::traits::{OrderingProtocol, Payload, ProtocolConfig};

/// A single-threaded cluster of protocol replicas.
pub struct SimCluster<P: OrderingProtocol> {
    nodes: Vec<P>,
    queue: Vec<(NodeId, NodeId, P::Msg)>,
    delivered: Vec<Vec<(u64, Payload)>>,
    crashed: BTreeSet<usize>,
    timers: BTreeSet<(usize, TimerId)>,
    shuffle: bool,
    rng: StdRng,
    steps: u64,
}

impl SimCluster<Pbft> {
    /// A PBFT cluster of `n` replicas (`NodeId(0..n)`).
    #[must_use]
    pub fn pbft(n: usize, timeout: Duration) -> Self {
        Self::pbft_with_seed(n, timeout, 0)
    }

    /// A PBFT cluster with a specific schedule seed.
    #[must_use]
    pub fn pbft_with_seed(n: usize, timeout: Duration, seed: u64) -> Self {
        let peers: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
        let nodes = peers
            .iter()
            .map(|&id| Pbft::new(ProtocolConfig::new(id, peers.clone()), timeout))
            .collect();
        Self::with_nodes(nodes, seed)
    }
}

impl SimCluster<QuorumSequencer> {
    /// A sequencer cluster of `n` replicas (`NodeId(0..n)`).
    #[must_use]
    pub fn sequencer(n: usize, timeout: Duration) -> Self {
        let peers: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
        let nodes = peers
            .iter()
            .map(|&id| QuorumSequencer::new(ProtocolConfig::new(id, peers.clone()), timeout))
            .collect();
        Self::with_nodes(nodes, 0)
    }
}

impl<P: OrderingProtocol> SimCluster<P>
where
    P::Msg: Clone,
{
    /// Wraps pre-built replicas.
    #[must_use]
    pub fn with_nodes(nodes: Vec<P>, seed: u64) -> Self {
        let n = nodes.len();
        SimCluster {
            nodes,
            queue: Vec::new(),
            delivered: vec![Vec::new(); n],
            crashed: BTreeSet::new(),
            timers: BTreeSet::new(),
            shuffle: false,
            rng: StdRng::seed_from_u64(seed),
            steps: 0,
        }
    }

    fn index_of(&self, id: NodeId) -> usize {
        self.nodes
            .iter()
            .position(|n| n.id() == id)
            .expect("unknown node id")
    }

    /// Enables random message-delivery order.
    pub fn shuffle_delivery(&mut self, on: bool) {
        self.shuffle = on;
    }

    /// Marks a replica as crashed: it receives nothing, sends nothing,
    /// and its timers never fire.
    pub fn crash(&mut self, node: usize) {
        self.crashed.insert(node);
    }

    /// Reconnects a crashed replica (its protocol state is whatever it
    /// was at crash time — the harness models a partition/heal rather
    /// than a memory-wiping restart).
    pub fn reconnect(&mut self, node: usize) {
        self.crashed.remove(&node);
    }

    /// Restarts replica `node` as `fresh`, a new instance with the same
    /// id: its delivered log and timers are gone, as after a crash of an
    /// in-memory host, and it is connected again and asks for what it
    /// missed ([`OrderingProtocol::rejoin`]).
    pub fn restart(&mut self, node: usize, fresh: P) {
        assert_eq!(fresh.id(), self.nodes[node].id(), "a restart keeps the id");
        self.nodes[node] = fresh;
        self.delivered[node].clear();
        self.timers.retain(|&(n, _)| n != node);
        self.crashed.remove(&node);
        let actions = self.nodes[node].rejoin();
        self.process(node, actions);
    }

    /// Submits a payload at replica `node`.
    pub fn submit(&mut self, node: usize, payload: Vec<u8>) {
        self.submit_shared(node, payload.into());
    }

    /// Submits an already frozen payload at replica `node`, the way a
    /// host does: replicas hold this allocation, not copies of it.
    pub fn submit_shared(&mut self, node: usize, payload: Payload) {
        if self.crashed.contains(&node) {
            return;
        }
        let actions = self.nodes[node].submit(payload);
        self.process(node, actions);
    }

    fn process(&mut self, node: usize, actions: Vec<Action<P::Msg>>) {
        let from = self.nodes[node].id();
        for action in actions {
            match action {
                Action::Send { to, msg } => self.queue.push((from, to, msg)),
                Action::Broadcast { msg } => {
                    let peers: Vec<NodeId> = self
                        .nodes
                        .iter()
                        .map(OrderingProtocol::id)
                        .filter(|&p| p != from)
                        .collect();
                    for to in peers {
                        self.queue.push((from, to, msg.clone()));
                    }
                }
                Action::Deliver { seq, payload } => {
                    self.delivered[node].push((seq, payload));
                }
                Action::SetTimer { id, .. } => {
                    self.timers.insert((node, id));
                }
                Action::CancelTimer { id } => {
                    self.timers.remove(&(node, id));
                }
                Action::CatchUp { to, epoch, .. } => {
                    let to = self.index_of(to);
                    if self.crashed.contains(&to) {
                        continue;
                    }
                    let log = self.delivered[node].clone();
                    let next = log.len() as u64;
                    if let Some(actions) = self.nodes[to].catch_up(from, epoch, next) {
                        self.delivered[to] = log;
                        self.process(to, actions);
                    }
                }
            }
        }
        let next = self.delivered[node].len() as u64;
        self.nodes[node].compact(next);
    }

    /// Delivers one queued message, if any. Returns `false` when idle.
    pub fn step(&mut self) -> bool {
        if self.queue.is_empty() {
            return false;
        }
        let idx = if self.shuffle {
            self.rng.gen_range(0..self.queue.len())
        } else {
            0
        };
        let (from, to, msg) = self.queue.remove(idx);
        self.steps += 1;
        let to_idx = self.index_of(to);
        let from_idx = self.index_of(from);
        if self.crashed.contains(&to_idx) || self.crashed.contains(&from_idx) {
            return true;
        }
        let actions = self.nodes[to_idx].on_message(from, msg);
        self.process(to_idx, actions);
        true
    }

    /// Delivers up to `n` messages.
    pub fn step_n(&mut self, n: usize) {
        for _ in 0..n {
            if !self.step() {
                return;
            }
        }
    }

    /// Runs until no messages remain.
    ///
    /// # Panics
    ///
    /// Panics after 1,000,000 steps (live-lock guard).
    pub fn run_to_quiescence(&mut self) {
        let mut budget = 1_000_000u64;
        while self.step() {
            budget -= 1;
            assert!(budget > 0, "cluster did not quiesce");
        }
    }

    /// Fires every armed timer on non-crashed replicas (each at most
    /// once; timers re-armed during processing fire on the next call).
    pub fn fire_timers(&mut self) {
        let armed: Vec<(usize, TimerId)> = self
            .timers
            .iter()
            .copied()
            .filter(|(n, _)| !self.crashed.contains(n))
            .collect();
        for (node, id) in armed {
            self.timers.remove(&(node, id));
            let actions = self.nodes[node].on_timer(id);
            self.process(node, actions);
        }
    }

    /// The delivered `(seq, payload)` log of replica `node`, copied out.
    #[must_use]
    pub fn delivered(&self, node: usize) -> Vec<(u64, Vec<u8>)> {
        self.delivered[node]
            .iter()
            .map(|(seq, payload)| (*seq, payload.to_vec()))
            .collect()
    }

    /// The delivered log of replica `node` as the replica handed it out.
    #[must_use]
    pub fn delivered_shared(&self, node: usize) -> &[(u64, Payload)] {
        &self.delivered[node]
    }

    /// Safety check: every pair of non-crashed replicas' logs agree on
    /// their common prefix.
    #[must_use]
    pub fn all_agree(&self) -> bool {
        let live: Vec<&Vec<(u64, Payload)>> = self
            .delivered
            .iter()
            .enumerate()
            .filter(|(i, _)| !self.crashed.contains(i))
            .map(|(_, d)| d)
            .collect();
        for a in &live {
            for b in &live {
                let common = a.len().min(b.len());
                if a[..common] != b[..common] {
                    return false;
                }
            }
        }
        true
    }

    /// The current view/epoch of replica `node`.
    #[must_use]
    pub fn view_of(&self, node: usize) -> u64 {
        self.nodes[node].current_view()
    }

    /// Direct access to a replica (protocol-specific assertions).
    #[must_use]
    pub fn node(&self, node: usize) -> &P {
        &self.nodes[node]
    }

    /// Number of messages processed so far.
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Number of messages currently queued.
    #[must_use]
    pub fn queued(&self) -> usize {
        self.queue.len()
    }
}
