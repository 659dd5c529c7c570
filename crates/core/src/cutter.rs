//! The block cutter (§IV-B).
//!
//! "Blocks have a pre-defined maximal size, maximal number of
//! transactions, and maximal time the block production takes since the
//! first transaction of a new block was received. When any of these three
//! conditions is satisfied, a block is full."
//!
//! Count and byte conditions are evaluated on the delivered transaction
//! stream and are therefore deterministic across orderers; the time
//! condition is driven by the ordered
//! [`Payload::CutMarker`](crate::batch::Payload::CutMarker), which is
//! equally deterministic. A marker is tagged with the id of the first
//! pending transaction the leader saw, so a marker that raced a
//! count/byte cut (and would otherwise prematurely cut a tiny fresh
//! block) is recognised as stale and ignored.
//!
//! For OXII the cutter also *co-maintains the dependency graph*: each
//! pushed transaction is fed to a [`StreamingBuilder`], so a cut
//! hands the orderer block transactions and finished graph together and
//! the ordering critical path never pays an O(n²) rebuild (DESIGN.md §3).

use std::time::Instant;

use parblock_depgraph::{DependencyGraph, DependencyMode, StreamingBuilder};
use parblock_types::{BlockCutConfig, Transaction, TxId};

/// One cut block: the transactions plus, for OXII cutters, the finished
/// dependency graph over them (positions = vector order).
#[derive(Debug)]
pub struct CutBlock {
    /// The block's transactions, in delivery order.
    pub txs: Vec<Transaction>,
    /// `G(B)` — `Some` iff the cutter was built [`BlockCutter::with_graph`].
    pub graph: Option<DependencyGraph>,
}

/// Accumulates ordered transactions and cuts blocks.
#[derive(Debug)]
pub struct BlockCutter {
    cfg: BlockCutConfig,
    pending: Vec<Transaction>,
    pending_bytes: usize,
    /// When the first pending transaction arrived (leader's local clock;
    /// used only to decide when to *order* a cut marker).
    first_arrival: Option<Instant>,
    graph: Option<StreamingBuilder>,
}

impl BlockCutter {
    /// Creates a cutter without dependency-graph generation (OX / XOV).
    #[must_use]
    pub fn new(cfg: BlockCutConfig) -> Self {
        Self::build(cfg, None)
    }

    /// Creates an OXII cutter that attaches a dependency graph to every
    /// cut.
    #[must_use]
    pub fn with_graph(cfg: BlockCutConfig) -> Self {
        Self::build(cfg, Some(StreamingBuilder::new(DependencyMode::Reduced)))
    }

    fn build(cfg: BlockCutConfig, graph: Option<StreamingBuilder>) -> Self {
        BlockCutter {
            cfg,
            pending: Vec::new(),
            pending_bytes: 0,
            first_arrival: None,
            graph,
        }
    }

    /// Id of the oldest pending transaction — the tag a leader puts on a
    /// cut marker so stale markers are recognised.
    #[must_use]
    pub fn first_pending(&self) -> Option<TxId> {
        self.pending.first().map(Transaction::id)
    }

    /// The transactions waiting for the next cut, oldest first.
    #[must_use]
    pub fn pending(&self) -> &[Transaction] {
        &self.pending
    }

    /// Feeds one ordered transaction; returns a full block
    /// when a deterministic condition (count or bytes) is met.
    ///
    /// `now` is the caller's clock reading (wall or simulated); it only
    /// marks when the oldest pending transaction arrived, which drives
    /// [`BlockCutter::wants_time_cut`].
    pub fn push(&mut self, tx: Transaction, now: Instant) -> Option<CutBlock> {
        if self.pending.is_empty() {
            self.first_arrival = Some(now);
        }
        if let Some(builder) = &mut self.graph {
            builder.observe(&tx);
        }
        self.pending_bytes += tx.encoded_len();
        self.pending.push(tx);
        if self.pending.len() >= self.cfg.max_txns || self.pending_bytes >= self.cfg.max_bytes {
            return Some(self.cut());
        }
        None
    }

    /// Handles an ordered cut marker tagged with `first`: cuts the
    /// pending block iff its oldest transaction is still the one the
    /// leader saw when it ordered the marker. Returns `None` for stale
    /// markers — nothing pending, or an intervening count/byte cut
    /// already flushed the transactions the marker was meant for.
    pub fn cut_marker(&mut self, first: TxId) -> Option<CutBlock> {
        if self.first_pending() == Some(first) {
            Some(self.cut())
        } else {
            None
        }
    }

    /// Whether the *leader* should order a cut marker as of `now`: the
    /// oldest pending transaction has waited longer than `max_wait`.
    #[must_use]
    pub fn wants_time_cut(&self, now: Instant) -> bool {
        self.first_arrival.is_some_and(|t| {
            now.saturating_duration_since(t) >= self.cfg.max_wait && !self.pending.is_empty()
        })
    }

    /// The instant at which [`BlockCutter::wants_time_cut`] will turn
    /// true (`None` when nothing is pending). The deterministic scheduler
    /// advances virtual time to this deadline when the cluster is
    /// otherwise idle, so partial blocks are still cut under simulation.
    #[must_use]
    pub fn time_cut_deadline(&self) -> Option<Instant> {
        self.first_arrival.map(|t| t + self.cfg.max_wait)
    }

    fn cut(&mut self) -> CutBlock {
        self.pending_bytes = 0;
        self.first_arrival = None;
        CutBlock {
            // Exact size: a peer keeps this vector for the life of the
            // chain, and `pending` keeps its buffer for the next block.
            txs: self.pending.drain(..).collect(),
            graph: self.graph.as_mut().map(StreamingBuilder::finish),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::time::{Duration, Instant};

    use parblock_types::{AppId, ClientId, Key, RwSet, SeqNo};

    use super::*;

    fn tx(ts: u64, payload_len: usize) -> Transaction {
        Transaction::new(
            AppId(0),
            ClientId(1),
            ts,
            RwSet::default(),
            vec![0; payload_len],
        )
    }

    fn writer(ts: u64, key: u64) -> Transaction {
        Transaction::new(
            AppId(0),
            ClientId(1),
            ts,
            RwSet::write_only([Key(key)]),
            vec![],
        )
    }

    fn cfg(max_txns: usize, max_bytes: usize, max_wait_ms: u64) -> BlockCutConfig {
        BlockCutConfig {
            max_txns,
            max_bytes,
            max_wait: Duration::from_millis(max_wait_ms),
        }
    }

    #[test]
    fn cuts_on_transaction_count() {
        let mut cutter = BlockCutter::new(cfg(3, usize::MAX, 1000));
        assert!(cutter.push(tx(1, 0), Instant::now()).is_none());
        assert!(cutter.push(tx(2, 0), Instant::now()).is_none());
        let block = cutter.push(tx(3, 0), Instant::now()).expect("cut at 3");
        assert_eq!(block.txs.len(), 3);
        assert!(block.graph.is_none(), "no graph without a mode");
        assert_eq!(cutter.first_pending(), None, "nothing left pending");
    }

    #[test]
    fn cuts_on_byte_size() {
        let mut cutter = BlockCutter::new(cfg(usize::MAX, 300, 1000));
        assert!(cutter.push(tx(1, 100), Instant::now()).is_none());
        let block = cutter.push(tx(2, 200), Instant::now()).expect("bytes exceeded");
        assert_eq!(block.txs.len(), 2);
    }

    #[test]
    fn cut_marker_flushes_pending() {
        let mut cutter = BlockCutter::new(cfg(100, usize::MAX, 1000));
        cutter.push(tx(1, 0), Instant::now());
        cutter.push(tx(2, 0), Instant::now());
        let first = cutter.first_pending().expect("pending");
        let block = cutter.cut_marker(first).expect("pending flushed");
        assert_eq!(block.txs.len(), 2);
        assert!(
            cutter.cut_marker(first).is_none(),
            "re-delivered marker ignored on empty cutter"
        );
    }

    #[test]
    fn stale_marker_after_intervening_count_cut_is_ignored() {
        // Regression: a marker ordered for {T1, T2} arrives *after* a
        // count cut already flushed them; T3 is freshly pending. The old
        // untagged marker would have cut a premature one-transaction
        // block here.
        let mut cutter = BlockCutter::new(cfg(2, usize::MAX, 1000));
        cutter.push(tx(1, 0), Instant::now());
        let marker_tag = cutter.first_pending().expect("T1 pending");
        let cut = cutter.push(tx(2, 0), Instant::now()).expect("count cut at 2");
        assert_eq!(cut.txs.len(), 2);

        cutter.push(tx(3, 0), Instant::now());
        assert!(
            cutter.cut_marker(marker_tag).is_none(),
            "stale marker must not cut the fresh block"
        );
        assert_eq!(
            cutter.first_pending().map(|id| id.client_ts),
            Some(3),
            "T3 still pending"
        );

        // A marker tagged for the *current* pending set does cut.
        let fresh_tag = cutter.first_pending().expect("T3 pending");
        let block = cutter.cut_marker(fresh_tag).expect("fresh marker cuts");
        assert_eq!(block.txs.len(), 1);
    }

    #[test]
    fn time_cut_requested_after_max_wait() {
        let mut cutter = BlockCutter::new(cfg(100, usize::MAX, 5));
        let t0 = Instant::now();
        assert!(!cutter.wants_time_cut(t0));
        assert_eq!(cutter.time_cut_deadline(), None);
        cutter.push(tx(1, 0), t0);
        assert!(!cutter.wants_time_cut(t0));
        assert_eq!(
            cutter.time_cut_deadline(),
            Some(t0 + Duration::from_millis(5))
        );
        // No sleeping: the clock is injected, so "later" is a value.
        let later = t0 + Duration::from_millis(7);
        assert!(cutter.wants_time_cut(later));
        let first = cutter.first_pending().expect("pending");
        let _ = cutter.cut_marker(first);
        assert!(!cutter.wants_time_cut(later));
        assert_eq!(cutter.time_cut_deadline(), None);
    }

    /// A peer keeps each block's vector for the life of the chain, so
    /// count cuts and marker cuts alike hand it over without slack.
    #[test]
    fn cut_blocks_hold_exact_size_vectors() {
        let mut cutter = BlockCutter::new(cfg(5, usize::MAX, 1000));
        let counted = (1..=5)
            .find_map(|ts| cutter.push(tx(ts, 0), Instant::now()))
            .expect("count cut at 5");
        assert_eq!(counted.txs.capacity(), 5);
        cutter.push(tx(6, 0), Instant::now());
        cutter.push(tx(7, 0), Instant::now());
        cutter.push(tx(8, 0), Instant::now());
        let first = cutter.first_pending().expect("pending");
        let marked = cutter.cut_marker(first).expect("marker cuts");
        assert_eq!(marked.txs.capacity(), 3);
    }

    #[test]
    fn consecutive_blocks_preserve_order() {
        let mut cutter = BlockCutter::new(cfg(2, usize::MAX, 1000));
        // First block: arrival order 2, 1 (client timestamps do not
        // reorder the stream).
        assert!(cutter.push(tx(2, 0), Instant::now()).is_none());
        let b1 = cutter.push(tx(1, 0), Instant::now()).expect("first block");
        assert_eq!(b1.txs[0].id().client_ts, 2);
        assert_eq!(b1.txs[1].id().client_ts, 1);
        // Second block: arrival order 4, 3.
        assert!(cutter.push(tx(4, 0), Instant::now()).is_none());
        let b2 = cutter.push(tx(3, 0), Instant::now()).expect("second block");
        assert_eq!(b2.txs[0].id().client_ts, 4);
        assert_eq!(b2.txs[1].id().client_ts, 3);
    }

    #[test]
    fn streaming_cutter_attaches_graphs_and_resets_between_blocks() {
        let mut cutter = BlockCutter::with_graph(cfg(2, usize::MAX, 1000));
        // Block 1: two writers of key 7 — one edge.
        assert!(cutter.push(writer(1, 7), Instant::now()).is_none());
        let b1 = cutter.push(writer(2, 7), Instant::now()).expect("first block");
        let g1 = b1.graph.expect("graph attached");
        assert_eq!(g1.len(), 2);
        assert!(g1.has_edge(SeqNo(0), SeqNo(1)));

        // Block 2 touches the same key: the streaming index must have
        // been reset, so there is no edge to block 1's writers.
        assert!(cutter.push(writer(3, 7), Instant::now()).is_none());
        let b2 = cutter.push(writer(4, 9), Instant::now()).expect("second block");
        let g2 = b2.graph.expect("graph attached");
        assert_eq!(g2.len(), 2);
        assert_eq!(g2.edge_count(), 0, "index leaked across blocks");
    }

    #[test]
    fn marker_cut_emits_graph_over_partial_block() {
        let mut cutter = BlockCutter::with_graph(cfg(100, usize::MAX, 1000));
        cutter.push(writer(1, 5), Instant::now());
        cutter.push(writer(2, 5), Instant::now());
        let first = cutter.first_pending().expect("pending");
        let block = cutter.cut_marker(first).expect("marker cuts");
        let graph = block.graph.expect("graph attached");
        assert_eq!(graph.len(), 2);
        assert_eq!(graph.edge_count(), 1);
    }
}
