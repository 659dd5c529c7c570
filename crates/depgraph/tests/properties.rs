//! Property-based tests for the dependency-graph invariants listed in
//! DESIGN.md §6.

use proptest::prelude::*;

use parblock_depgraph::{
    DependencyGraph, DependencyMode, ExecutionLayers, ReadyTracker, StreamingBuilder,
};
use parblock_types::wire::{Reader, Wire};
use parblock_types::{AppId, Block, BlockNumber, ClientId, Hash32, Key, RwSet, SeqNo, Transaction};

/// Strategy: a block of up to `max_txns` transactions over a small key
/// space (small keys force conflicts) across up to 3 applications.
fn arb_block(max_txns: usize, key_space: u64) -> impl Strategy<Value = Block> {
    let tx = (
        0u16..3,
        proptest::collection::btree_set(0..key_space, 0..4),
        proptest::collection::btree_set(0..key_space, 0..4),
    );
    proptest::collection::vec(tx, 0..=max_txns).prop_map(|specs| {
        let txs = specs
            .into_iter()
            .enumerate()
            .map(|(i, (app, reads, writes))| {
                let rw = RwSet::new(
                    reads.into_iter().map(Key),
                    writes.into_iter().map(Key),
                );
                Transaction::new(AppId(app), ClientId(1), i as u64, rw, vec![])
            })
            .collect();
        Block::new(BlockNumber(1), Hash32::ZERO, txs)
    })
}

/// Feeds a block through a [`StreamingBuilder`] the way the block
/// cutter does, returning the emitted graph.
fn stream_build(block: &Block) -> DependencyGraph {
    let mut builder = StreamingBuilder::new(DependencyMode::Reduced);
    for tx in block.transactions() {
        builder.observe(tx);
    }
    builder.finish()
}

/// Transitive closure as a boolean matrix (positions are topologically
/// ordered, so one pass over the edges in target order suffices).
fn closure(graph: &DependencyGraph) -> Vec<Vec<bool>> {
    let n = graph.len();
    let mut reach = vec![vec![false; n]; n];
    let mut edges: Vec<(SeqNo, SeqNo)> = graph.edges().collect();
    edges.sort_by_key(|&(i, j)| (j, i));
    for (p, j) in edges {
        let (p, j) = (p.0 as usize, j.0 as usize);
        reach[p][j] = true;
        for row in &mut reach {
            if row[p] {
                row[j] = true;
            }
        }
    }
    reach
}

/// Whatever `bytes` hold, decoding returns without panicking, and what
/// decodes is a graph of forward, in-range edges whose encoding is the
/// bytes it was decoded from.
fn decodes_canonically(bytes: &[u8]) -> TestCaseResult {
    let mut reader = Reader::new(bytes);
    if let Some(graph) = DependencyGraph::decode_wire(&mut reader) {
        for (i, j) in graph.edges() {
            prop_assert!(i < j && (j.0 as usize) < graph.len(), "edge ({i:?},{j:?})");
        }
        let used = bytes.len() - reader.remaining();
        prop_assert_eq!(graph.wire_bytes(), bytes[..used].to_vec());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every edge goes from an earlier to a later timestamp (DAG by
    /// construction), in the reduced build and the pairwise reference.
    #[test]
    fn edges_point_forward(block in arb_block(24, 8)) {
        for g in [DependencyGraph::build(&block), DependencyGraph::pairwise(&block)] {
            for (i, j) in g.edges() {
                prop_assert!(i < j, "edge ({i:?},{j:?}) not forward");
            }
        }
    }

    /// The reduced graph has the same transitive closure as the full
    /// graph: executors get identical ordering constraints.
    #[test]
    fn reduced_closure_equals_full_closure(block in arb_block(16, 5)) {
        let full = DependencyGraph::pairwise(&block);
        let reduced = DependencyGraph::build(&block);
        prop_assert_eq!(closure(&full), closure(&reduced));
    }

    /// Reduced is a subgraph of full: it never invents an ordering
    /// constraint.
    #[test]
    fn subgraph_relations(block in arb_block(20, 6)) {
        let full = DependencyGraph::pairwise(&block);
        let reduced = DependencyGraph::build(&block);
        for (i, j) in reduced.edges() {
            prop_assert!(full.has_edge(i, j), "reduced edge ({i:?},{j:?}) not in full");
        }
    }

    /// The full graph contains an edge for a pair iff their rw-sets
    /// conflict — the literal §III-A definition.
    #[test]
    fn full_matches_pairwise_definition(block in arb_block(16, 5)) {
        let g = DependencyGraph::pairwise(&block);
        let txs = block.transactions();
        for j in 0..txs.len() {
            for i in 0..j {
                let conflict = txs[i].rw_set().conflicts_with(txs[j].rw_set());
                prop_assert_eq!(
                    g.has_edge(SeqNo(i as u32), SeqNo(j as u32)),
                    conflict,
                    "pair ({}, {})", i, j
                );
            }
        }
    }

    /// The ReadyTracker's roots plus what each completion returns yield
    /// every transaction exactly once, and never a transaction before
    /// all its predecessors.
    #[test]
    fn tracker_respects_partial_order(block in arb_block(24, 6)) {
        let g = DependencyGraph::build(&block);
        let mut tracker = ReadyTracker::new(&g);
        let mut done: Vec<bool> = vec![false; g.len()];
        let mut order = Vec::new();
        let mut ready = tracker.take_ready();
        while let Some(x) = ready.pop() {
            prop_assert!(!done[x.0 as usize], "{x:?} ready twice");
            for (p, _) in g.edges().filter(|&(_, to)| to == x) {
                prop_assert!(done[p.0 as usize], "{x:?} ready before pred {p:?}");
            }
            done[x.0 as usize] = true;
            order.push(x);
            ready.extend(tracker.complete(x));
        }
        prop_assert!(tracker.is_done());
        prop_assert_eq!(order.len(), g.len());
    }

    /// Layer decomposition: layers partition the block; every transaction
    /// sits strictly below its successors; critical path matches the
    /// number of layers.
    #[test]
    fn layers_are_a_valid_schedule(block in arb_block(24, 6)) {
        let g = DependencyGraph::pairwise(&block);
        let layers = ExecutionLayers::compute(&g);
        let mut level = vec![usize::MAX; g.len()];
        let mut count = 0;
        for (k, layer) in layers.layers().iter().enumerate() {
            for &x in layer {
                level[x.0 as usize] = k;
                count += 1;
            }
        }
        prop_assert_eq!(count, g.len());
        for (i, j) in g.edges() {
            prop_assert!(level[i.0 as usize] < level[j.0 as usize]);
        }
    }

    /// Incremental ≡ whole-block build, transitive closure: against the
    /// whole-block build and against the pairwise reference, where the
    /// streaming builder emits the closure-equivalent reduced set instead
    /// of all Ω(n²) pairwise edges — executors see the same partial order.
    #[test]
    fn streaming_closure_equals_batch_closure(block in arb_block(16, 5)) {
        let streamed = stream_build(&block);
        for batch in [DependencyGraph::build(&block), DependencyGraph::pairwise(&block)] {
            prop_assert_eq!(closure(&streamed), closure(&batch));
        }
    }

    /// The streamed graph is a subgraph of the pairwise reference: it
    /// never invents an ordering constraint.
    #[test]
    fn streaming_full_is_subgraph_of_batch_full(block in arb_block(20, 6)) {
        let streamed = stream_build(&block);
        let full = DependencyGraph::pairwise(&block);
        for (i, j) in streamed.edges() {
            prop_assert!(full.has_edge(i, j), "streamed edge ({i:?},{j:?}) not in full");
        }
    }

    /// Reusing one builder across consecutive blocks is equivalent to a
    /// fresh builder per block: `finish` fully resets the conflict index.
    #[test]
    fn streaming_builder_reuse_is_reset(first in arb_block(12, 4), second in arb_block(12, 4)) {
        let mut builder = StreamingBuilder::new(DependencyMode::Reduced);
        for tx in first.transactions() {
            builder.observe(tx);
        }
        let _ = builder.finish();
        for tx in second.transactions() {
            builder.observe(tx);
        }
        let reused = builder.finish();
        prop_assert_eq!(reused, stream_build(&second));
    }

    /// Conflict stats fraction is within [0, 1] and zero edges implies
    /// zero conflicting fraction.
    #[test]
    fn stats_sanity(block in arb_block(24, 8)) {
        use parblock_depgraph::ConflictStats;
        let g = DependencyGraph::pairwise(&block);
        let s = ConflictStats::compute(&g, &block);
        prop_assert!((0.0..=1.0).contains(&s.conflicting_fraction));
        prop_assert!((0.0..=1.0).contains(&s.cross_app_edge_fraction));
        if s.edges == 0 {
            prop_assert_eq!(s.conflicting_fraction, 0.0);
        }
        prop_assert!(s.critical_path <= s.txns);
    }

    /// ROADMAP 11(b) for the graph's decoder: truncations and byte
    /// mutations of a valid encoding, small hand-shaped tables and
    /// arbitrary bytes never panic it, and whatever decodes is canonical.
    #[test]
    fn decode_wire_rejects_or_reencodes_any_bytes(
        block in arb_block(24, 6),
        cut in any::<usize>(),
        mutations in proptest::collection::vec((any::<usize>(), any::<u8>()), 1..4),
        shaped in (0u64..6, proptest::collection::vec(0u32..8, 0..16)),
        noise in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let bytes = DependencyGraph::build(&block).wire_bytes();
        decodes_canonically(&bytes)?;
        decodes_canonically(&bytes[..cut % (bytes.len() + 1)])?;
        let mut mutated = bytes.clone();
        for (at, byte) in mutations {
            let at = at % mutated.len();
            mutated[at] = byte;
        }
        decodes_canonically(&mutated)?;
        let (len, words) = shaped;
        let mut table = len.wire_bytes();
        for word in words {
            word.encode(&mut table);
        }
        decodes_canonically(&table)?;
        decodes_canonically(&noise)?;
    }
}
