//! The contention-controlled accounting workload generator.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use parblock_contracts::AccountingOp;
use parblock_types::{AppId, ClientId, Key, Transaction, Value};

/// Key-space layout: each application owns a disjoint range; a shared
/// range hosts the hot keys used for cross-application contention.
const APP_SPACE: u64 = 1_000_000_000;
const SHARED_BASE: u64 = 0;
const HOT_POOL: u64 = 16;
const INDEP_BASE: u64 = 1_000;
/// Independent account pairs rotate over this many windows before any
/// account is reused, so a "no-contention" workload has no conflicts
/// *across* in-flight blocks either (XOV endorsements stay fresh).
const WINDOW_ROTATION: u64 = 16;

/// A skewed-popularity ("hotspot") workload extension: instead of the
/// paper's exact contention dial, a fraction of transactions touch a
/// small Zipf-distributed hot key set — the access pattern real
/// deployments see ("several transactions simultaneously perform
/// conflicting operations on a few popular records", §I).
#[derive(Debug, Clone, PartialEq)]
pub struct HotspotConfig {
    /// Number of hot records.
    pub keys: u64,
    /// Zipf exponent (0 = uniform over the hot set; 1 ≈ classic skew).
    pub exponent: f64,
    /// Fraction of transactions that hit the hot set.
    pub fraction: f64,
}

impl Default for HotspotConfig {
    fn default() -> Self {
        HotspotConfig {
            keys: 32,
            exponent: 1.0,
            fraction: 0.2,
        }
    }
}

/// Configuration of the workload generator.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadConfig {
    /// Applications issuing transactions (the paper uses three).
    pub apps: Vec<AppId>,
    /// Degree of contention: the fraction of transactions per block that
    /// conflict (0.0, 0.2, 0.8, 1.0 in the paper).
    pub contention: f64,
    /// Whether conflicting transactions span applications (the `OXII*`
    /// dashed-line variant) or stay within one application.
    pub cross_app: bool,
    /// The conflict-shaping window: should equal the block size so each
    /// block carries the requested contention.
    pub block_size: usize,
    /// Number of distinct clients issuing requests.
    pub clients: u32,
    /// RNG seed (transaction order shuffling).
    pub seed: u64,
    /// Opening balance of the independent account pool.
    pub initial_balance: i64,
    /// When set, replaces the exact contention dial with Zipf-skewed
    /// hot-key accesses (the `contention` field is then ignored).
    pub hotspot: Option<HotspotConfig>,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            apps: vec![AppId(0), AppId(1), AppId(2)],
            contention: 0.0,
            cross_app: false,
            block_size: 200,
            clients: 16,
            seed: 42,
            initial_balance: 1_000_000_000,
            hotspot: None,
        }
    }
}

/// Streaming generator of accounting transactions with exact per-window
/// contention (see the crate docs).
#[derive(Debug)]
pub struct WorkloadGen {
    cfg: WorkloadConfig,
    rng: StdRng,
    window_idx: u64,
    client_ts: Vec<u64>,
    next_client: u32,
}

impl WorkloadGen {
    /// Creates a generator.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (no apps, zero clients,
    /// zero block size, or contention outside `[0, 1]`).
    #[must_use]
    pub fn new(cfg: WorkloadConfig) -> Self {
        assert!(!cfg.apps.is_empty(), "need at least one application");
        assert!(cfg.clients > 0, "need at least one client");
        assert!(cfg.block_size > 0, "block size must be positive");
        assert!(
            (0.0..=1.0).contains(&cfg.contention),
            "contention must be in [0, 1]"
        );
        let rng = StdRng::seed_from_u64(cfg.seed);
        let clients = cfg.clients as usize;
        WorkloadGen {
            cfg,
            rng,
            window_idx: 0,
            client_ts: vec![0; clients],
            next_client: 0,
        }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &WorkloadConfig {
        &self.cfg
    }

    fn app_base(app: AppId) -> u64 {
        (u64::from(app.0) + 1) * APP_SPACE
    }

    /// The hot key targeted by window `w` (shared space for cross-app
    /// contention, the chain app's space otherwise).
    fn hot_key(&self, w: u64, chain_app: AppId) -> Key {
        let base = if self.cfg.cross_app {
            SHARED_BASE
        } else {
            Self::app_base(chain_app)
        };
        Key(base + w % HOT_POOL)
    }

    /// Pool slots `[0, 2·block_size·WINDOW_ROTATION)` serve independent
    /// transactions (each window uses its own stripe); the next
    /// `block_size` slots serve chain destinations, so the groups never
    /// share accounts within a window and independent accounts are not
    /// reused for `WINDOW_ROTATION` consecutive windows.
    fn pool_size(&self) -> u64 {
        let bs = self.cfg.block_size as u64;
        2 * bs * WINDOW_ROTATION + bs + 2
    }

    fn indep_key(&self, app: AppId, window: u64, slot: u64) -> Key {
        let bs = self.cfg.block_size as u64;
        let stripe = (window % WINDOW_ROTATION) * 2 * bs;
        Key(Self::app_base(app) + INDEP_BASE + (stripe + slot) % (2 * bs * WINDOW_ROTATION))
    }

    fn chain_dest_key(&self, app: AppId, slot: u64) -> Key {
        let bs = self.cfg.block_size as u64;
        Key(Self::app_base(app) + INDEP_BASE + 2 * bs * WINDOW_ROTATION + slot % (bs + 2))
    }

    /// The key of hotspot rank `rank` (shared space: all apps may touch
    /// it, like a popular record in a shared datastore).
    fn hotspot_key(rank: u64) -> Key {
        Key(SHARED_BASE + 100 + rank)
    }

    /// The genesis state covering every account any window can touch.
    #[must_use]
    pub fn genesis(&self) -> Vec<(Key, Value)> {
        let mut out = Vec::new();
        // Hot accounts: shared space and every app space, huge balance so
        // chains never drain them.
        for h in 0..HOT_POOL {
            out.push((Key(SHARED_BASE + h), Value::Int(i64::MAX / 2)));
        }
        if let Some(hotspot) = &self.cfg.hotspot {
            for rank in 0..hotspot.keys {
                out.push((Self::hotspot_key(rank), Value::Int(i64::MAX / 2)));
            }
        }
        for &app in &self.cfg.apps {
            for h in 0..HOT_POOL {
                out.push((Key(Self::app_base(app) + h), Value::Int(i64::MAX / 2)));
            }
            for slot in 0..self.pool_size() {
                out.push((
                    Key(Self::app_base(app) + INDEP_BASE + slot),
                    Value::Int(self.cfg.initial_balance),
                ));
            }
        }
        out
    }

    fn next_client_tx(&mut self, app: AppId, op: &AccountingOp) -> Transaction {
        let client = ClientId(self.next_client);
        self.next_client = (self.next_client + 1) % self.cfg.clients;
        let ts = &mut self.client_ts[client.0 as usize];
        *ts += 1;
        Transaction::new(app, client, *ts, op.rw_set(), op.encode())
    }

    /// Generates one window of `block_size` transactions with the exact
    /// configured contention (or Zipf-skewed hot accesses when the
    /// hotspot extension is enabled).
    pub fn window(&mut self) -> Vec<Transaction> {
        if self.cfg.hotspot.is_some() {
            return self.hotspot_window();
        }
        let w = self.window_idx;
        self.window_idx += 1;
        let n = self.cfg.block_size;
        let mut n_conflict = (self.cfg.contention * n as f64).round() as usize;
        // One transaction cannot conflict alone.
        if self.cfg.contention > 0.0 {
            n_conflict = n_conflict.clamp(2, n);
        }

        let apps = self.cfg.apps.clone();
        let chain_app = apps[(w % apps.len() as u64) as usize];
        let mut txs = Vec::with_capacity(n);

        // The conflict chain: every member reads+writes the window's hot
        // key, so members pairwise conflict (WW on the hot key).
        for c in 0..n_conflict {
            let app = if self.cfg.cross_app {
                apps[c % apps.len()]
            } else {
                chain_app
            };
            let hot = self.hot_key(w, chain_app);
            let dest = self.chain_dest_key(app, c as u64);
            let op = AccountingOp::Transfer {
                from: hot,
                to: dest,
                amount: 1,
            };
            txs.push(self.next_client_tx(app, &op));
        }

        // Independent transactions: unique account pairs per window slot.
        for i in 0..n - n_conflict {
            let app = apps[i % apps.len()];
            let from = self.indep_key(app, w, (2 * i) as u64);
            let to = self.indep_key(app, w, (2 * i + 1) as u64);
            let op = AccountingOp::Transfer { from, to, amount: 1 };
            txs.push(self.next_client_tx(app, &op));
        }

        // Shuffle so conflicting transactions are spread through the
        // block, as they would arrive from independent clients.
        txs.shuffle(&mut self.rng);
        txs
    }

    /// One window under the hotspot extension: each transaction is a
    /// transfer whose source is, with probability `fraction`, a
    /// Zipf-sampled hot record, and otherwise a fresh independent pair.
    fn hotspot_window(&mut self) -> Vec<Transaction> {
        use rand::Rng;

        let hotspot = self.cfg.hotspot.clone().expect("checked by window()");
        let zipf = crate::zipf::Zipf::new(hotspot.keys.max(1) as usize, hotspot.exponent);
        let w = self.window_idx;
        self.window_idx += 1;
        let n = self.cfg.block_size;
        let apps = self.cfg.apps.clone();
        let mut txs = Vec::with_capacity(n);
        for i in 0..n {
            let app = apps[i % apps.len()];
            let hot = self.rng.gen::<f64>() < hotspot.fraction;
            let op = if hot {
                let rank = zipf.sample(&mut self.rng) as u64;
                AccountingOp::Transfer {
                    from: Self::hotspot_key(rank),
                    to: self.chain_dest_key(app, i as u64),
                    amount: 1,
                }
            } else {
                AccountingOp::Transfer {
                    from: self.indep_key(app, w, (2 * i) as u64),
                    to: self.indep_key(app, w, (2 * i + 1) as u64),
                    amount: 1,
                }
            };
            txs.push(self.next_client_tx(app, &op));
        }
        txs
    }

    /// The endless transaction stream: windows concatenated, each
    /// generated only when the previous one is used up, so a consumer
    /// holds at most one window at a time.
    pub fn stream(mut self) -> impl Iterator<Item = Transaction> {
        std::iter::from_fn(move || Some(self.window())).flatten()
    }

    /// The first `count` transactions of [`WorkloadGen::stream`] (the
    /// tail window is truncated).
    pub fn take_txs(self, count: usize) -> Vec<Transaction> {
        let mut out = Vec::with_capacity(count);
        out.extend(self.stream().take(count));
        out
    }
}

#[cfg(test)]
mod tests {
    use parblock_depgraph::{ConflictStats, DependencyGraph, DependencyMode, ExecutionLayers};
    use parblock_types::{Block, BlockNumber, Hash32};

    use super::*;

    fn stats_for(contention: f64, cross_app: bool, block_size: usize) -> (ConflictStats, usize) {
        let mut gen = WorkloadGen::new(WorkloadConfig {
            contention,
            cross_app,
            block_size,
            ..WorkloadConfig::default()
        });
        let txs = gen.window();
        let n = txs.len();
        let block = Block::new(BlockNumber(1), Hash32::ZERO, txs);
        let g = DependencyGraph::build(&block, DependencyMode::Full);
        (ConflictStats::compute(&g), n)
    }

    #[test]
    fn zero_contention_has_no_edges() {
        let (stats, n) = stats_for(0.0, false, 60);
        assert_eq!(n, 60);
        assert_eq!(stats.edges, 0);
        assert_eq!(stats.conflicting_fraction, 0.0);
        assert_eq!(stats.critical_path, 1);
    }

    #[test]
    fn contention_dial_is_respected() {
        for (dial, expect) in [(0.2, 0.2), (0.8, 0.8)] {
            let (stats, _) = stats_for(dial, false, 100);
            assert!(
                (stats.conflicting_fraction - expect).abs() < 0.05,
                "dial {dial}: got {}",
                stats.conflicting_fraction
            );
        }
    }

    #[test]
    fn full_contention_builds_a_chain() {
        let (stats, n) = stats_for(1.0, false, 50);
        assert_eq!(stats.critical_path, n, "dependency graph must be a chain");
        assert!((stats.conflicting_fraction - 1.0).abs() < 1e-9);
    }

    #[test]
    fn intra_app_contention_has_no_cross_app_edges() {
        let (stats, _) = stats_for(0.8, false, 90);
        assert_eq!(stats.cross_app_edge_fraction, 0.0);
    }

    #[test]
    fn cross_app_contention_produces_cross_app_edges() {
        let (stats, _) = stats_for(0.8, true, 90);
        assert!(stats.cross_app_edge_fraction > 0.5);
    }

    #[test]
    fn transactions_are_valid_against_genesis() {
        use parblock_contracts::{AccountingContract, SmartContract};
        use parblock_ledger::MvccState;

        let mut gen = WorkloadGen::new(WorkloadConfig {
            contention: 0.5,
            block_size: 40,
            ..WorkloadConfig::default()
        });
        let state = MvccState::with_genesis(gen.genesis());
        let contract = AccountingContract::new(AppId(0));
        for tx in gen.window() {
            let outcome = contract.execute(&tx, &state);
            assert!(outcome.is_commit(), "{tx:?}: {outcome:?}");
        }
    }

    #[test]
    fn client_timestamps_are_unique_per_client() {
        // The in-stream order is shuffled, but each client's timestamps
        // must be distinct (exactly-once semantics rest on them).
        let gen = WorkloadGen::new(WorkloadConfig {
            clients: 4,
            block_size: 30,
            ..WorkloadConfig::default()
        });
        let mut seen = std::collections::HashSet::new();
        for tx in gen.take_txs(120) {
            assert!(seen.insert(tx.id()), "duplicate {:?}", tx.id());
        }
    }

    /// The driver takes `stream().skip(skip)` one transaction at a time;
    /// it must see exactly what `take_txs` materialises, and `take_txs`
    /// exactly the windows concatenated.
    #[test]
    fn stream_yields_exactly_take_txs() {
        let configs = [
            WorkloadConfig { contention: 0.0, ..WorkloadConfig::default() },
            WorkloadConfig { contention: 0.8, ..WorkloadConfig::default() },
            WorkloadConfig { contention: 0.8, cross_app: true, ..WorkloadConfig::default() },
            WorkloadConfig { hotspot: Some(HotspotConfig::default()), ..WorkloadConfig::default() },
        ];
        for base in configs {
            for seed in [1, 42, 7_777] {
                let cfg = WorkloadConfig { seed, block_size: 30, ..base.clone() };
                let n = 100;
                for skip in [0, 1, 29, 30, 95] {
                    let expect = WorkloadGen::new(cfg.clone()).take_txs(skip + n);
                    let streamed: Vec<Transaction> =
                        WorkloadGen::new(cfg.clone()).stream().skip(skip).take(n).collect();
                    assert_eq!(streamed.len(), n);
                    for (got, want) in streamed.iter().zip(&expect[skip..]) {
                        assert_eq!(got.id(), want.id(), "{cfg:?} skip {skip}");
                        assert_eq!(got.rw_set(), want.rw_set(), "{cfg:?} skip {skip}");
                        assert_eq!(got.payload(), want.payload(), "{cfg:?} skip {skip}");
                    }
                }
                let mut gen = WorkloadGen::new(cfg.clone());
                let windows: Vec<Transaction> = (0..5).flat_map(|_| gen.window()).collect();
                assert_eq!(WorkloadGen::new(cfg).take_txs(140), windows[..140]);
            }
        }
    }

    #[test]
    fn take_txs_returns_exact_count() {
        let gen = WorkloadGen::new(WorkloadConfig {
            block_size: 7,
            ..WorkloadConfig::default()
        });
        assert_eq!(gen.take_txs(20).len(), 20);
    }

    #[test]
    fn windows_use_rotating_hot_keys() {
        let mut gen = WorkloadGen::new(WorkloadConfig {
            contention: 1.0,
            block_size: 10,
            ..WorkloadConfig::default()
        });
        let w1 = gen.window();
        let w2 = gen.window();
        let hot = |txs: &[Transaction]| {
            txs.iter()
                .flat_map(|t| t.rw_set().writes().iter().copied())
                .min()
                .unwrap()
        };
        // Different windows rotate within the hot pool (apps also rotate).
        assert_ne!(hot(&w1), hot(&w2));
    }

    #[test]
    fn layers_match_contention_shape() {
        let mut gen = WorkloadGen::new(WorkloadConfig {
            contention: 0.5,
            block_size: 40,
            ..WorkloadConfig::default()
        });
        let block = Block::new(BlockNumber(1), Hash32::ZERO, gen.window());
        let g = DependencyGraph::build(&block, DependencyMode::Reduced);
        let layers = ExecutionLayers::compute(&g);
        // 20 chained + 20 independent: critical path = chain length.
        assert_eq!(layers.critical_path(), 20);
    }

    #[test]
    fn hotspot_mode_produces_skewed_conflicts() {
        let mut gen = WorkloadGen::new(WorkloadConfig {
            hotspot: Some(HotspotConfig {
                keys: 8,
                exponent: 1.2,
                fraction: 0.5,
            }),
            block_size: 200,
            ..WorkloadConfig::default()
        });
        let txs = gen.window();
        assert_eq!(txs.len(), 200);
        let block = Block::new(BlockNumber(1), Hash32::ZERO, txs);
        let g = DependencyGraph::build(&block, DependencyMode::Full);
        let stats = ConflictStats::compute(&g);
        // Roughly half the transactions hit the hot set and conflict.
        assert!(
            (0.3..0.7).contains(&stats.conflicting_fraction),
            "{stats:?}"
        );
        // Rank 0 must be the most-touched hot key.
        let hot_counts: std::collections::HashMap<u64, usize> = block
            .transactions()
            .iter()
            .flat_map(|t| t.rw_set().reads().iter().copied())
            .filter(|k| (100..108).contains(&k.0))
            .fold(std::collections::HashMap::new(), |mut acc, k| {
                *acc.entry(k.0).or_default() += 1;
                acc
            });
        let rank0 = hot_counts.get(&100).copied().unwrap_or(0);
        let rank7 = hot_counts.get(&107).copied().unwrap_or(0);
        assert!(rank0 > rank7, "zipf head {rank0} vs tail {rank7}");
    }

    #[test]
    fn hotspot_transactions_are_valid_against_genesis() {
        use parblock_contracts::{AccountingContract, SmartContract};
        use parblock_ledger::MvccState;

        let mut gen = WorkloadGen::new(WorkloadConfig {
            hotspot: Some(HotspotConfig::default()),
            block_size: 50,
            ..WorkloadConfig::default()
        });
        let state = MvccState::with_genesis(gen.genesis());
        let contract = AccountingContract::new(AppId(0));
        for tx in gen.window() {
            assert!(contract.execute(&tx, &state).is_commit());
        }
    }

    #[test]
    #[should_panic(expected = "contention must be in [0, 1]")]
    fn invalid_contention_panics() {
        let _ = WorkloadGen::new(WorkloadConfig {
            contention: 1.5,
            ..WorkloadConfig::default()
        });
    }
}
