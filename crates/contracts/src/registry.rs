//! The application registry: Σ : A → 2^E (agents per application),
//! installed contracts, and the orderers' access check.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use parblock_types::{AppId, NodeId, TypeError};

use crate::traits::SmartContract;

/// Per-application deployment record.
#[derive(Clone)]
struct AppEntry {
    contract: Arc<dyn SmartContract>,
    agents: BTreeSet<NodeId>,
}

/// The shared deployment map: which contract implements each application
/// and which executor peers are its agents.
///
/// Orderers consult it for access control and the NEWBLOCK app set;
/// executors consult it to decide which transactions they execute.
/// "Every peer in the blockchain knows the agents of each application"
/// (§III) — so a single registry value is cloned into every node.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use parblock_contracts::{AccountingContract, AppRegistry};
/// use parblock_types::{AppId, NodeId};
///
/// let mut registry = AppRegistry::new();
/// registry.deploy(Arc::new(AccountingContract::new(AppId(0))), [NodeId(4), NodeId(5)]);
/// assert!(registry.is_agent(NodeId(4), AppId(0)));
/// assert!(!registry.is_agent(NodeId(6), AppId(0)));
/// ```
#[derive(Clone, Default)]
pub struct AppRegistry {
    apps: BTreeMap<AppId, AppEntry>,
}

impl AppRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Deploys `contract` with the given agent set.
    ///
    /// # Panics
    ///
    /// Panics if the agent set is empty — Σ maps to *non-empty* subsets of
    /// executors by definition (§III).
    pub fn deploy<I: IntoIterator<Item = NodeId>>(
        &mut self,
        contract: Arc<dyn SmartContract>,
        agents: I,
    ) {
        let agents: BTreeSet<NodeId> = agents.into_iter().collect();
        assert!(
            !agents.is_empty(),
            "Σ({}) must be non-empty (§III)",
            contract.app()
        );
        self.apps.insert(contract.app(), AppEntry { contract, agents });
    }

    /// Number of deployed applications.
    #[must_use]
    pub fn len(&self) -> usize {
        self.apps.len()
    }

    /// Returns `true` when no application is deployed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.apps.is_empty()
    }

    /// The contract of `app`.
    ///
    /// # Errors
    ///
    /// [`TypeError::UnknownApp`] if not deployed.
    pub fn contract(&self, app: AppId) -> Result<&Arc<dyn SmartContract>, TypeError> {
        self.apps
            .get(&app)
            .map(|e| &e.contract)
            .ok_or(TypeError::UnknownApp(app))
    }

    /// Σ(app): the agents of `app` (empty if unknown).
    #[must_use]
    pub fn agents(&self, app: AppId) -> Vec<NodeId> {
        self.apps
            .get(&app)
            .map(|e| e.agents.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Whether `node` is an agent of `app`.
    #[must_use]
    pub fn is_agent(&self, node: NodeId, app: AppId) -> bool {
        self.apps
            .get(&app)
            .is_some_and(|e| e.agents.contains(&node))
    }

    /// Orderer-side access control (§III-A): "if a client is not
    /// authorized to perform an operation on the requested application,
    /// orderers simply discard that request". Every client may use every
    /// deployed application, so only requests for an undeployed one are
    /// refused.
    ///
    /// # Errors
    ///
    /// [`TypeError::UnknownApp`] for undeployed applications.
    pub fn check_access(&self, app: AppId) -> Result<(), TypeError> {
        self.apps.get(&app).map(|_| ()).ok_or(TypeError::UnknownApp(app))
    }
}

impl std::fmt::Debug for AppRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut map = f.debug_map();
        for (app, entry) in &self.apps {
            map.entry(&app.to_string(), &(entry.contract.name(), &entry.agents));
        }
        map.finish()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use crate::accounting::AccountingContract;
    use crate::kv_app::KvContract;

    use super::*;

    fn registry() -> AppRegistry {
        let mut r = AppRegistry::new();
        r.deploy(Arc::new(AccountingContract::new(AppId(0))), [NodeId(4)]);
        r.deploy(
            Arc::new(KvContract::new(AppId(1))),
            [NodeId(5), NodeId(6)],
        );
        r
    }

    #[test]
    fn agents_and_membership() {
        let r = registry();
        assert_eq!(r.agents(AppId(1)), vec![NodeId(5), NodeId(6)]);
        assert!(r.is_agent(NodeId(4), AppId(0)));
        assert!(!r.is_agent(NodeId(4), AppId(1)));
        assert!(r.agents(AppId(9)).is_empty());
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn contract_lookup() {
        let r = registry();
        assert_eq!(r.contract(AppId(0)).unwrap().name(), "accounting");
        assert_eq!(
            r.contract(AppId(9)).err().unwrap(),
            TypeError::UnknownApp(AppId(9))
        );
    }

    #[test]
    fn unknown_app_access_is_rejected() {
        let r = registry();
        assert_eq!(
            r.check_access(AppId(7)).unwrap_err(),
            TypeError::UnknownApp(AppId(7))
        );
    }

    #[test]
    #[should_panic(expected = "must be non-empty")]
    fn empty_agent_set_panics() {
        let mut r = AppRegistry::new();
        r.deploy(Arc::new(KvContract::new(AppId(0))), []);
    }

    #[test]
    fn debug_lists_deployments() {
        let r = registry();
        let debug = format!("{r:?}");
        assert!(debug.contains("accounting"));
        assert!(debug.contains("kv"));
    }
}
