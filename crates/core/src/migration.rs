//! Dynamic component placement (migration) integrated with composition.
//!
//! The paper's final future-work item (§6, item 3) is "integrating
//! dynamic component placement (or migration) with the component
//! composition system". Footnote 1 already anticipates it: "Components
//! can be dynamically migrated among nodes. The component composition
//! operates based on the current component placement."
//!
//! [`Rebalancer`] implements a periodic placement policy: it finds the
//! hottest and coldest nodes by resource utilisation and migrates *idle*
//! components (serving no live session) off the hot nodes, so future
//! compositions find candidates with head-room. Migrations respect the
//! distinct-functions-per-node invariant and are advertised to the rest
//! of the system through the normal coarse-grain state updates — until a
//! node's next update, a freshly migrated component is invisible to ACP's
//! candidate selection (exactly the propagation delay a real deployment
//! would see).

use acp_model::prelude::*;
use acp_model::system::MigrationError;
use acp_topology::OverlayNodeId;

/// Rebalancing policy knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RebalanceConfig {
    /// Minimum utilisation gap (hot − cold) before a migration is worth
    /// its disruption.
    pub min_utilization_gap: f64,
    /// Upper bound on migrations per round.
    pub max_migrations_per_round: usize,
}

impl Default for RebalanceConfig {
    fn default() -> Self {
        RebalanceConfig { min_utilization_gap: 0.25, max_migrations_per_round: 4 }
    }
}

/// One executed migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationRecord {
    /// The component's identity before the move.
    pub from: ComponentId,
    /// Its identity after the move.
    pub to: ComponentId,
}

/// Periodic load-driven component migration.
#[derive(Debug, Clone, Default)]
pub struct Rebalancer {
    config: RebalanceConfig,
    total_migrations: u64,
    rejected: u64,
}

impl Rebalancer {
    /// Creates a rebalancer with the given policy.
    pub fn new(config: RebalanceConfig) -> Self {
        Rebalancer { config, total_migrations: 0, rejected: 0 }
    }

    /// Total migrations executed over the rebalancer's lifetime.
    pub fn total_migrations(&self) -> u64 {
        self.total_migrations
    }

    /// Migration attempts refused (component in use, duplicate function…).
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// CPU-dominated utilisation of a node (committed / capacity).
    fn utilization(system: &StreamSystem, v: OverlayNodeId) -> f64 {
        let node = system.node(v);
        node.capacity().max_utilization_of(&node.committed()).min(1.0)
    }

    /// Runs one rebalancing round: repeatedly migrates an idle component
    /// from the currently hottest node to the coldest node that can host
    /// its function, while the utilisation gap exceeds the configured
    /// minimum. Returns the executed migrations.
    pub fn rebalance_round(&mut self, system: &mut StreamSystem) -> Vec<MigrationRecord> {
        let mut executed = Vec::new();
        for _ in 0..self.config.max_migrations_per_round {
            // Rank nodes by utilisation.
            let mut ranked: Vec<(f64, OverlayNodeId)> = system
                .overlay()
                .nodes()
                .map(|v| (Self::utilization(system, v), v))
                .collect();
            ranked.sort_by(|a, b| b.0.total_cmp(&a.0));
            let (hot_util, hot) = ranked[0];
            let (cold_util, _) = *ranked.last().expect("non-empty overlay");
            if hot_util - cold_util < self.config.min_utilization_gap {
                break;
            }
            // Pick an idle component on the hot node and the coldest
            // feasible target for it.
            let candidates: Vec<ComponentId> = system.node(hot).components().map(|c| c.id).collect();
            let mut moved = false;
            'components: for id in candidates {
                if system.component_in_use(id) {
                    continue;
                }
                let function = system.component(id).function;
                for &(util, target) in ranked.iter().rev() {
                    if target == hot || util >= hot_util {
                        break;
                    }
                    if system.node(target).hosts_function(function) {
                        continue;
                    }
                    match system.migrate_component(id, target) {
                        Ok(new_id) => {
                            executed.push(MigrationRecord { from: id, to: new_id });
                            self.total_migrations += 1;
                            moved = true;
                            break 'components;
                        }
                        Err(MigrationError::InUse | MigrationError::DuplicateFunction) => {
                            self.rejected += 1;
                            continue;
                        }
                        Err(_) => {
                            self.rejected += 1;
                            continue;
                        }
                    }
                }
            }
            if !moved {
                break; // nothing movable on the hottest node
            }
        }
        executed
    }
}

/// Preemption policy knobs (multi-tenant pressure relief).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PreemptionConfig {
    /// Skip nodes below this utilisation — preemption is pressure
    /// relief, not garbage collection.
    pub min_node_utilization: f64,
}

impl Default for PreemptionConfig {
    fn default() -> Self {
        PreemptionConfig { min_node_utilization: 0.5 }
    }
}

/// Upper bound on sessions preempted per round.
const MAX_PREEMPTIONS_PER_ROUND: usize = 4;

/// Pressure-driven preemption of `BestEffort` sessions, sharing the
/// [`Rebalancer`]'s utilisation ranking: when the congestion gate alone
/// can't relieve pressure (the caller decides when to run a round —
/// typically when the φ-congestion estimate crosses a threshold),
/// best-effort sessions on the hottest nodes are reclaimed, hottest node
/// first, ascending session id within a node. By construction only
/// best-effort sessions are ever touched; the tenant auditor
/// independently verifies that no higher tier accrues preemptions.
#[derive(Debug, Clone, Default)]
pub struct Preemptor {
    config: PreemptionConfig,
}

impl Preemptor {
    /// Creates a preemptor with the given policy.
    pub fn new(config: PreemptionConfig) -> Self {
        Preemptor { config }
    }

    /// Runs one preemption round, returning the reclaimed requests (for
    /// per-tenant bookkeeping at the caller).
    pub fn preempt_round(&mut self, system: &mut StreamSystem) -> Vec<Request> {
        let mut ranked: Vec<(f64, OverlayNodeId)> = system
            .overlay()
            .nodes()
            .map(|v| {
                let node = system.node(v);
                (node.capacity().max_utilization_of(&node.committed()).min(1.0), v)
            })
            .collect();
        ranked.sort_by(|a, b| b.0.total_cmp(&a.0));
        let mut reclaimed = Vec::new();
        'nodes: for &(util, v) in &ranked {
            if util < self.config.min_node_utilization {
                break;
            }
            for sid in system.best_effort_sessions_on(v) {
                if reclaimed.len() >= MAX_PREEMPTIONS_PER_ROUND {
                    break 'nodes;
                }
                if let Some(spec) = system.preempt_session(sid) {
                    reclaimed.push(spec);
                }
            }
        }
        reclaimed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acp_state::{GlobalStateBoard, GlobalStateConfig};
    use acp_topology::{InetConfig, Overlay, OverlayConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn build(seed: u64) -> StreamSystem {
        let mut rng = StdRng::seed_from_u64(seed);
        let ip = InetConfig { nodes: 200, ..InetConfig::default() }.generate(&mut rng);
        let overlay = Overlay::build(&ip, &OverlayConfig { stream_nodes: 20, neighbors: 4 }, &mut rng);
        StreamSystem::generate(overlay, FunctionRegistry::with_size(20), &SystemConfig::default(), &mut rng)
    }

    /// Heavily load one node by committing sessions onto its components.
    fn heat_node(system: &mut StreamSystem, node: OverlayNodeId) -> usize {
        let comps: Vec<ComponentId> = system.node(node).components().map(|c| c.id).collect();
        let mut committed = 0;
        for (i, &c) in comps.iter().enumerate().take(1) {
            let f = system.component(c).function;
            let cap = system.node(node).capacity();
            let factor = system.registry().profile(f).demand_factor;
            let req = Request {
                id: RequestId(5_000 + i as u64),
                graph: FunctionGraph::path(vec![f]),
                qos: QosRequirement::unconstrained(),
                base_resources: ResourceVector::new(
                    0.6 * cap.cpu / factor,
                    0.6 * cap.memory_mb / factor,
                ),
                bandwidth_kbps: 0.0,
                stream_rate_kbps: 1.0,
                tenant: None,
            };
            let comp = Composition { assignment: vec![c], links: vec![] };
            if system.commit_session(&req, comp).is_ok() {
                committed += 1;
            }
        }
        committed
    }

    #[test]
    fn migration_moves_component_and_updates_discovery() {
        let mut system = build(1);
        let source = OverlayNodeId(0);
        let id = system.node(source).components().next().expect("hosted component").id;
        let function = system.component(id).function;
        // find a target without this function
        let nodes: Vec<OverlayNodeId> = system.overlay().nodes().collect();
        let target = nodes
            .into_iter()
            .find(|&v| v != source && !system.node(v).hosts_function(function))
            .expect("some node lacks the function");
        let before = system.candidates(function).len();
        let new_id = system.migrate_component(id, target).expect("idle component migrates");
        assert_eq!(new_id.node, target);
        assert_eq!(system.candidates(function).len(), before, "candidate count preserved");
        assert!(system.candidates(function).contains(&new_id));
        assert!(!system.candidates(function).contains(&id));
        assert_eq!(system.component(new_id).function, function);
        assert!(system.node(source).component(id.slot).is_none(), "tombstoned at source");
    }

    #[test]
    fn in_use_components_do_not_migrate() {
        let mut system = build(2);
        let node = OverlayNodeId(0);
        assert!(heat_node(&mut system, node) > 0);
        let used = system
            .sessions()
            .next()
            .map(|s| s.composition.assignment[0])
            .expect("session exists");
        let function = system.component(used).function;
        let nodes: Vec<OverlayNodeId> = system.overlay().nodes().collect();
        let target = nodes
            .into_iter()
            .find(|&v| v != used.node && !system.node(v).hosts_function(function))
            .expect("target");
        assert_eq!(system.migrate_component(used, target), Err(MigrationError::InUse));
    }

    #[test]
    fn duplicate_function_target_is_refused() {
        let mut system = build(3);
        let id = system.node(OverlayNodeId(0)).components().next().unwrap().id;
        let function = system.component(id).function;
        let nodes: Vec<OverlayNodeId> = system.overlay().nodes().collect();
        if let Some(target) =
            nodes.into_iter().find(|&v| v != id.node && system.node(v).hosts_function(function))
        {
            assert_eq!(system.migrate_component(id, target), Err(MigrationError::DuplicateFunction));
        }
    }

    #[test]
    fn same_node_migration_is_refused() {
        let mut system = build(4);
        let id = system.node(OverlayNodeId(0)).components().next().unwrap().id;
        assert_eq!(system.migrate_component(id, id.node), Err(MigrationError::SameNode));
    }

    #[test]
    fn rebalance_reduces_hot_cold_gap() {
        let mut system = build(5);
        // heat several nodes
        for i in 0..3 {
            heat_node(&mut system, OverlayNodeId(i));
        }
        let gap = |system: &StreamSystem| {
            let utils: Vec<f64> = system
                .overlay()
                .nodes()
                .map(|v| Rebalancer::utilization(system, v))
                .collect();
            utils.iter().cloned().fold(0.0, f64::max) - utils.iter().cloned().fold(1.0, f64::min)
        };
        let before = gap(&system);
        let mut rebalancer = Rebalancer::new(RebalanceConfig::default());
        let moves = rebalancer.rebalance_round(&mut system);
        // The hot nodes' load is session-bound (cannot move), but their
        // idle components relocate to cold nodes, widening future choice;
        // the gap must not grow and some migration should happen.
        assert!(gap(&system) <= before + 1e-9);
        assert_eq!(moves.len() as u64, rebalancer.total_migrations());
        for m in &moves {
            assert_ne!(m.from.node, m.to.node);
            // migrated components exist at their new identity
            let _ = system.component(m.to);
        }
    }

    #[test]
    fn migrated_candidates_surface_after_board_refresh() {
        let mut system = build(6);
        let mut board = GlobalStateBoard::new(&system, GlobalStateConfig::default());
        let id = system.node(OverlayNodeId(0)).components().next().unwrap().id;
        let function = system.component(id).function;
        let nodes: Vec<OverlayNodeId> = system.overlay().nodes().collect();
        let target = nodes
            .into_iter()
            .find(|&v| v != id.node && !system.node(v).hosts_function(function))
            .expect("target");
        let new_id = system.migrate_component(id, target).unwrap();
        // Unknown to the coarse board until the next update…
        assert!(board.component_qos(new_id).is_none());
        board.refresh_nodes(&system);
        // …and visible afterwards (deployment change forces a publish).
        assert!(board.component_qos(new_id).is_some());
        assert!(board.component_qos(id).is_none(), "stale identity dropped");
    }

    #[test]
    fn balanced_system_is_left_alone() {
        let mut system = build(7);
        let mut rebalancer = Rebalancer::new(RebalanceConfig::default());
        let moves = rebalancer.rebalance_round(&mut system);
        assert!(moves.is_empty(), "no load, no migrations");
        assert_eq!(rebalancer.total_migrations(), 0);
    }
}
