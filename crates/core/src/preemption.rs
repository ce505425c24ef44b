//! Pressure-driven preemption of best-effort sessions (multi-tenant
//! pressure relief).

use acp_model::prelude::*;
use acp_topology::OverlayNodeId;

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

/// Pressure-driven preemption of `BestEffort` sessions, ranked by node
/// utilisation: when the congestion gate alone can't relieve pressure
/// (the caller decides when to run a round — typically when the
/// φ-congestion estimate crosses a threshold), best-effort sessions on
/// the hottest nodes are reclaimed, hottest node first, ascending
/// session id within a node. By construction only best-effort sessions
/// are ever touched; the tenant auditor independently verifies that no
/// higher tier accrues preemptions.
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
