//! Pressure-driven preemption of best-effort sessions (multi-tenant
//! pressure relief).

use acp_model::prelude::*;
use acp_topology::OverlayNodeId;

/// Upper bound on sessions preempted per round.
const MAX_PREEMPTIONS_PER_ROUND: usize = 4;

/// One round of pressure-driven preemption of `BestEffort` sessions,
/// ranked by node utilisation: when the congestion gate alone can't
/// relieve pressure (the caller decides when to run a round — typically
/// when the φ-congestion estimate crosses a threshold), best-effort
/// sessions on the hottest nodes are reclaimed, hottest node first,
/// ascending session id within a node. Nodes below
/// `min_node_utilization` are skipped: preemption is pressure relief,
/// not garbage collection. By construction only best-effort sessions
/// are ever touched; the tenant auditor independently verifies that no
/// higher tier accrues preemptions. Returns the sessions preempted.
pub fn preempt_round(system: &mut StreamSystem, min_node_utilization: f64) -> usize {
    let mut ranked: Vec<(f64, OverlayNodeId)> = system
        .overlay()
        .nodes()
        .map(|v| {
            let node = system.node(v);
            (node.capacity().max_utilization_of(&node.committed()).min(1.0), v)
        })
        .collect();
    ranked.sort_by(|a, b| b.0.total_cmp(&a.0));
    let mut reclaimed = 0;
    'nodes: for &(util, v) in &ranked {
        if util < min_node_utilization {
            break;
        }
        for sid in system.best_effort_sessions_on(v) {
            if reclaimed >= MAX_PREEMPTIONS_PER_ROUND {
                break 'nodes;
            }
            reclaimed += usize::from(system.preempt_session(sid).is_some());
        }
    }
    reclaimed
}
