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
/// not garbage collection. One walk over the live sessions ranks each
/// best-effort session by the hottest eligible node it uses, so a
/// session counts once, at the first node that reaches it. By
/// construction only best-effort sessions are ever touched; the tenant
/// auditor independently verifies that no higher tier accrues
/// preemptions. Returns the sessions preempted, in the order preempted.
pub fn preempt_round(system: &mut StreamSystem, min_node_utilization: f64) -> Vec<SessionId> {
    let mut ranked: Vec<(f64, OverlayNodeId)> = system
        .overlay()
        .nodes()
        .map(|v| {
            let node = system.node(v);
            (node.capacity().max_utilization_of(&node.committed()).min(1.0), v)
        })
        .collect();
    ranked.sort_by(|a, b| b.0.total_cmp(&a.0));
    // Hottest-first position of every eligible node; the rest never rank.
    let mut position = vec![usize::MAX; system.node_count()];
    for (i, &(_, v)) in ranked.iter().take_while(|&&(util, _)| util >= min_node_utilization).enumerate() {
        position[v.index()] = i;
    }
    let mut candidates: Vec<(usize, SessionId)> = system
        .sessions()
        .filter(|s| s.request_spec.tenant.is_some_and(|b| b.tier == TenantTier::BestEffort))
        .filter_map(|s| {
            let hottest = s.composition.assignment.iter().map(|c| position[c.node.index()]).min()?;
            (hottest != usize::MAX).then_some((hottest, s.id))
        })
        .collect();
    candidates.sort_unstable();
    let victims: Vec<SessionId> = candidates.iter().take(MAX_PREEMPTIONS_PER_ROUND).map(|&(_, sid)| sid).collect();
    for &sid in &victims {
        system.preempt_session(sid);
    }
    victims
}
