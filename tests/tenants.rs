//! Tenant-isolation integration tests through the facade crate: the
//! per-tenant ledger, preemption scoping, and the tenant audit pass
//! exercised on the same loaded fixture as the failover suite.

mod common;

use acp_stream::prelude::*;

#[test]
fn tenant_ledger_reconciles_through_close() {
    let (mut stack, sessions) = common::loaded(101, true);
    stack.assert_audit_clean("tenanted admissions");

    // Orderly teardown of half the sessions, then full drain — the
    // ledger must reconcile at every step.
    for &sid in sessions.iter().step_by(2) {
        assert!(stack.system.close_session(sid));
    }
    stack.assert_audit_clean("partial drain");
    let live = stack.system.tenant_live_counts();
    for (id, stats) in stack.system.tenant_ledger().iter() {
        assert!(stats.reconciles(live[id.0 as usize]), "tenant {id:?} out of balance: {stats:?}");
    }

    for &sid in sessions.iter().skip(1).step_by(2) {
        assert!(stack.system.close_session(sid));
    }
    stack.assert_audit_clean("full drain");
    assert_eq!(stack.system.session_count(), 0, "sessions outlived the drain");
    for (id, stats) in stack.system.tenant_ledger().iter() {
        assert!(stats.reconciles(0), "tenant {id:?} out of balance: {stats:?}");
        assert_eq!(stats.admitted, stats.closed, "tenant {id:?}: every admission closed in order");
    }
}

#[test]
fn preemption_reclaims_only_best_effort() {
    let (mut stack, _) = common::loaded(102, true);

    let best_effort: Vec<SessionId> =
        stack.system.sessions().filter(|s| is_best_effort(s)).map(|s| s.id).collect();
    let mut preempted = 0u64;
    for sid in best_effort {
        if stack.system.preempt_session(sid).is_some() {
            preempted += 1;
        }
    }
    assert!(preempted > 0, "the round-robin mix must have admitted best-effort sessions");
    stack.assert_audit_clean("best-effort preemption");

    let live = stack.system.tenant_live_counts();
    for (id, stats) in stack.system.tenant_ledger().iter() {
        let live = live[id.0 as usize];
        assert!(stats.reconciles(live), "tenant {id:?} out of balance: {stats:?}");
        if stats.tier != TenantTier::BestEffort {
            assert_eq!(stats.preempted, 0, "preemption touched {:?} tenant {id:?}", stats.tier);
            assert!(live > 0, "non-best-effort tenant {id:?} lost its sessions");
        } else {
            assert_eq!(live, 0, "every best-effort session was preemptable");
        }
    }
    let best = stack
        .system
        .tenant_ledger()
        .iter()
        .find(|(_, s)| s.tier == TenantTier::BestEffort)
        .map(|(_, s)| *s)
        .expect("best-effort tenant registered");
    assert_eq!(best.preempted, preempted);
}

#[test]
fn node_failure_keeps_tenant_ledgers_reconciled() {
    let (mut stack, _) = common::loaded(103, true);
    let victim = OverlayNodeId(3);
    let (_, orphans) = stack.fail_over(FaultKind::NodeFail { node: victim.0 }, SimTime::from_secs(5));
    stack.assert_audit_clean("tenanted node failure");
    let live = stack.system.tenant_live_counts();
    let mut killed_total = 0u64;
    for (id, stats) in stack.system.tenant_ledger().iter() {
        assert!(
            stats.reconciles(live[id.0 as usize]),
            "tenant {id:?} out of balance after failover: {stats:?}"
        );
        killed_total += stats.killed;
        // Failover kills or recovers — it never masquerades as
        // preemption, whatever the tier.
        assert_eq!(stats.preempted, 0, "failover recorded as preemption for {id:?}");
    }
    // Whatever the failover outcome, the accounting went through the
    // kill path, not silent session loss: every session in the fixture
    // is tenanted, so each orphan is one recorded kill.
    assert!(!orphans.is_empty(), "the failed node carried sessions");
    assert_eq!(killed_total, orphans.len() as u64, "a killed session escaped the ledger");
}

fn is_best_effort(session: &Session) -> bool {
    session.request_spec.tenant.is_some_and(|b| b.tier == TenantTier::BestEffort)
}

/// Node utilisations, hottest first, as the preemption round ranks them.
fn hottest_first(system: &StreamSystem) -> Vec<(f64, OverlayNodeId)> {
    let mut ranked: Vec<(f64, OverlayNodeId)> = system
        .overlay()
        .nodes()
        .map(|v| {
            let node = system.node(v);
            (node.capacity().max_utilization_of(&node.committed()).min(1.0), v)
        })
        .collect();
    ranked.sort_by(|a, b| b.0.total_cmp(&a.0));
    ranked
}

/// The preemption round's victims, walked node by node: hottest node
/// first and ascending id within a node, a session already taken at a
/// hotter node not taken again, four at most.
fn per_node_victims(system: &StreamSystem, min_node_utilization: f64) -> Vec<SessionId> {
    let mut victims = Vec::new();
    for (util, v) in hottest_first(system) {
        if util < min_node_utilization {
            break;
        }
        let mut here: Vec<SessionId> = system
            .sessions()
            .filter(|s| is_best_effort(s) && s.composition.assignment.iter().any(|c| c.node == v))
            .map(|s| s.id)
            .filter(|sid| !victims.contains(sid))
            .collect();
        here.sort_unstable();
        for sid in here {
            if victims.len() == 4 {
                return victims;
            }
            victims.push(sid);
        }
    }
    victims
}

/// The one-walk round against the per-node walk, over six universes
/// and floors from none to above every node, most of them set exactly
/// at a node's utilisation so the first few nodes alone are eligible.
#[test]
fn preemption_round_matches_the_per_node_walk() {
    let best_effort = |system: &StreamSystem| system.sessions().filter(|s| is_best_effort(s)).count();
    let mut sizes = [0usize; 5];
    for seed in 104..110 {
        let (stack, _) = common::loaded(seed, true);
        let ranked = hottest_first(&stack.system);
        let mut floors = vec![0.0, f64::INFINITY];
        floors.extend([0, 1, 2, 3, 5, 8].map(|rank| ranked[rank].0));
        for floor in floors {
            let expected = per_node_victims(&stack.system, floor);
            let mut system = stack.system.clone();
            let before = best_effort(&system);
            assert_eq!(preempt_round(&mut system, floor), expected, "seed {seed}, floor {floor}");
            assert_eq!(best_effort(&system), before - expected.len(), "seed {seed}, floor {floor}");
            sizes[expected.len()] += 1;
            let live = system.tenant_live_counts();
            for (id, stats) in system.tenant_ledger().iter() {
                assert!(stats.reconciles(live[id.0 as usize]), "tenant {id:?} out of balance: {stats:?}");
            }
        }
    }
    assert!(sizes[0] > 0 && sizes[4] > 0, "rounds must meet both the floor and the cap: {sizes:?}");
    assert!(sizes[1..4].iter().sum::<usize>() > 0, "some floor must leave fewer than four: {sizes:?}");
}
