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
    for (id, stats) in stack.system.tenant_ledger().iter() {
        assert!(stats.reconciles(), "tenant {id:?} out of balance: {stats:?}");
    }

    for &sid in sessions.iter().skip(1).step_by(2) {
        assert!(stack.system.close_session(sid));
    }
    stack.assert_audit_clean("full drain");
    for (id, stats) in stack.system.tenant_ledger().iter() {
        assert!(stats.reconciles(), "tenant {id:?} out of balance: {stats:?}");
        assert_eq!(stats.live, 0, "tenant {id:?} still holds sessions after the drain");
        assert!(stats.committed.cpu.abs() < 1e-6, "tenant {id:?} leaked cpu");
        assert!(stats.committed.memory_mb.abs() < 1e-6, "tenant {id:?} leaked memory");
    }
}

#[test]
fn preemption_reclaims_only_best_effort() {
    let (mut stack, _) = common::loaded(102, true);

    let nodes: Vec<OverlayNodeId> = stack.system.overlay().nodes().collect();
    let mut preempted = 0u64;
    for v in nodes {
        for sid in stack.system.best_effort_sessions_on(v) {
            if stack.system.preempt_session(sid).is_some() {
                preempted += 1;
            }
        }
    }
    assert!(preempted > 0, "the round-robin mix must have admitted best-effort sessions");
    stack.assert_audit_clean("best-effort preemption");

    for (id, stats) in stack.system.tenant_ledger().iter() {
        assert!(stats.reconciles(), "tenant {id:?} out of balance: {stats:?}");
        if stats.tier != TenantTier::BestEffort {
            assert_eq!(stats.preempted, 0, "preemption touched {:?} tenant {id:?}", stats.tier);
            assert!(stats.live > 0, "non-best-effort tenant {id:?} lost its sessions");
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
    assert_eq!(best.live, 0, "every best-effort session was preemptable");
}

#[test]
fn node_failure_keeps_tenant_ledgers_reconciled() {
    let (mut stack, _) = common::loaded(103, true);
    let victim = OverlayNodeId(3);
    stack.fail_over(FaultKind::NodeFail { node: victim.0 }, SimTime::from_secs(5));
    stack.assert_audit_clean("tenanted node failure");
    let mut killed_total = 0u64;
    for (id, stats) in stack.system.tenant_ledger().iter() {
        assert!(stats.reconciles(), "tenant {id:?} out of balance after failover: {stats:?}");
        killed_total += stats.killed;
        // Failover kills or recovers — it never masquerades as
        // preemption, whatever the tier.
        assert_eq!(stats.preempted, 0, "failover recorded as preemption for {id:?}");
    }
    // Whatever the failover outcome, the accounting went through the
    // kill path, not silent session loss.
    let live_now: u64 = stack.system.tenant_ledger().iter().map(|(_, s)| s.live).sum();
    assert_eq!(stack.system.session_count() as u64, live_now, "ledger live-count drifted");
    let _ = killed_total;
}
