//! Inertness contracts at figure scale: a layer that is switched on but
//! never acts — a single uncapped `Gold` tenant, a repair config under
//! `Terminate` — must leave a Fig. 6-style run byte-identical to the run
//! without it.

use acp_bench::experiments::Scale;
use acp_core::AlgorithmKind;
use acp_model::prelude::TenantTier;
use acp_simcore::SimDuration;
use acp_workload::{
    run_scenario, tier_index, ChurnConfig, RateSchedule, RepairPolicy, RepairScenarioConfig,
    ScenarioResult, TenantsConfig, TierSummary,
};

fn fig6_style_point() -> ScenarioResult {
    // Long enough that the 10-minute virtual-link aggregation fires at
    // least once.
    let mut scale = Scale::quick();
    scale.duration = SimDuration::from_minutes(12);
    let mut config = scale.base_config(42);
    config.algorithm = AlgorithmKind::Acp;
    config.schedule = RateSchedule::constant(scale.anchor_rate);
    run_scenario(config)
}

/// The tenant layer's inertness contract at figure scale: a single
/// uncapped `Gold` tenant with no preemption admits every request, so
/// the run is byte-identical to the tenant-less run — same compositions,
/// same audit trail, same message ledger, same event count. The tenanted
/// run additionally keeps a per-tenant ledger, and it must be clean.
#[test]
fn single_gold_tenant_matches_tenant_less_scenario() {
    let tenant_less = fig6_style_point();

    let mut scale = Scale::quick();
    scale.duration = SimDuration::from_minutes(12);
    let mut config = scale.base_config(42);
    config.algorithm = AlgorithmKind::Acp;
    config.schedule = RateSchedule::constant(scale.anchor_rate);
    config.tenants = Some(TenantsConfig::single_gold());
    let tenanted = run_scenario(config);

    assert_eq!(tenant_less.session_digest, tenanted.session_digest, "compositions diverged");
    assert_eq!(tenant_less.audit_digest, tenanted.audit_digest, "audit trails diverged");
    assert_eq!(tenant_less.chaos_digest(), tenanted.chaos_digest(), "chaos digests diverged");
    assert_eq!(tenant_less.overhead, tenanted.overhead, "message ledger diverged");
    assert_eq!(tenant_less.total_requests, tenanted.total_requests);
    assert_eq!(tenant_less.total_successes, tenanted.total_successes);
    assert_eq!(tenant_less.final_sessions, tenanted.final_sessions);
    assert_eq!(tenant_less.sim_events, tenanted.sim_events);
    assert_eq!(tenant_less.success_series.samples(), tenanted.success_series.samples());

    // Tenant-less runs never touch the tenant ledger.
    assert_eq!(tenant_less.tenant_tiers, [TierSummary::default(); 3]);
    // The tenanted ledger is live, clean, and accounts every request.
    let gold = tenanted.tenant_tiers[tier_index(TenantTier::Gold)];
    assert_eq!(gold.offered, tenanted.total_requests);
    assert_eq!(gold.composed, tenanted.total_successes);
    assert_eq!(gold.shed, 0, "uncapped gold must never shed");
    assert_eq!(tenanted.tenant_violations, 0, "isolation invariants must hold");
    assert_eq!(tenanted.tenant_preemptions, 0);
}

/// One way back from a fault: a churn run without a repair config *is*
/// the ticketed terminate-and-restart arm, field for field. And attaching
/// the splice arm replays the *identical* fault plan (all repair
/// randomness lives on label-derived streams), so the arms differ only in
/// how fault victims are recovered.
#[test]
fn repair_less_churn_run_is_the_terminate_arm_and_shares_fault_plan() {
    let mut scale = Scale::quick();
    scale.duration = SimDuration::from_minutes(12);
    let mut config = scale.base_config(52);
    config.algorithm = AlgorithmKind::Acp;
    config.schedule = RateSchedule::constant(scale.anchor_rate);
    config.churn = Some(ChurnConfig::default());
    let plain = run_scenario(config.clone());
    assert!(plain.fault_events > 0, "churn must inject faults");
    assert!(plain.repair_opened > 0, "every kill opens a ticket");

    config.repair = Some(RepairScenarioConfig { policy: RepairPolicy::Terminate, ..RepairScenarioConfig::default() });
    assert_eq!(plain, run_scenario(config.clone()), "repair: None is the terminate arm");

    // Same seed, splice arm attached: the fault plan and arrival schedule
    // are byte-identical — only the recovery path changes.
    config.repair = Some(RepairScenarioConfig::default());
    let repaired = run_scenario(config);
    assert_eq!(plain.fault_digest, repaired.fault_digest, "repair must not perturb the fault plan");
    assert_eq!(plain.fault_events, repaired.fault_events);
    assert_eq!(plain.total_requests, repaired.total_requests, "same arrival schedule");
    assert!(repaired.repair_opened > 0, "faults must open tickets");
    assert!(repaired.sessions_repaired > 0, "splices must land");
    assert_eq!(repaired.audit_violations, 0, "repair invariants must hold");
    assert_eq!(repaired.leases_leaked, 0, "make-before-break must not leak");
}
