//! Regression test for the incremental global-state board: a full
//! Fig. 6-style scenario run with version-skipping state maintenance must
//! produce **byte-identical** results to the same run with exhaustive
//! full scans — same compositions, same update-message counts, same
//! aggregation rounds. The incremental path may only change how much scan
//! work the board performs, never what it publishes.

use acp_bench::experiments::Scale;
use acp_core::{AlgorithmKind, SetupConfig};
use acp_model::prelude::TenantTier;
use acp_simcore::SimDuration;
use acp_state::GlobalStateConfig;
use acp_workload::{
    run_scenario, tier_index, RateSchedule, ScenarioResult, TenantsConfig, TierSummary,
};

fn fig6_style_point(incremental: bool) -> ScenarioResult {
    // Long enough that the 10-minute virtual-link aggregation fires at
    // least once (so link-scan skipping is exercised too).
    let mut scale = Scale::quick();
    scale.duration = SimDuration::from_minutes(12);
    let mut config = scale.base_config(42);
    config.algorithm = AlgorithmKind::Acp;
    config.schedule = RateSchedule::constant(scale.anchor_rate);
    config.global_state = GlobalStateConfig { incremental, ..GlobalStateConfig::default() };
    run_scenario(config)
}

#[test]
fn incremental_board_matches_full_scan_scenario() {
    let full = fig6_style_point(false);
    let inc = fig6_style_point(true);

    // Identical composition results: every session (id, request,
    // component assignment) matches.
    assert_eq!(full.session_digest, inc.session_digest, "compositions diverged");
    // …and identical audit trails: both modes must not only compose the
    // same sessions but satisfy every audited invariant at the same
    // points (the chaos digest folds audit + fault digests on top).
    assert_eq!(full.audit_violations, 0, "full-scan run must audit clean");
    assert_eq!(inc.audit_violations, 0, "incremental run must audit clean");
    assert_eq!(full.chaos_digest(), inc.chaos_digest(), "audit trails diverged");
    assert_eq!(full.total_requests, inc.total_requests);
    assert_eq!(full.total_successes, inc.total_successes);
    assert_eq!(full.final_sessions, inc.final_sessions);

    // Identical maintenance accounting: update messages (inside the
    // OverheadStats equality) and aggregation rounds.
    assert_eq!(full.overhead, inc.overhead, "message ledger diverged");
    assert_eq!(full.aggregation_rounds, inc.aggregation_rounds);
    assert_eq!(full.success_series.samples(), inc.success_series.samples());

    // The two runs did the same logical work but different scan work.
    let fs = full.state_scans;
    let is = inc.state_scans;
    assert_eq!(fs.nodes_scanned, fs.nodes_total, "full mode must visit everything");
    assert_eq!(fs.links_scanned, fs.links_total, "full mode must visit everything");
    assert_eq!(fs.nodes_total, is.nodes_total, "same refresh schedule");
    assert_eq!(fs.links_total, is.links_total, "same aggregation schedule");
    assert!(
        is.nodes_scanned < is.nodes_total,
        "incremental mode should skip untouched nodes ({}/{})",
        is.nodes_scanned,
        is.nodes_total
    );
    assert!(
        is.links_scanned < is.links_total,
        "incremental mode should skip untouched links ({}/{})",
        is.links_scanned,
        is.links_total
    );
}

/// The two-phase setup path with every message-fault rate at zero must
/// be byte-identical to the plain single-phase path: same compositions,
/// same audit trail, same message ledger, same series, same event
/// count. The lease machinery may only change behaviour when a fault
/// actually lands.
///
/// This is also the monomorphization contract: the `plain` run
/// instantiates the composer over `SinglePhase` (the two-phase retry
/// loop, fault sampling and backoff draws are compiled out), the
/// `two_phase` run over the full `TwoPhase` machinery, and at zero fault
/// rates both instantiations must produce identical figure digests and
/// identical lease ledgers.
#[test]
fn inert_two_phase_matches_single_phase_scenario() {
    let plain = fig6_style_point(true);

    let mut scale = Scale::quick();
    scale.duration = SimDuration::from_minutes(12);
    let mut config = scale.base_config(42);
    config.algorithm = AlgorithmKind::Acp;
    config.schedule = RateSchedule::constant(scale.anchor_rate);
    config.setup = Some(SetupConfig::default());
    let two_phase = run_scenario(config);

    assert_eq!(plain.session_digest, two_phase.session_digest, "compositions diverged");
    assert_eq!(plain.chaos_digest(), two_phase.chaos_digest(), "audit trails diverged");
    assert_eq!(plain.overhead, two_phase.overhead, "message ledger diverged");
    assert_eq!(plain.total_requests, two_phase.total_requests);
    assert_eq!(plain.total_successes, two_phase.total_successes);
    assert_eq!(plain.final_sessions, two_phase.final_sessions);
    assert_eq!(plain.sim_events, two_phase.sim_events);
    assert_eq!(plain.aggregation_rounds, two_phase.aggregation_rounds);
    assert_eq!(plain.success_series.samples(), two_phase.success_series.samples());

    // Both keep the lease ledger, and an inert two-phase round places
    // and settles exactly the leases a single-phase one does.
    assert_eq!(plain.lease_stats, two_phase.lease_stats, "lease ledgers diverged");
    assert!(two_phase.lease_stats.created > 0, "the ledger must be live");
    assert!(
        two_phase.lease_stats.reconciles(two_phase.leases_live_end),
        "inert two-phase ledger must reconcile: {:?}",
        two_phase.lease_stats
    );

    // The inert two-phase run still accounts attempts, but never faults,
    // retries, or leaks.
    assert_eq!(two_phase.setup_stats.attempts, two_phase.total_requests);
    assert_eq!(two_phase.setup_stats.retries, 0);
    assert_eq!(two_phase.fault_hit_requests, 0);
    assert_eq!(two_phase.leases_live_end, 0);
    assert_eq!(two_phase.leases_leaked, 0);
}

/// The tenant layer's inertness contract at figure scale: a single
/// uncapped `Gold` tenant with no preemption admits every request, so
/// the run is byte-identical to the tenant-less run — same compositions,
/// same audit trail, same message ledger, same event count. The tenanted
/// run additionally keeps a per-tenant ledger, and it must be clean.
#[test]
fn single_gold_tenant_matches_tenant_less_scenario() {
    let tenant_less = fig6_style_point(true);

    let mut scale = Scale::quick();
    scale.duration = SimDuration::from_minutes(12);
    let mut config = scale.base_config(42);
    config.algorithm = AlgorithmKind::Acp;
    config.schedule = RateSchedule::constant(scale.anchor_rate);
    config.global_state = GlobalStateConfig { incremental: true, ..GlobalStateConfig::default() };
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

/// The repair layer's inertness contract: a churn run with `repair:
/// None` never touches the repair ledger, draws nothing from the repair
/// RNG streams, and schedules no repair events — and attaching a repair
/// config replays the *identical* fault plan (all repair randomness
/// lives on label-derived streams), so the two runs differ only in how
/// fault victims are recovered.
#[test]
fn repair_less_churn_run_keeps_repair_ledger_silent_and_shares_fault_plan() {
    let mut scale = Scale::quick();
    scale.duration = SimDuration::from_minutes(12);
    let mut config = scale.base_config(52);
    config.algorithm = AlgorithmKind::Acp;
    config.schedule = RateSchedule::constant(scale.anchor_rate);
    config.churn = Some(acp_workload::ChurnConfig::default());
    let plain = run_scenario(config.clone());

    // Repair-less runs never touch the ledger.
    assert_eq!(plain.repair_opened, 0, "no repair config, no tickets");
    assert_eq!(plain.repair_attempts, 0);
    assert_eq!(plain.sessions_repaired, 0);
    assert_eq!(plain.sessions_restored, 0);
    assert_eq!(plain.repair_abandoned, 0);
    assert_eq!(plain.repair_cancelled, 0);
    assert_eq!(plain.mttr.count, 0, "no recoveries, no MTTR samples");
    assert!(plain.fault_events > 0, "churn must inject faults");

    // Same seed, repair attached: the fault plan and arrival schedule
    // are byte-identical — only the recovery path changes.
    config.repair = Some(acp_workload::RepairScenarioConfig::default());
    let repaired = run_scenario(config);
    assert_eq!(plain.fault_digest, repaired.fault_digest, "repair must not perturb the fault plan");
    assert_eq!(plain.fault_events, repaired.fault_events);
    assert_eq!(plain.total_requests, repaired.total_requests, "same arrival schedule");
    assert!(repaired.repair_opened > 0, "faults must open tickets");
    assert!(repaired.sessions_repaired > 0, "splices must land");
    assert_eq!(repaired.audit_violations, 0, "repair invariants must hold");
    assert_eq!(repaired.leases_leaked, 0, "make-before-break must not leak");
}
