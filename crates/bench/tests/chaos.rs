//! Chaos-harness acceptance tests: the fault schedule and the audit
//! trail are a pure function of the seed (identical at any thread
//! count), and the invariant auditor stays clean through figure-style
//! workloads and a long mixed-fault soak.

use acp_bench::chaos::{chaos_config, chaos_grid, loss_grid, soak, PROBE_LOSS_LEVELS};
use acp_bench::experiments::{run_point, Point, Scale};
use acp_core::prelude::{AlgorithmKind, SetupConfig};
use acp_simcore::{DetectionLatency, FaultPlan, FaultPlanConfig, MessageFaultConfig, SimDuration};
use acp_workload::{run_scenario, ChurnConfig, RepairScenarioConfig, ScenarioConfig};

/// A deliberately tiny scale so the grid finishes in seconds while
/// still sweeping several (nodes × churn) cells.
fn tiny_scale() -> Scale {
    let mut scale = Scale::quick();
    scale.duration = SimDuration::from_minutes(6);
    scale.node_counts = vec![30, 50];
    scale.anchor_rate = 10.0;
    scale
}

#[test]
fn fault_plan_is_deterministic() {
    let config = FaultPlanConfig::default();
    let horizon = SimDuration::from_minutes(60);
    let a = FaultPlan::generate(99, &config, 50, 120, horizon);
    let b = FaultPlan::generate(99, &config, 50, 120, horizon);
    assert_eq!(a.digest(), b.digest());
    assert_eq!(a.len(), b.len());
    let c = FaultPlan::generate(100, &config, 50, 120, horizon);
    assert_ne!(a.digest(), c.digest(), "seed must matter");
}

/// Whole `ScenarioResult`s are compared — both series, the probe
/// histogram, every ledger — not a projection of them.
#[test]
fn chaos_grid_whole_results_are_identical_at_1_and_4_threads() {
    let scale = tiny_scale();
    let seed = 20_260_806;
    let seq = chaos_grid(&scale, seed, 1, false);
    let par = chaos_grid(&scale, seed, 4, false);
    for (s, p) in seq.iter().zip(&par) {
        // The digest first, so a divergence names the contract — fault
        // schedule, session table and audit trail in one number — before
        // the field-by-field diff of everything else.
        assert_eq!(s.result.chaos_digest(), p.result.chaos_digest(), "at {:?}", s.at);
    }
    assert_eq!(seq, par, "some field of some cell's whole result differs between 1 and 4 threads");
    assert!(seq.iter().any(|c| !c.result.success_series.is_empty()), "the series compared must hold samples");
    assert!(seq.iter().any(|c| c.result.sessions_killed > 0), "churn must orphan some sessions");
    assert!(seq.iter().all(|c| c.result.audit_violations == 0), "audits must be clean");
}

#[test]
fn quick_figure_points_audit_clean() {
    // Fig. 6/7-style sweep points (the auditor runs at every sampling
    // period inside every scenario, faults or not).
    let mut scale = tiny_scale();
    scale.anchor_rate = 20.0;
    for (algorithm, nodes) in [(AlgorithmKind::Acp, 50), (AlgorithmKind::Random, 30)] {
        let result = run_point(&scale, 42, algorithm, scale.anchor_rate, nodes);
        assert_eq!(result.audit_violations, 0, "{algorithm:?} at {nodes} nodes");
        assert!(result.audit_digest != 0, "audit must have run");
    }
    // Fig. 8-style dynamic schedule with churn on top.
    let mut config = chaos_config(&scale, 42, 50, 1.0);
    config.schedule = scale.fig8_schedule.clone();
    config.duration = SimDuration::from_minutes(12);
    let result = run_scenario(config);
    assert_eq!(result.audit_violations, 0);
    // Lossy two-phase transport under churn: retries, failover
    // recomposition and reclamation sweeps in one run.
    let mut config = ScenarioConfig::small(46);
    config.duration = SimDuration::from_minutes(12);
    config.churn = Some(ChurnConfig::default());
    config.setup = Some(SetupConfig {
        faults: MessageFaultConfig {
            probe_drop: 0.10,
            confirm_loss: 0.05,
            ..MessageFaultConfig::default()
        },
        ..SetupConfig::default()
    });
    let result = run_scenario(config.clone());
    assert!(result.fault_events > 0, "plan must contain faults");
    assert!(result.fault_hit_requests > 0, "message faults must land");
    assert_eq!(result.audit_violations, 0);
    assert_eq!(result.leases_leaked, 0);
    // Two-phase repair with a uniform detection latency: splice probing
    // over inert two-phase setup, repair leases interleaved with churn.
    config.seed = 51;
    config.setup = Some(SetupConfig::default());
    config.repair = Some(RepairScenarioConfig {
        detection: DetectionLatency::Uniform {
            min: SimDuration::from_millis(500),
            max: SimDuration::from_secs(3),
        },
        ..RepairScenarioConfig::default()
    });
    let result = run_scenario(config);
    assert!(result.repair_opened > 0, "churn must open repair tickets");
    assert_eq!(result.audit_violations, 0);
    assert_eq!(result.leases_leaked, 0);
}

#[test]
fn soak_handles_10k_events_with_mixed_faults_cleanly() {
    let mut scale = Scale::quick();
    scale.duration = SimDuration::from_minutes(6);
    let result = soak(&scale, 42, 2.0, 120, false);
    assert!(result.sim_events >= 10_000, "soak too small: {} events", result.sim_events);
    assert!(result.fault_kinds >= 3, "want >= 3 fault classes, got {}", result.fault_kinds);
    assert!(result.sessions_killed > 0, "faults must orphan sessions at 2x churn");
    assert_eq!(result.audit_violations, 0, "invariants must hold through the soak");
    assert_eq!(
        result.sessions_killed,
        result.sessions_recovered + result.sessions_lost + result.sessions_pending,
        "orphan accounting must balance"
    );
}

#[test]
fn churn_config_scaling_scales_every_rate() {
    let base = ChurnConfig::default();
    let scaled = base.scaled(2.0);
    assert!((scaled.faults.node_fail_per_min - base.faults.node_fail_per_min * 2.0).abs() < 1e-12);
    assert!((scaled.faults.link_fail_per_min - base.faults.link_fail_per_min * 2.0).abs() < 1e-12);
    assert!(
        (scaled.faults.component_crash_per_min - base.faults.component_crash_per_min * 2.0).abs()
            < 1e-12
    );
    assert_eq!(scaled.failover_delay, base.failover_delay);
}

#[test]
fn loss_grid_whole_results_are_identical_at_1_and_4_threads() {
    let scale = tiny_scale();
    let seed = 20_260_806;
    let seq = loss_grid(&scale, seed, 1, false);
    let par = loss_grid(&scale, seed, 4, false);
    for (s, p) in seq.iter().zip(&par) {
        assert_eq!(s.result.chaos_digest(), p.result.chaos_digest(), "at {:?}", s.at);
    }
    assert_eq!(seq, par, "some field of some cell's whole result differs between 1 and 4 threads");
    assert!(seq.iter().any(|c| c.result.probe_histogram.count() > 0), "the histograms compared must hold requests");
}

#[test]
fn loss_grid_recovers_and_never_leaks() {
    let scale = tiny_scale();
    let cells = loss_grid(&scale, 42, 4, false);
    assert_eq!(cells.len(), scale.node_counts.len() * PROBE_LOSS_LEVELS.len());
    assert!(cells.iter().all(|c| c.result.audit_violations == 0), "audits must be clean");
    assert!(cells.iter().all(|c| c.result.leases_leaked == 0), "sweep must reclaim every orphan");
    // Zero-loss cells never see a fault; lossy cells must see them and
    // the retry loop must recover at least 90% of the hit requests.
    for Point { at: (nodes, loss), result: r } in &cells {
        if *loss == 0.0 {
            assert_eq!(r.fault_hit_requests, 0, "inert cell saw a fault at {nodes} nodes");
            assert_eq!(r.setup_stats.retries, 0);
        } else {
            assert!(r.fault_hit_requests > 0, "no fault landed at loss {loss} ({nodes} nodes)");
            assert!(
                r.recovery_rate() >= 0.9,
                "retry must recover >=90% of fault-hit requests at loss {loss} ({nodes} nodes): {}/{}",
                r.fault_hit_successes,
                r.fault_hit_requests,
            );
        }
    }
    // Confirm losses land too; the leases they strand are released by the
    // successful retry (`leases_orphaned` only counts requests that
    // ultimately fail, which a healthy retry loop avoids — orphan ageing
    // and sweep recovery are covered by the protocol/scenario tests).
    assert!(cells.iter().any(|c| c.result.setup_stats.confirms_lost > 0), "confirm loss must land");
}
