//! The cross-product fuzz: random subsets of the scenario's features ×
//! sizes drawn around the edges. Every drawn configuration either fails
//! [`ScenarioConfig::validate`] or runs to the end without a panic, with
//! every conservation law intact.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use acp_core::{AlgorithmKind, PiControllerConfig, PreemptionConfig, SetupConfig, TunerConfig};
use acp_simcore::{DetectionLatency, FaultPlanConfig, MessageFaultConfig, SimDuration, SimTime};
use acp_workload::{
    run_scenario, ChurnConfig, RateSchedule, RepairPolicy, RepairScenarioConfig, ScenarioConfig,
    TenantPreemptionConfig, TenantsConfig,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn pick<T: Clone>(rng: &mut StdRng, choices: &[T]) -> T {
    choices[rng.gen_range(0..choices.len())].clone()
}

/// Inverts one of the eleven `(lo, hi)` ranges the system and request
/// builders sample from — strictly, whatever was drawn for it.
fn invert_a_range(rng: &mut StdRng, config: &mut ScenarioConfig) {
    let (system, requests) = (&mut config.system, &mut config.requests);
    let ranges = [
        &mut system.node_cpu,
        &mut system.node_memory_mb,
        &mut system.component_max_rate_kbps,
        &mut requests.per_hop_delay_ms,
        &mut requests.max_loss,
        &mut requests.base_cpu,
        &mut requests.base_memory_mb,
        &mut requests.bandwidth_kbps,
        &mut requests.stream_rate_kbps,
        &mut requests.session_minutes,
    ];
    match rng.gen_range(0..=ranges.len()) {
        i if i < ranges.len() => *ranges[i] = (ranges[i].1 + 1.0, ranges[i].0),
        _ => {
            let (lo, hi) = system.components_per_node;
            system.components_per_node = (hi + 1, lo);
        }
    }
}

/// One point of the cross-product, and whether one of the preconditions
/// `validate` exists for was broken on purpose. Half the systems are
/// degenerate (2–6 stream nodes, where most functions have no candidate
/// at all), half are big enough for every feature to bite; all run ≤ 5
/// simulated minutes with the maintenance periods shortened to fire
/// inside them.
fn draw_config(rng: &mut StdRng) -> (ScenarioConfig, bool) {
    let stream_nodes = if rng.gen_bool(0.5) { rng.gen_range(2..=6) } else { rng.gen_range(16..=40) };
    let minutes = SimTime::from_minutes;
    let rate = rng.gen_range(60.0..240.0);
    let mut config = ScenarioConfig {
        seed: rng.gen(),
        ip_nodes: 120,
        stream_nodes,
        overlay_neighbors: pick(rng, &[1, 2, 4, stream_nodes, stream_nodes + 3]),
        functions: pick(rng, &[12, 16, 20]),
        duration: SimDuration::from_minutes(pick(rng, &[0, 1, 3, 5])),
        sampling_period: SimDuration::from_minutes(1),
        local_refresh: SimDuration::from_secs(10),
        aggregation_interval: SimDuration::from_minutes(2),
        schedule: pick(
            rng,
            &[
                RateSchedule::constant(rate),
                RateSchedule::constant(rate),
                RateSchedule::constant(0.0),
                RateSchedule::steps(vec![(SimTime::ZERO, 0.0), (minutes(1), rate)]),
                RateSchedule::steps(vec![(SimTime::ZERO, rate), (minutes(2), 0.0), (minutes(3), rate)]),
            ],
        ),
        algorithm: if rng.gen_bool(0.4) { AlgorithmKind::Acp } else { pick(rng, &AlgorithmKind::ALL) },
        replay_capacity: pick(rng, &[0, 60]),
        ..ScenarioConfig::default()
    };
    config.system.components_per_node = pick(rng, &[(0, 0), (1, 2), (2, 3), (3, 5)]);
    // Short sessions, so teardown interleaves with everything else.
    config.requests.session_minutes = pick(rng, &[(0.5, 2.0), (1.0, 1.0), (5.0, 15.0)]);
    config.probing.max_live_probes = pick(rng, &[0, 1, config.probing.max_live_probes]);
    config.probing.quota_override = pick(rng, &[None, None, Some(0), Some(2)]);
    config.optimal.max_expansions = pick(rng, &[0, config.optimal.max_expansions]);

    // Zero delays are an edge of their own.
    let delay = SimDuration::from_secs(pick(rng, &[0, 2]));
    if rng.gen_bool(0.7) {
        let faults = FaultPlanConfig {
            partition_per_min: pick(rng, &[0.0, 0.5]),
            mean_node_downtime: SimDuration::from_secs(40),
            mean_link_downtime: SimDuration::from_secs(30),
            mean_partition_duration: SimDuration::from_secs(30),
            ..FaultPlanConfig::default()
        };
        config.churn = Some(ChurnConfig {
            faults: faults.scaled(rng.gen_range(1.0..6.0)),
            failover_delay: delay,
            rebalance_interval: pick(rng, &[None, Some(SimDuration::from_minutes(1))]),
        });
    }
    if rng.gen_bool(0.5) {
        config.repair = Some(RepairScenarioConfig {
            detection: DetectionLatency::Fixed(delay),
            retry_delay: delay,
            retry_budget: rng.gen_range(0..=3),
            policy: pick(rng, &[RepairPolicy::Repair, RepairPolicy::Terminate]),
        });
    }
    if rng.gen_bool(0.4) {
        config.setup = Some(SetupConfig {
            faults: MessageFaultConfig {
                probe_drop: 0.1,
                confirm_loss: 0.05,
                stale_ack: 0.5,
                ..MessageFaultConfig::default()
            },
            ..SetupConfig::default()
        });
    }
    if rng.gen_bool(0.4) {
        let mut tenants = TenantsConfig::standard_mix();
        // Act on any congestion, consider any loaded node — or never.
        tenants.preemption = pick(
            rng,
            &[
                None,
                Some(TenantPreemptionConfig {
                    interval: SimDuration::from_secs(30),
                    congestion_threshold: 0.0,
                    policy: PreemptionConfig { min_node_utilization: 0.05, ..PreemptionConfig::default() },
                }),
            ],
        );
        config.tenants = Some(tenants);
    }
    if rng.gen_bool(0.3) {
        config.tuner = Some(TunerConfig::default());
    }
    if rng.gen_bool(0.15) {
        config.controller = Some(PiControllerConfig::default());
    }
    // Now and then, one of the preconditions `validate` exists for.
    let edge = rng.gen_range(0..24);
    match edge {
        0 => config.local_refresh = SimDuration::ZERO,
        1 => config.sampling_period = SimDuration::ZERO,
        2 => config.stream_nodes = 1,
        3 => invert_a_range(rng, &mut config),
        _ => {}
    }
    (config, edge <= 3)
}

/// Draws one configuration and, unless `validate` refuses it, runs it.
fn check(case_seed: u64) {
    let (config, broken) = draw_config(&mut StdRng::seed_from_u64(case_seed));
    if config.validate().is_err() {
        return;
    }
    // compat-proptest does not shrink: name the failing configuration.
    let blame = |what: &str| format!("{what}\ncase seed {case_seed}: {config:#?}");
    // A broken precondition is refused with a typed error, never run
    // into the `gen_range` (or the endless re-scheduling) behind it.
    assert!(!broken, "{}", blame("validate let a broken precondition through"));
    let r = match catch_unwind(AssertUnwindSafe(|| run_scenario(config.clone()))) {
        Ok(result) => result,
        Err(panic) => {
            eprintln!("{}", blame("run_scenario panicked"));
            resume_unwind(panic);
        }
    };
    assert_eq!(r.audit_violations, 0, "{}", blame("audit violations"));
    assert_eq!(r.leases_leaked, 0, "{}", blame("leaked leases"));
    assert_eq!(r.tenant_violations, 0, "{}", blame("tenant violations"));
    // Orphans whose sweep falls past the horizon are still queued.
    assert_eq!(
        r.sessions_killed,
        r.sessions_recovered + r.sessions_lost + r.sessions_pending,
        "{}",
        blame("killed != recovered + lost + pending")
    );
    // The auditor reconciles the ledger exactly, open tickets included;
    // from outside, the tickets still open are the slack.
    let closed = r.sessions_repaired + r.sessions_restored + r.repair_abandoned + r.repair_cancelled;
    assert!(r.repair_opened >= closed, "{}", blame(&format!("opened {} < settled {closed}", r.repair_opened)));
    if config.repair.is_none() {
        assert_eq!(r.repair_opened, 0, "{}", blame("tickets without a repair config"));
    }
    // A single-phase lease never outlives the compose that placed it.
    if config.setup.is_none() && config.repair.is_none() {
        let settled = r.lease_stats.expired == 0 && r.leases_live_end == 0 && r.lease_stats.reconciles(0);
        assert!(settled, "{}", blame(&format!("single-phase lease outlived its compose: {:?}", r.lease_stats)));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn every_feature_subset_at_every_edge_size_runs_clean(case_seed in any::<u64>()) {
        check(case_seed);
    }
}

/// Guards the fuzz against a vacuous draw: most cases must be valid (and
/// so run), and some must be refused.
#[test]
fn the_draw_reaches_both_outcomes() {
    let mut rng = StdRng::seed_from_u64(7);
    let (mut valid, mut refused) = (0, 0);
    for _ in 0..200 {
        match draw_config(&mut rng).0.validate() {
            Ok(()) => valid += 1,
            Err(_) => refused += 1,
        }
    }
    assert!(valid >= 120 && refused >= 10, "{valid} valid, {refused} refused");
}
