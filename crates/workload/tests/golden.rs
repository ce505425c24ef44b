//! Golden digests: "byte-identical digests are the contract", as
//! constants. `ScenarioConfig::small(16)` under seven feature sets, each
//! pinned on its chaos digest, event and probe counts, and the fault and
//! repair ledgers. A refactor of the fault, repair, tenant or setup paths
//! must leave every row untouched; a change that moves one on purpose
//! re-records it here and says why. The churn rows were re-recorded when
//! background component migration was deleted: they are what the old
//! code computed with migration rounds switched off. The three repair-less
//! rows were re-recorded again when the repair-less failover fork (a 2 s
//! restart without a ticket) folded into the ticketed terminate arm: they
//! are what the old code computed with `RepairPolicy::Terminate`, so the
//! two terminate rows that pinned exactly that went with the fork.
//!
//! Partition faults are off at the default rates
//! (`FaultPlanConfig::default().partition_per_min == 0.0`), so the three
//! partition rows are the only place the cut, its per-link refcount and
//! the heal run under a pinned digest.

use acp_core::SetupConfig;
use acp_simcore::{FaultPlanConfig, MessageFaultConfig};
use acp_workload::{
    run_scenario, ChurnConfig, RepairPolicy, RepairScenarioConfig, ScenarioConfig, ScenarioResult,
    TenantsConfig,
};

/// What one feature set must reproduce.
struct Golden {
    chaos_digest: u64,
    sim_events: u64,
    total_successes: u64,
    probe_messages: u64,
    /// `(fault_events, fault_kinds)` of the generated plan.
    faults: (usize, usize),
    /// `(killed, recovered, lost)`; recovered and lost are the repair
    /// ledger's restored and abandoned tickets.
    sessions: (u64, u64, u64),
    /// `(opened, repaired, cancelled)` tickets.
    repair: (u64, u64, u64),
}

fn check(name: &str, config: ScenarioConfig, want: Golden) -> ScenarioResult {
    let got = run_scenario(config);
    assert_eq!(got.audit_violations, 0, "{name}: audit violations");
    assert_eq!(got.leases_leaked, 0, "{name}: leaked leases");
    assert_eq!(got.tenant_violations, 0, "{name}: tenant violations");
    assert_eq!(
        got.sessions_killed,
        got.sessions_recovered + got.sessions_lost + got.sessions_pending,
        "{name}: every killed session is recovered, lost or still queued"
    );
    assert_eq!(got.chaos_digest(), want.chaos_digest, "{name}: chaos digest {:#018x}", got.chaos_digest());
    assert_eq!(got.sim_events, want.sim_events, "{name}: sim events");
    assert_eq!(got.total_successes, want.total_successes, "{name}: successes");
    assert_eq!(got.overhead.probe_messages, want.probe_messages, "{name}: probe messages");
    assert_eq!((got.fault_events, got.fault_kinds), want.faults, "{name}: fault plan");
    assert_eq!(
        (got.sessions_killed, got.sessions_recovered, got.sessions_lost),
        want.sessions,
        "{name}: killed / recovered / lost"
    );
    assert_eq!(
        (got.repair_opened, got.sessions_repaired, got.repair_cancelled),
        want.repair,
        "{name}: opened / repaired / cancelled"
    );
    got
}

fn base() -> ScenarioConfig {
    ScenarioConfig::small(16)
}

fn partitions() -> ChurnConfig {
    ChurnConfig {
        faults: FaultPlanConfig { partition_per_min: 0.3, ..FaultPlanConfig::default() },
    }
}

fn with(churn: ChurnConfig, policy: Option<RepairPolicy>) -> ScenarioConfig {
    ScenarioConfig {
        churn: Some(churn),
        repair: policy.map(|policy| RepairScenarioConfig { policy, ..RepairScenarioConfig::default() }),
        ..base()
    }
}

#[test]
fn plain() {
    check(
        "plain",
        base(),
        Golden {
            chaos_digest: 0xaa21_43f2_2340_fb67,
            sim_events: 442,
            total_successes: 210,
            probe_messages: 3_606,
            faults: (0, 0),
            sessions: (0, 0, 0),
            repair: (0, 0, 0),
        },
    );
}

#[test]
fn churn() {
    check(
        "churn",
        with(ChurnConfig::default(), None),
        Golden {
            chaos_digest: 0x718b_9989_daa4_b0bd,
            sim_events: 594,
            total_successes: 210,
            probe_messages: 7_504,
            faults: (57, 6),
            sessions: (252, 249, 3),
            repair: (252, 0, 0),
        },
    );
}

#[test]
fn churn_scaled() {
    check(
        "churn x2",
        with(ChurnConfig::default().scaled(2.0), None),
        Golden {
            chaos_digest: 0xb08c_cfff_daff_8a30,
            sim_events: 702,
            total_successes: 210,
            probe_messages: 6_727,
            faults: (118, 6),
            sessions: (266, 262, 4),
            repair: (266, 0, 0),
        },
    );
}

#[test]
fn churn_with_partitions() {
    check(
        "partitions",
        with(partitions(), None),
        Golden {
            chaos_digest: 0x7795_d751_7b87_de0a,
            sim_events: 624,
            total_successes: 205,
            probe_messages: 9_146,
            faults: (63, 8),
            sessions: (373, 357, 16),
            repair: (373, 0, 0),
        },
    );
}

#[test]
fn churn_repair() {
    check(
        "churn + repair",
        with(ChurnConfig::default(), Some(RepairPolicy::Repair)),
        Golden {
            chaos_digest: 0xe5dd_5ea2_1f55_545f,
            sim_events: 578,
            total_successes: 210,
            probe_messages: 6_834,
            faults: (57, 6),
            sessions: (166, 166, 0),
            repair: (240, 74, 0),
        },
    );
}

#[test]
fn partitions_repair() {
    check(
        "partitions + repair",
        with(partitions(), Some(RepairPolicy::Repair)),
        Golden {
            chaos_digest: 0x3093_0244_d7b6_fd1d,
            sim_events: 700,
            total_successes: 205,
            probe_messages: 8_567,
            faults: (63, 8),
            sessions: (252, 244, 8),
            repair: (332, 79, 1),
        },
    );
}

/// Everything at once: doubled fault rates with partitions, in-place
/// repair, the tenant mix with preemption, and lossy two-phase setup.
#[test]
fn full_stack() {
    let config = ScenarioConfig {
        tenants: Some(TenantsConfig::standard_mix()),
        setup: Some(SetupConfig {
            faults: MessageFaultConfig {
                probe_drop: 0.05,
                confirm_loss: 0.025,
                stale_ack: 0.5,
            },
            ..SetupConfig::default()
        }),
        ..with(partitions().scaled(2.0), Some(RepairPolicy::Repair))
    };
    let got = check(
        "full stack",
        config,
        Golden {
            chaos_digest: 0xde28_5510_90af_7916,
            sim_events: 1_079,
            total_successes: 202,
            probe_messages: 12_892,
            faults: (130, 8),
            sessions: (393, 375, 18),
            repair: (488, 95, 0),
        },
    );
    // The one row with two-phase setup: arrivals, failover recomposes and
    // repair splices all add their probing rounds to one setup ledger.
    assert_eq!((got.setup_stats.attempts, got.setup_stats.retries), (1_100, 103), "full stack: setup rounds / retries");
}
