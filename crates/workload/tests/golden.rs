//! Golden digests: "byte-identical digests are the contract", as
//! constants. `ScenarioConfig::small(16)` under nine feature sets, each
//! pinned on its chaos digest, event and probe counts, and the fault and
//! repair ledgers. A refactor of the fault, repair, tenant or setup paths
//! must leave every row untouched; a change that moves one on purpose
//! re-records it here and says why.
//!
//! Partition faults are off at the default rates
//! (`FaultPlanConfig::default().partition_per_min == 0.0`), so the four
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
    /// `(killed, recovered, lost)`.
    sessions: (u64, u64, u64),
    /// `(opened, repaired, restored, abandoned, cancelled)`.
    repair: (u64, u64, u64, u64, u64),
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
        (
            got.repair_opened,
            got.sessions_repaired,
            got.sessions_restored,
            got.repair_abandoned,
            got.repair_cancelled
        ),
        want.repair,
        "{name}: opened / repaired / restored / abandoned / cancelled"
    );
    got
}

fn base() -> ScenarioConfig {
    ScenarioConfig::small(16)
}

fn partitions() -> ChurnConfig {
    ChurnConfig {
        faults: FaultPlanConfig { partition_per_min: 0.3, ..FaultPlanConfig::default() },
        ..ChurnConfig::default()
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
            repair: (0, 0, 0, 0, 0),
        },
    );
}

#[test]
fn churn() {
    check(
        "churn",
        with(ChurnConfig::default(), None),
        Golden {
            chaos_digest: 0x493b_1b09_3ffb_db2f,
            sim_events: 599,
            total_successes: 210,
            probe_messages: 7_464,
            faults: (57, 6),
            sessions: (252, 251, 1),
            repair: (0, 0, 0, 0, 0),
        },
    );
}

#[test]
fn churn_scaled() {
    check(
        "churn x2",
        with(ChurnConfig::default().scaled(2.0), None),
        Golden {
            chaos_digest: 0x14fb_c927_f8e0_62bd,
            sim_events: 702,
            total_successes: 208,
            probe_messages: 6_399,
            faults: (118, 6),
            sessions: (246, 245, 1),
            repair: (0, 0, 0, 0, 0),
        },
    );
}

#[test]
fn churn_with_partitions() {
    check(
        "partitions",
        with(partitions(), None),
        Golden {
            chaos_digest: 0x7801_059a_270f_0cc9,
            sim_events: 626,
            total_successes: 206,
            probe_messages: 9_093,
            faults: (63, 8),
            sessions: (365, 352, 13),
            repair: (0, 0, 0, 0, 0),
        },
    );
}

#[test]
fn churn_repair() {
    check(
        "churn + repair",
        with(ChurnConfig::default(), Some(RepairPolicy::Repair)),
        Golden {
            chaos_digest: 0x9af8_9a76_8d49_78c8,
            sim_events: 587,
            total_successes: 210,
            probe_messages: 6_903,
            faults: (57, 6),
            sessions: (170, 170, 0),
            repair: (247, 77, 170, 0, 0),
        },
    );
}

#[test]
fn churn_terminate() {
    check(
        "churn + terminate tickets",
        with(ChurnConfig::default(), Some(RepairPolicy::Terminate)),
        Golden {
            chaos_digest: 0xe5b2_cb0a_5252_a5dc,
            sim_events: 601,
            total_successes: 210,
            probe_messages: 7_720,
            faults: (57, 6),
            sessions: (264, 263, 1),
            repair: (264, 0, 263, 1, 0),
        },
    );
}

#[test]
fn partitions_repair() {
    check(
        "partitions + repair",
        with(partitions(), Some(RepairPolicy::Repair)),
        Golden {
            chaos_digest: 0xf235_9aaa_2ad0_9cc7,
            sim_events: 719,
            total_successes: 205,
            probe_messages: 8_882,
            faults: (63, 8),
            sessions: (274, 260, 14),
            repair: (352, 78, 260, 14, 0),
        },
    );
}

#[test]
fn partitions_terminate() {
    check(
        "partitions + terminate tickets",
        with(partitions(), Some(RepairPolicy::Terminate)),
        Golden {
            chaos_digest: 0x0dbe_8f01_9030_c167,
            sim_events: 624,
            total_successes: 205,
            probe_messages: 9_262,
            faults: (63, 8),
            sessions: (372, 364, 8),
            repair: (372, 0, 364, 8, 0),
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
                ..MessageFaultConfig::default()
            },
            ..SetupConfig::default()
        }),
        ..with(partitions().scaled(2.0), Some(RepairPolicy::Repair))
    };
    let got = check(
        "full stack",
        config,
        Golden {
            chaos_digest: 0x60b7_c4c8_f31d_e1d5,
            sim_events: 1_077,
            total_successes: 201,
            probe_messages: 13_074,
            faults: (130, 8),
            sessions: (429, 409, 20),
            repair: (524, 95, 409, 20, 0),
        },
    );
    // The one row with two-phase setup: arrivals, failover recomposes and
    // repair splices all add their probing rounds to one setup ledger.
    assert_eq!((got.setup_stats.attempts, got.setup_stats.retries), (1_128, 107), "full stack: setup rounds / retries");
}
