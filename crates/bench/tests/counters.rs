//! Golden cost counters. The paper states cost in counts (probe and
//! state-update messages per minute, Figs. 6(b)/7(b)) and a seeded
//! simulator reproduces counts exactly, so the quick-scale anchors are
//! pinned here as constants, in the shape of
//! `crates/workload/tests/golden.rs`: memo hits, board scans, the
//! selection walk, leases and retries, the tenant sweep, the `fig_scale`
//! rows. Wall-clock is judged by `benchmark/` and nowhere else. A change
//! that moves a number on purpose re-records it here and says which layer
//! moved it.

use acp_bench::chaos::chaos_config;
use acp_bench::experiments::{run_point, Scale};
use acp_bench::{churn_for, fig_tenants, run_scale_point, thread_count, Point, ScaleConfig};
use acp_core::prelude::{AlgorithmKind, OverheadStats, SetupConfig, SetupStats};
use acp_model::prelude::{AuditCounts, LeaseStats};
use acp_simcore::MessageFaultConfig;
use acp_state::ScanStats;
use acp_topology::PathCacheStats;
use acp_workload::{run_scenario, RateSchedule, ScenarioConfig, ScenarioResult, TierSummary};

const SEED: u64 = 42;

/// The Fig. 6 quick anchor: ACP at the anchor rate, seed 42. Its session
/// digest is the one every `docs/lineage/BENCH_n.json` records; a change
/// that moves it changed what ACP composes, and one that moves only the
/// counters changed what composing costs.
#[test]
fn fig6_quick_anchor() {
    let scale = Scale::quick();
    let got = run_point(&scale, SEED, AlgorithmKind::Acp, scale.anchor_rate, scale.stream_nodes);
    assert_eq!(got.session_digest, 0xdcfb_954a_5aa5_ccc7, "got {:#018x}", got.session_digest);
    assert_eq!((got.total_requests, got.total_successes), (214, 212));
    assert_eq!(got.path_cache, PathCacheStats { hits: 21_104, misses: 2_071 });
    assert_eq!(
        got.state_scans,
        ScanStats { nodes_scanned: 1_598, nodes_total: 3_000, links_scanned: 237, links_total: 257 }
    );
    assert_eq!(
        got.overhead,
        OverheadStats {
            probe_messages: 3_078,
            probes_spawned: 3_078,
            probes_dropped: 0,
            probes_returned: 773,
            discovery_lookups: 2_519,
            global_state_queries: 2_519,
            state_update_messages: 481,
            confirmation_messages: 924,
            selection_candidates: 22_470,
            selection_examined: 21_653,
            selection_pruned_static: 0,
            selection_pruned_stale: 0,
            selection_prescreened: 76,
            selection_scored: 21_420,
        }
    );
}

/// The anchor's scenario under two-phase setup with the given transport
/// faults.
fn two_phase(faults: MessageFaultConfig) -> ScenarioResult {
    let scale = Scale::quick();
    let config = ScenarioConfig {
        algorithm: AlgorithmKind::Acp,
        schedule: RateSchedule::constant(scale.anchor_rate),
        setup: Some(SetupConfig { faults, ..SetupConfig::default() }),
        ..scale.base_config(SEED)
    };
    let got = run_scenario(config);
    assert_eq!(got.leases_leaked, 0);
    got
}

/// No transport faults: the lease and ledger bookkeeping alone. Composes
/// what the same run with `setup: None` composes.
#[test]
fn inert_two_phase_anchor() {
    let got = two_phase(MessageFaultConfig::default());
    assert_eq!(got.session_digest, 0xdcfb_954a_5aa5_ccc7, "got {:#018x}", got.session_digest);
    assert_eq!(got.setup_stats, SetupStats { attempts: 214, ..SetupStats::default() });
    assert_eq!(
        got.lease_stats,
        LeaseStats { created: 6_650, expired: 0, released: 31, promoted: 6_619, reused: 262 }
    );
}

/// Faults land, retries fire, and a retry's retained leases show up as
/// `reused` refreshes instead of release/create churn.
#[test]
fn lossy_two_phase_anchor() {
    let got = two_phase(MessageFaultConfig {
        probe_drop: 0.10,
        confirm_loss: 0.05,
        stale_ack: 0.5,
    });
    assert_eq!(got.session_digest, 0xbc10_ea6c_d816_c340, "got {:#018x}", got.session_digest);
    assert_eq!((got.total_requests, got.total_successes), (214, 211));
    assert_eq!((got.fault_hit_requests, got.fault_hit_successes), (159, 157));
    assert_eq!(
        got.setup_stats,
        SetupStats {
            attempts: 225,
            retries: 11,
            probes_lost: 305,
            confirms_lost: 7,
            stale_acks_rejected: 3,
            ..SetupStats::default()
        }
    );
    assert_eq!(
        got.lease_stats,
        LeaseStats { created: 6_187, expired: 0, released: 89, promoted: 6_098, reused: 509 }
    );
}

/// The path memo under node churn: the quick chaos grid's 70-node cell
/// at twice the default fault rates. The lookups are the composers'
/// decisions, 50 275 of them. The misses are the topology layer's
/// (`Overlay::set_node_down`): with every cached tree repaired in place,
/// a failure or recovery forgets only the pairs whose route it changed.
/// When recoveries dropped every memo row whose tree they could not prove
/// unchanged, the same cell (then with background migration rounds,
/// 52 277 lookups) read 45 974 hits and 6 303 misses.
///
/// The same cell's audit passes are the auditor layer's (`AuditCursor`):
/// the first pass is the only full one, and the whole memo is walked
/// only on the passes after a node newly failed. When every pass was the
/// full pass, all 17 walked it, since a node is down at each.
#[test]
fn churned_quick_memo() {
    let got = run_scenario(chaos_config(&Scale::quick(), SEED, 70, 2.0));
    assert_eq!(got.path_cache, PathCacheStats { hits: 46_051, misses: 4_224 });
    assert_eq!(got.audit, AuditCounts { passes: 17, full_passes: 1, memo_walks: 10 });
}

/// The four `fig_tenants` quick points on the worker count
/// `ACP_BENCH_THREADS` asks for. Tier rows are `[gold, silver,
/// best-effort]`, each `[offered, shed, composed, failed, preempted,
/// killed, live at end]`. Re-recorded when the sweep moved from one seed
/// per point to the master seed at every point (one universe per
/// figure): the same code on four different seeds, no layer's cost moved.
#[test]
fn fig_tenants_quick_points() {
    let points = fig_tenants(&Scale::quick(), SEED, thread_count());
    let want: [(u64, u64, [[u64; 7]; 3]); 4] = [
        (
            0x8695_c339_a196_4cf8,
            28,
            [[56, 0, 56, 0, 0, 0, 50], [66, 0, 66, 0, 0, 0, 56], [92, 51, 41, 0, 28, 0, 5]],
        ),
        (
            0xa87c_5681_44b0_0e4b,
            36,
            [[105, 0, 105, 0, 0, 0, 92], [115, 34, 80, 1, 0, 0, 64], [176, 134, 42, 0, 36, 0, 0]],
        ),
        (
            0x2371_bb44_911b_b6a9,
            34,
            [[214, 0, 197, 17, 0, 0, 175], [220, 154, 65, 1, 0, 0, 41], [358, 319, 39, 0, 34, 0, 0]],
        ),
        (
            0xb914_ca81_c599_d649,
            35,
            [[327, 0, 251, 76, 0, 0, 215], [343, 277, 65, 1, 0, 0, 37], [544, 505, 39, 0, 35, 0, 0]],
        ),
    ];
    assert_eq!(points.len(), want.len());
    for (Point { at: load, result: r }, (chaos_digest, preemptions, tiers)) in points.iter().zip(want) {
        assert_eq!(r.tenant_violations + r.audit_violations, 0, "load {load}");
        assert_eq!(r.chaos_digest(), chaos_digest, "load {load}: {:#018x}", r.chaos_digest());
        assert_eq!(r.tenant_preemptions, preemptions, "load {load}");
        let got = r.tenant_tiers.map(|t: TierSummary| {
            [t.offered, t.shed, t.composed, t.failed, t.preempted, t.killed, t.live_end]
        });
        assert_eq!(got, tiers, "load {load}");
    }
}

/// One `fig_scale` quick row: every arrival is processed and committed,
/// the churn holds concurrency at the target, and the selection walk
/// examines `examined` of `candidates` index rows, scoring every one it
/// looks at (nothing is stale, filtered or prescreened here).
fn scale_row(nodes: usize, sessions: usize, components: usize, updates: u64, candidates: u64, examined: u64) {
    let churn = churn_for(sessions);
    let p = run_scale_point(&ScaleConfig { nodes, sessions, churn, seed: SEED });
    let arrivals = (sessions + churn) as u64;
    assert_eq!(
        (p.components, p.committed, p.closed, p.rejected, p.live_at_end, p.update_messages),
        (components, arrivals, churn as u64, 0, sessions, updates)
    );
    assert_eq!(
        p.overhead,
        OverheadStats {
            discovery_lookups: arrivals,
            global_state_queries: arrivals,
            selection_candidates: candidates,
            selection_examined: examined,
            selection_scored: examined,
            ..OverheadStats::default()
        }
    );
}

#[test]
fn fig_scale_2k_by_10k() {
    scale_row(2_000, 10_000, 7_931, 24, 1_091_300, 278_602);
}

#[test]
fn fig_scale_10k_by_50k() {
    scale_row(10_000, 50_000, 39_916, 256, 27_439_674, 5_323_933);
}
