//! `fig_repair`: live session repair vs terminate-and-restart under churn.
//!
//! The paper's evaluation recomposes fault-struck sessions from scratch;
//! this sweep measures what make-before-break suffix recomposition buys
//! over that baseline. Both arms replay the *same* seeded fault plan at
//! each churn level — the only difference is the
//! [`RepairPolicy`] — so per-level
//! comparisons are apples-to-apples.
//!
//! Reported per cell: fault incidents (tickets opened), how many
//! sessions were healed in place vs restarted vs abandoned, the
//! survival rate over settled incidents, p50/p99 MTTR (fault to settle,
//! detection latency included), sessions killed outright, and the
//! auditor verdict — which must be zero violations with zero lease
//! leaks everywhere.
//!
//! The expected shape: the repair arm keeps path sessions alive (killed
//! drops sharply in every universe), survival leads the restart baseline
//! at every non-zero churn level over replicate seeds though not in
//! every one (`tests/claims.rs`), and MTTR stays within the detection +
//! probing envelope instead of paying a full re-composition.

use acp_workload::{RateSchedule, RepairPolicy, RepairScenarioConfig, ScenarioConfig};

use crate::chaos::chaos_config;
use crate::experiments::{sweep, Point, Scale};
use crate::report::Table;

/// Churn multipliers of the sweep, including a fault-free anchor point
/// (both arms are trivially equivalent there — survival 1.0, no MTTR).
pub const REPAIR_CHURN_LEVELS: [f64; 4] = [0.0, 0.5, 1.0, 2.0];

/// The scenario of one sweep cell: the chaos config at `churn` times
/// the default fault rates with the given repair arm attached. Cells
/// run three times the scale's figure horizon — survival and MTTR are
/// tail statistics, and a handful of incidents per cell would let one
/// unlucky session dominate the arm comparison.
fn repair_config(
    scale: &Scale,
    seed: u64,
    churn: f64,
    policy: RepairPolicy,
) -> ScenarioConfig {
    let mut config = chaos_config(scale, seed, scale.stream_nodes, churn);
    config.schedule = RateSchedule::constant(scale.anchor_rate);
    config.duration = acp_simcore::SimDuration::from_secs_f64(scale.duration.as_secs_f64() * 3.0);
    config.repair = Some(RepairScenarioConfig { policy, ..RepairScenarioConfig::default() });
    config
}

/// Runs the sweep — every [`REPAIR_CHURN_LEVELS`] multiplier under both
/// arms — and returns cells churn-major (repair arm first), each at its
/// `(churn, arm)`. Every cell builds from the master seed, so both arms
/// of a level replay the identical fault plan.
pub fn fig_repair(scale: &Scale, seed: u64, threads: usize) -> Vec<Point<(f64, RepairPolicy)>> {
    let arms = [RepairPolicy::Repair, RepairPolicy::Terminate];
    sweep(threads, &REPAIR_CHURN_LEVELS, &arms, |churn, policy| repair_config(scale, seed, churn, policy))
}

/// Renders the sweep as a report table (one row per cell).
pub fn repair_table(scale: &Scale, cells: &[Point<(f64, RepairPolicy)>]) -> Table {
    let mut table = Table::new(
        format!("Live repair vs terminate-restart ({} scale): survival and MTTR vs churn", scale.name),
        vec![
            "churn",
            "arm",
            "success %",
            "incidents",
            "repaired",
            "restored",
            "abandoned",
            "killed",
            "survival %",
            "mttr p50 s",
            "mttr p99 s",
            "audit violations",
        ],
    );
    for Point { at: (churn, policy), result: r } in cells {
        let arm = match policy {
            RepairPolicy::Repair => "repair",
            RepairPolicy::Terminate => "terminate",
        };
        table.push_row(vec![
            format!("{churn:.1}x"),
            arm.to_string(),
            format!("{:.1}", r.overall_success * 100.0),
            format!("{}", r.repair_opened),
            format!("{}", r.sessions_repaired),
            format!("{}", r.sessions_recovered),
            format!("{}", r.sessions_lost),
            format!("{}", r.sessions_killed),
            format!("{:.1}", r.survival() * 100.0),
            format!("{:.2}", r.mttr_p50),
            format!("{:.2}", r.mttr_p99),
            format!("{}", r.audit_violations),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_repair_beats_terminate_at_quick_scale() {
        let scale = Scale::quick();
        let cells = fig_repair(&scale, 42, 2);
        assert_eq!(cells.len(), REPAIR_CHURN_LEVELS.len() * 2);
        for pair in cells.chunks(2) {
            let (churn, arm) = pair[0].at;
            assert_eq!((arm, pair[1].at), (RepairPolicy::Repair, (churn, RepairPolicy::Terminate)));
            let (repair, terminate) = (&pair[0].result, &pair[1].result);
            assert_eq!(repair.audit_violations, 0, "repair arm audits at {churn:.1}x");
            assert_eq!(terminate.audit_violations, 0);
            assert_eq!(repair.leases_leaked, 0, "make-before-break must not leak");
            assert_eq!(terminate.leases_leaked, 0);
            if churn == 0.0 {
                assert_eq!(repair.repair_opened, 0, "no faults, no incidents");
                assert_eq!(terminate.repair_opened, 0);
                continue;
            }
            assert!(repair.repair_opened > 0, "churn must break sessions at {churn:.1}x");
            assert!(repair.sessions_repaired > 0, "splices must land at {churn:.1}x");
            assert!(
                repair.survival() >= terminate.survival(),
                "repair must not lose more sessions at {churn:.1}x: {:.3} vs {:.3}",
                repair.survival(),
                terminate.survival()
            );
            assert!(
                repair.sessions_killed < terminate.sessions_killed,
                "repair must keep path sessions alive at {churn:.1}x: {} vs {} killed",
                repair.sessions_killed,
                terminate.sessions_killed
            );
        }
    }
}
