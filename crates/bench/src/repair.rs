//! `fig_repair`: live session repair vs terminate-and-restart under churn.
//!
//! The paper's evaluation recomposes fault-struck sessions from scratch;
//! this sweep measures what make-before-break suffix recomposition buys
//! over that baseline. Both arms replay the *same* seeded fault plan at
//! each churn level — the only difference is the
//! [`RepairPolicy`](acp_workload::RepairPolicy) — so per-level
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
//! drops sharply), survival dominates the restart baseline at every
//! non-zero churn level, and MTTR stays within the detection + probing
//! envelope instead of paying a full re-composition.

use acp_workload::{RateSchedule, RepairPolicy, RepairScenarioConfig, ScenarioConfig, ScenarioResult};

use crate::chaos::chaos_config;
use crate::experiments::Scale;
use crate::parallel::grid;
use crate::report::Table;

/// Churn multipliers of the sweep, including a fault-free anchor point
/// (both arms are trivially equivalent there — survival 1.0, no MTTR).
pub const REPAIR_CHURN_LEVELS: [f64; 4] = [0.0, 0.5, 1.0, 2.0];

/// One sweep cell: a single churn scenario under one repair arm.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairCell {
    /// Fault-rate multiplier applied to the default churn config.
    pub churn: f64,
    /// The arm this cell ran (splice vs terminate-restart).
    pub policy: RepairPolicy,
    /// Composition success rate over the run.
    pub success: f64,
    /// Repair tickets opened (fault incidents on live sessions).
    pub opened: u64,
    /// Repair/restart attempts across all tickets.
    pub attempts: u64,
    /// Sessions healed by an in-place segment splice.
    pub repaired: u64,
    /// Sessions recovered by a full restart.
    pub restored: u64,
    /// Tickets abandoned (budget exhausted / restart failed).
    pub abandoned: u64,
    /// Tickets cancelled by unrelated session closes.
    pub cancelled: u64,
    /// Sessions killed outright at fault time.
    pub killed: u64,
    /// Median MTTR in seconds (0 with no recoveries).
    pub mttr_p50: f64,
    /// 99th-percentile MTTR in seconds (0 with no recoveries).
    pub mttr_p99: f64,
    /// Audit violations across every audit pass (must be 0).
    pub audit_violations: u64,
    /// Leases that outlived the post-horizon sweep (must be 0).
    pub leases_leaked: u64,
    /// Combined session + audit + fault-plan digest of the run.
    pub chaos_digest: u64,
}

impl RepairCell {
    fn from_result(churn: f64, policy: RepairPolicy, result: &ScenarioResult) -> Self {
        RepairCell {
            churn,
            policy,
            success: result.overall_success,
            opened: result.repair_opened,
            attempts: result.repair_attempts,
            repaired: result.sessions_repaired,
            restored: result.sessions_restored,
            abandoned: result.repair_abandoned,
            cancelled: result.repair_cancelled,
            killed: result.sessions_killed,
            mttr_p50: result.mttr_p50,
            mttr_p99: result.mttr_p99,
            audit_violations: result.audit_violations,
            leases_leaked: result.leases_leaked,
            chaos_digest: result.chaos_digest(),
        }
    }

    /// Share of decisively settled incidents the session survived:
    /// `(repaired + restored) / (repaired + restored + abandoned)`.
    /// Cancelled tickets (the session closed naturally while waiting)
    /// are excluded; 1.0 when nothing settled decisively.
    pub fn survival(&self) -> f64 {
        let denom = self.repaired + self.restored + self.abandoned;
        if denom == 0 {
            1.0
        } else {
            (self.repaired + self.restored) as f64 / denom as f64
        }
    }

    /// Share of recoveries that preserved the running session (in-place
    /// splice rather than restart); 0 when nothing recovered.
    pub fn continuity(&self) -> f64 {
        let denom = self.repaired + self.restored;
        if denom == 0 {
            0.0
        } else {
            self.repaired as f64 / denom as f64
        }
    }
}

/// The scenario of one sweep cell: the chaos config at `churn` times
/// the default fault rates with the given repair arm attached. Cells
/// run three times the scale's figure horizon — survival and MTTR are
/// tail statistics, and a handful of incidents per cell would let one
/// unlucky session dominate the arm comparison.
pub fn repair_config(
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
/// arms — and returns cells churn-major (repair arm first). Every cell
/// builds from the master seed, so both arms of a level replay the
/// identical fault plan.
pub fn fig_repair(scale: &Scale, seed: u64, threads: usize) -> Vec<RepairCell> {
    let arms = [RepairPolicy::Repair, RepairPolicy::Terminate];
    let cells = grid(threads, &REPAIR_CHURN_LEVELS, &arms, |&churn, &policy| {
        let result = acp_workload::run_scenario(repair_config(scale, seed, churn, policy));
        RepairCell::from_result(churn, policy, &result)
    });
    cells.into_iter().flatten().collect()
}

/// Renders the sweep as a report table (one row per cell).
pub fn repair_table(scale: &Scale, cells: &[RepairCell]) -> Table {
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
    for c in cells {
        let arm = match c.policy {
            RepairPolicy::Repair => "repair",
            RepairPolicy::Terminate => "terminate",
        };
        table.push_row(vec![
            format!("{:.1}x", c.churn),
            arm.to_string(),
            format!("{:.1}", c.success * 100.0),
            format!("{}", c.opened),
            format!("{}", c.repaired),
            format!("{}", c.restored),
            format!("{}", c.abandoned),
            format!("{}", c.killed),
            format!("{:.1}", c.survival() * 100.0),
            format!("{:.2}", c.mttr_p50),
            format!("{:.2}", c.mttr_p99),
            format!("{}", c.audit_violations),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn survival_and_continuity_bounds() {
        let cell = RepairCell {
            churn: 1.0,
            policy: RepairPolicy::Repair,
            success: 0.9,
            opened: 10,
            attempts: 12,
            repaired: 6,
            restored: 2,
            abandoned: 1,
            cancelled: 1,
            killed: 3,
            mttr_p50: 1.5,
            mttr_p99: 4.0,
            audit_violations: 0,
            leases_leaked: 0,
            chaos_digest: 7,
        };
        assert!((cell.survival() - 8.0 / 9.0).abs() < 1e-12);
        assert!((cell.continuity() - 6.0 / 8.0).abs() < 1e-12);
        let empty = RepairCell { opened: 0, repaired: 0, restored: 0, abandoned: 0, ..cell };
        assert_eq!(empty.survival(), 1.0);
        assert_eq!(empty.continuity(), 0.0);
    }

    #[test]
    fn sweep_repair_beats_terminate_at_quick_scale() {
        let scale = Scale::quick();
        let cells = fig_repair(&scale, 42, 2);
        assert_eq!(cells.len(), REPAIR_CHURN_LEVELS.len() * 2);
        for pair in cells.chunks(2) {
            let (repair, terminate) = (&pair[0], &pair[1]);
            assert_eq!(repair.policy, RepairPolicy::Repair);
            assert_eq!(terminate.policy, RepairPolicy::Terminate);
            assert_eq!(repair.churn, terminate.churn);
            assert_eq!(repair.audit_violations, 0, "repair arm audits at {:.1}x", repair.churn);
            assert_eq!(terminate.audit_violations, 0);
            assert_eq!(repair.leases_leaked, 0, "make-before-break must not leak");
            assert_eq!(terminate.leases_leaked, 0);
            if repair.churn == 0.0 {
                assert_eq!(repair.opened, 0, "no faults, no incidents");
                assert_eq!(terminate.opened, 0);
                continue;
            }
            assert!(repair.opened > 0, "churn must break sessions at {:.1}x", repair.churn);
            assert!(repair.repaired > 0, "splices must land at {:.1}x", repair.churn);
            assert!(
                repair.survival() >= terminate.survival(),
                "repair must not lose more sessions at {:.1}x: {:.3} vs {:.3}",
                repair.churn,
                repair.survival(),
                terminate.survival()
            );
            assert!(
                repair.killed < terminate.killed,
                "repair must keep path sessions alive at {:.1}x: {} vs {} killed",
                repair.churn,
                repair.killed,
                terminate.killed
            );
        }
    }
}
