//! Chaos-soak grid: composition under scheduled fault injection.
//!
//! The paper evaluates composition on a healthy overlay; this module
//! stresses the same algorithms while nodes fail-stop, virtual links
//! die or degrade, and components crash on the schedule of a seeded
//! [`FaultPlan`](acp_simcore::FaultPlan). Each grid cell is one
//! scenario at a `(stream nodes × churn multiplier)` point built from
//! the master seed and run on the deterministic parallel driver: the
//! whole grid is a pure function of `(scale, seed)` and byte-identical
//! at any worker-thread count.
//!
//! Reported per cell: composition success under churn, how many
//! sessions faults killed, how many of those the failover sweep
//! recovered, lost, or still had queued at the horizon, mean
//! fault-to-recomposition latency, and — the point of the
//! exercise — the [`SystemAuditor`](acp_model::audit::SystemAuditor)
//! violation count, which must be zero for every cell.

use acp_core::SetupConfig;
use acp_simcore::{MessageFaultConfig, SimDuration};
use acp_workload::{ChurnConfig, RateSchedule, ScenarioConfig, ScenarioResult};

use crate::experiments::Scale;
use crate::parallel::grid;
use crate::report::Table;

/// One chaos-grid cell: measurements of a single churn scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosCell {
    /// Stream-node count of the overlay.
    pub nodes: usize,
    /// Fault-rate multiplier applied to [`ChurnConfig::default`].
    pub churn: f64,
    /// Composition success rate over the run.
    pub success: f64,
    /// Faults in the generated plan.
    pub fault_events: usize,
    /// Distinct fault classes the plan contains.
    pub fault_kinds: usize,
    /// Sessions terminated by faults.
    pub killed: u64,
    /// Fault-terminated sessions recomposed by the failover sweep.
    pub recovered: u64,
    /// Fault-terminated sessions the sweep gave up on.
    pub lost: u64,
    /// Fault-terminated sessions whose sweep fell past the horizon
    /// (`killed == recovered + lost + pending`).
    pub pending: u64,
    /// Mean fault-to-recomposition latency (seconds; 0 when nothing
    /// recovered).
    pub recovery_mean_s: f64,
    /// Background migrations performed by the rebalancer.
    pub migrations: u64,
    /// Audit violations across every audit pass (must be 0).
    pub audit_violations: u64,
    /// Combined session + audit + fault-plan digest of the run.
    pub chaos_digest: u64,
    /// Simulation events handled over the run.
    pub sim_events: u64,
    /// Reservation leases that survived the post-horizon reclamation
    /// sweep (must be 0: a leak means the sweep failed to recover an
    /// orphan).
    pub leases_leaked: u64,
    /// Sessions preempted by the tenant pressure controller (0 on
    /// tenant-less cells).
    pub preemptions: u64,
    /// Tenant-isolation audit violations (must be 0; always 0 on
    /// tenant-less cells).
    pub tenant_violations: u64,
}

impl ChaosCell {
    fn from_result(nodes: usize, churn: f64, result: &ScenarioResult) -> Self {
        ChaosCell {
            nodes,
            churn,
            success: result.overall_success,
            fault_events: result.fault_events,
            fault_kinds: result.fault_kinds,
            killed: result.sessions_killed,
            recovered: result.sessions_recovered,
            lost: result.sessions_lost,
            pending: result.sessions_pending,
            recovery_mean_s: result.recovery_latency.mean().unwrap_or(0.0),
            migrations: result.migrations,
            audit_violations: result.audit_violations,
            chaos_digest: result.chaos_digest(),
            sim_events: result.sim_events,
            leases_leaked: result.leases_leaked,
            preemptions: result.tenant_preemptions,
            tenant_violations: result.tenant_violations,
        }
    }
}

/// Churn multipliers of the grid's fault-rate axis.
pub const CHURN_LEVELS: [f64; 3] = [0.5, 1.0, 2.0];

/// The scenario of one chaos-grid cell (also the soak configuration
/// when given a longer duration): the scale's base config at the
/// anchor request rate with churn enabled at `churn` times the default
/// fault rates.
pub fn chaos_config(scale: &Scale, seed: u64, nodes: usize, churn: f64) -> ScenarioConfig {
    let mut config = scale.base_config(seed);
    config.stream_nodes = nodes;
    config.schedule = RateSchedule::constant(scale.anchor_rate);
    config.churn = Some(ChurnConfig::default().scaled(churn));
    config
}

/// Runs the chaos grid — every `scale.node_counts` overlay size at
/// every [`CHURN_LEVELS`] fault-rate multiplier — and returns the cells
/// in grid order (node-major). `tenanted` attaches the standard tenant
/// mix to every cell: admission shedding, best-effort preemption and
/// the tenant-isolation audit pass all run under the same churn.
pub fn chaos_grid(scale: &Scale, seed: u64, threads: usize, tenanted: bool) -> Vec<ChaosCell> {
    let cells = grid(threads, &scale.node_counts, &CHURN_LEVELS, |&nodes, &churn| {
        let mut config = chaos_config(scale, seed, nodes, churn);
        config.tenants = tenanted.then(crate::tenants::sweep_mix);
        ChaosCell::from_result(nodes, churn, &acp_workload::run_scenario(config))
    });
    cells.into_iter().flatten().collect()
}

/// Renders the grid as a report table (one row per cell).
pub fn chaos_table(scale: &Scale, cells: &[ChaosCell]) -> Table {
    let mut table = Table::new(
        format!("Chaos soak grid ({} scale): success and recovery under churn", scale.name),
        vec![
            "nodes",
            "churn",
            "success %",
            "faults",
            "killed",
            "recovered",
            "lost",
            "pending",
            "recovery s",
            "migrations",
            "audit violations",
        ],
    );
    for c in cells {
        table.push_row(vec![
            format!("{}", c.nodes),
            format!("{:.1}x", c.churn),
            format!("{:.1}", c.success * 100.0),
            format!("{}", c.fault_events),
            format!("{}", c.killed),
            format!("{}", c.recovered),
            format!("{}", c.lost),
            format!("{}", c.pending),
            format!("{:.2}", c.recovery_mean_s),
            format!("{}", c.migrations),
            format!("{}", c.audit_violations),
        ]);
    }
    table
}

/// Probe-loss rates of the lossy-transport grid axis.
pub const PROBE_LOSS_LEVELS: [f64; 4] = [0.0, 0.05, 0.10, 0.20];

/// One lossy-transport grid cell: two-phase setup under message faults.
#[derive(Debug, Clone, PartialEq)]
pub struct LossCell {
    /// Stream-node count of the overlay.
    pub nodes: usize,
    /// Probe-drop rate of the cell (confirm loss rides at half this).
    pub probe_loss: f64,
    /// Composition success rate over the run.
    pub success: f64,
    /// Requests whose setup was touched by at least one message fault.
    pub fault_hit: u64,
    /// Fault-hit requests that still composed — the retry loop's
    /// recovery count.
    pub recovered: u64,
    /// Requests lost *to faults*: failed with a fault-hit conclusive
    /// attempt (fault-touched requests that a fault-free attempt proved
    /// unserveable count as legitimate failures, not fault casualties).
    pub fault_failed: u64,
    /// Retry attempts beyond the first across all requests.
    pub retries: u64,
    /// Probe messages lost or discarded stale in transit.
    pub probes_lost: u64,
    /// Confirmations lost in transit (each orphans that attempt's
    /// leases).
    pub confirms_lost: u64,
    /// Leases orphaned by in-flight faults.
    pub leases_orphaned: u64,
    /// Orphaned leases recovered by backoff-time reclamation sweeps.
    pub leases_reclaimed: u64,
    /// Leases that outlived the post-horizon sweep (must be 0).
    pub leases_leaked: u64,
    /// Audit violations across every audit pass (must be 0).
    pub audit_violations: u64,
    /// Tenant-isolation audit violations (must be 0; always 0 on
    /// tenant-less cells).
    pub tenant_violations: u64,
    /// Combined session + audit digest of the run.
    pub chaos_digest: u64,
}

impl LossCell {
    fn from_result(nodes: usize, probe_loss: f64, result: &ScenarioResult) -> Self {
        LossCell {
            nodes,
            probe_loss,
            success: result.overall_success,
            fault_hit: result.fault_hit_requests,
            recovered: result.fault_hit_successes,
            fault_failed: result.setup_stats.fault_failures,
            retries: result.setup_stats.retries,
            probes_lost: result.setup_stats.probes_lost + result.setup_stats.stale_probes_discarded,
            confirms_lost: result.setup_stats.confirms_lost,
            leases_orphaned: result.setup_stats.leases_orphaned,
            leases_reclaimed: result.setup_stats.leases_reclaimed,
            leases_leaked: result.leases_leaked,
            audit_violations: result.audit_violations,
            tenant_violations: result.tenant_violations,
            chaos_digest: result.chaos_digest(),
        }
    }

    /// Share of otherwise-failed compositions the retry loop recovered:
    /// `recovered / (recovered + fault_failed)` (1.0 when no fault ever
    /// caused a loss).
    pub fn recovery_rate(&self) -> f64 {
        let denom = self.recovered + self.fault_failed;
        if denom == 0 {
            1.0
        } else {
            self.recovered as f64 / denom as f64
        }
    }
}

/// The scenario of one lossy-transport cell: the scale's base config at
/// the anchor rate on a healthy overlay (no churn — transport faults
/// only, so recovery numbers measure the retry loop alone) with
/// two-phase setup enabled at `probe_loss` drop rate, half that
/// confirm-loss rate, and a 50% chance a lost confirmation's ack later
/// resurfaces.
pub fn loss_config(scale: &Scale, seed: u64, nodes: usize, probe_loss: f64) -> ScenarioConfig {
    let mut config = scale.base_config(seed);
    config.stream_nodes = nodes;
    config.schedule = RateSchedule::constant(scale.anchor_rate);
    config.setup = Some(SetupConfig {
        faults: MessageFaultConfig {
            probe_drop: probe_loss,
            confirm_loss: probe_loss / 2.0,
            stale_ack: if probe_loss > 0.0 { 0.5 } else { 0.0 },
            ..MessageFaultConfig::default()
        },
        ..SetupConfig::default()
    });
    config
}

/// Runs the lossy-transport grid — every `scale.node_counts` overlay
/// size at every [`PROBE_LOSS_LEVELS`] drop rate — and returns the
/// cells in grid order (node-major). `tenanted` attaches the standard
/// tenant mix to every cell: tenant isolation must also survive lossy
/// two-phase transport.
pub fn loss_grid(scale: &Scale, seed: u64, threads: usize, tenanted: bool) -> Vec<LossCell> {
    let cells = grid(threads, &scale.node_counts, &PROBE_LOSS_LEVELS, |&nodes, &loss| {
        let mut config = loss_config(scale, seed, nodes, loss);
        config.tenants = tenanted.then(crate::tenants::sweep_mix);
        LossCell::from_result(nodes, loss, &acp_workload::run_scenario(config))
    });
    cells.into_iter().flatten().collect()
}

/// Renders the success-rate-vs-probe-loss grid as a report table.
pub fn loss_table(scale: &Scale, cells: &[LossCell]) -> Table {
    let mut table = Table::new(
        format!("Two-phase setup under probe loss ({} scale): success vs drop rate", scale.name),
        vec![
            "nodes",
            "probe loss %",
            "success %",
            "fault-hit",
            "recovered",
            "fault lost",
            "recovery %",
            "retries",
            "probes lost",
            "confirms lost",
            "orphaned",
            "reclaimed",
            "leaked",
            "audit violations",
        ],
    );
    for c in cells {
        table.push_row(vec![
            format!("{}", c.nodes),
            format!("{:.0}", c.probe_loss * 100.0),
            format!("{:.1}", c.success * 100.0),
            format!("{}", c.fault_hit),
            format!("{}", c.recovered),
            format!("{}", c.fault_failed),
            format!("{:.1}", c.recovery_rate() * 100.0),
            format!("{}", c.retries),
            format!("{}", c.probes_lost),
            format!("{}", c.confirms_lost),
            format!("{}", c.leases_orphaned),
            format!("{}", c.leases_reclaimed),
            format!("{}", c.leases_leaked),
            format!("{}", c.audit_violations),
        ]);
    }
    table
}

/// One long high-rate churn run (the "soak"): `minutes` of simulated
/// time at three times the scale's anchor rate so the event count is
/// dominated by real work, with churn at `churn` times the default
/// fault rates. The acceptance bar: tens of thousands of events,
/// several concurrent fault classes, zero audit violations.
/// `tenanted` attaches the standard tenant mix.
pub fn soak(scale: &Scale, seed: u64, churn: f64, minutes: u64, tenanted: bool) -> ScenarioResult {
    let mut config = chaos_config(scale, seed, scale.stream_nodes, churn);
    config.schedule = RateSchedule::constant(scale.anchor_rate * 3.0);
    config.duration = SimDuration::from_minutes(minutes);
    config.tenants = tenanted.then(crate::tenants::sweep_mix);
    acp_workload::run_scenario(config)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_config_enables_churn() {
        let scale = Scale::quick();
        let config = chaos_config(&scale, 42, 30, 2.0);
        assert_eq!(config.stream_nodes, 30);
        let churn = config.churn.expect("churn enabled");
        assert!((churn.faults.node_fail_per_min - ChurnConfig::default().faults.node_fail_per_min * 2.0).abs() < 1e-12);
    }

    #[test]
    fn table_has_one_row_per_cell() {
        let scale = Scale::quick();
        let cells = vec![
            ChaosCell {
                nodes: 30,
                churn: 1.0,
                success: 0.9,
                fault_events: 12,
                fault_kinds: 4,
                killed: 5,
                recovered: 3,
                lost: 1,
                pending: 1,
                recovery_mean_s: 2.0,
                migrations: 1,
                audit_violations: 0,
                chaos_digest: 7,
                sim_events: 1000,
                leases_leaked: 0,
                preemptions: 0,
                tenant_violations: 0,
            };
            4
        ];
        let table = chaos_table(&scale, &cells);
        assert_eq!(table.to_csv().lines().count(), 5, "header + 4 rows");
    }

    /// The table's three fates partition what the faults killed, on a
    /// real cell: 2x churn at the quick scale's largest overlay.
    #[test]
    fn killed_is_recovered_plus_lost_plus_pending() {
        let mut scale = Scale::quick();
        scale.node_counts = vec![70];
        let cells = chaos_grid(&scale, 42, 2, false);
        for cell in &cells {
            assert_eq!(cell.killed, cell.recovered + cell.lost + cell.pending, "{cell:?}");
        }
        assert!(cells.last().expect("three churn levels").killed > 0, "2x churn must orphan sessions");
    }

    #[test]
    fn tenanted_grid_is_live_deterministic_and_isolation_clean() {
        let scale = Scale::quick();
        let cells = chaos_grid(&scale, 42, 2, true);
        assert_eq!(cells.len(), scale.node_counts.len() * CHURN_LEVELS.len());
        for cell in &cells {
            assert_eq!(cell.tenant_violations, 0, "isolation must hold under churn");
            assert_eq!(cell.audit_violations, 0);
        }
        // The mix must actually engage, not ride along inertly: the
        // seeded grid diverges from its tenant-less twin somewhere.
        let plain = chaos_grid(&scale, 42, 2, false);
        assert!(
            cells.iter().zip(&plain).any(|(t, p)| t.chaos_digest != p.chaos_digest),
            "tenanted grid must shed or preempt at some cell"
        );
        // …and stays deterministic across thread counts.
        let again = chaos_grid(&scale, 42, 4, true);
        assert_eq!(cells, again);
    }
}
