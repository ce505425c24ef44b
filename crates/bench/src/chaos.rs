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
//! restarted, lost, or still had queued at the horizon, and — the point
//! of the exercise — the
//! [`SystemAuditor`](acp_model::audit::SystemAuditor) violation count,
//! which must be zero for every cell. Every cell runs the terminate arm
//! (no repair config); its time to restart is `figures repair`'s MTTR.

use acp_core::SetupConfig;
use acp_simcore::{MessageFaultConfig, SimDuration};
use acp_workload::{ChurnConfig, RateSchedule, ScenarioConfig, ScenarioResult};

use crate::experiments::{sweep, Point, Scale};
use crate::report::Table;

/// Churn multipliers of the grid's fault-rate axis.
const CHURN_LEVELS: [f64; 3] = [0.5, 1.0, 2.0];

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
/// every `CHURN_LEVELS` fault-rate multiplier — and returns the cells
/// in grid order (node-major), each at its `(nodes, churn)`. `tenanted`
/// attaches the standard tenant mix to every cell: admission shedding,
/// best-effort preemption and the tenant-isolation audit pass all run
/// under the same churn.
pub fn chaos_grid(scale: &Scale, seed: u64, threads: usize, tenanted: bool) -> Vec<Point<(usize, f64)>> {
    sweep(threads, &scale.node_counts, &CHURN_LEVELS, |nodes, churn| {
        let mut config = chaos_config(scale, seed, nodes, churn);
        config.tenants = tenanted.then(crate::tenants::sweep_mix);
        config
    })
}

/// Renders the grid as a report table (one row per cell).
pub fn chaos_table(scale: &Scale, cells: &[Point<(usize, f64)>]) -> Table {
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
            "audit violations",
        ],
    );
    for Point { at: (nodes, churn), result: r } in cells {
        table.push_row(vec![
            format!("{nodes}"),
            format!("{churn:.1}x"),
            format!("{:.1}", r.overall_success * 100.0),
            format!("{}", r.fault_events),
            format!("{}", r.sessions_killed),
            format!("{}", r.sessions_recovered),
            format!("{}", r.sessions_lost),
            format!("{}", r.sessions_pending),
            format!("{}", r.audit_violations),
        ]);
    }
    table
}

/// Probe-loss rates of the lossy-transport grid axis.
pub const PROBE_LOSS_LEVELS: [f64; 4] = [0.0, 0.05, 0.10, 0.20];

/// The scenario of one lossy-transport cell: the scale's base config at
/// the anchor rate on a healthy overlay (no churn — transport faults
/// only, so recovery numbers measure the retry loop alone) with
/// two-phase setup enabled at `probe_loss` drop rate, half that
/// confirm-loss rate, and a 50% chance a lost confirmation's ack later
/// resurfaces.
fn loss_config(scale: &Scale, seed: u64, nodes: usize, probe_loss: f64) -> ScenarioConfig {
    let mut config = scale.base_config(seed);
    config.stream_nodes = nodes;
    config.schedule = RateSchedule::constant(scale.anchor_rate);
    config.setup = Some(SetupConfig {
        faults: MessageFaultConfig {
            probe_drop: probe_loss,
            confirm_loss: probe_loss / 2.0,
            stale_ack: if probe_loss > 0.0 { 0.5 } else { 0.0 },
        },
        ..SetupConfig::default()
    });
    config
}

/// Runs the lossy-transport grid — every `scale.node_counts` overlay
/// size at every [`PROBE_LOSS_LEVELS`] drop rate — and returns the
/// cells in grid order (node-major), each at its `(nodes, probe loss)`.
/// `tenanted` attaches the standard tenant mix to every cell: tenant
/// isolation must also survive lossy two-phase transport.
pub fn loss_grid(scale: &Scale, seed: u64, threads: usize, tenanted: bool) -> Vec<Point<(usize, f64)>> {
    sweep(threads, &scale.node_counts, &PROBE_LOSS_LEVELS, |nodes, loss| {
        let mut config = loss_config(scale, seed, nodes, loss);
        config.tenants = tenanted.then(crate::tenants::sweep_mix);
        config
    })
}

/// Renders the success-rate-vs-probe-loss grid as a report table.
/// "fault lost" counts requests lost *to* faults (a fault-touched request
/// that a fault-free attempt proved unserveable is a legitimate failure);
/// "probes lost" includes probes discarded stale in transit.
pub fn loss_table(scale: &Scale, cells: &[Point<(usize, f64)>]) -> Table {
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
    for Point { at: (nodes, loss), result: r } in cells {
        let setup = &r.setup_stats;
        table.push_row(vec![
            format!("{nodes}"),
            format!("{:.0}", loss * 100.0),
            format!("{:.1}", r.overall_success * 100.0),
            format!("{}", r.fault_hit_requests),
            format!("{}", r.fault_hit_successes),
            format!("{}", setup.fault_failures),
            format!("{:.1}", r.recovery_rate() * 100.0),
            format!("{}", setup.retries),
            format!("{}", setup.probes_lost),
            format!("{}", setup.confirms_lost),
            format!("{}", setup.leases_orphaned),
            format!("{}", setup.leases_reclaimed),
            format!("{}", r.leases_leaked),
            format!("{}", r.audit_violations),
        ]);
    }
    table
}

/// One long high-rate churn run (the "soak"): `minutes` of simulated
/// time at three times the scale's anchor rate so the event count is
/// dominated by real work, with churn at `churn` times the default
/// fault rates. The acceptance bar: tens of thousands of events,
/// several concurrent fault classes, zero audit violations.
pub fn soak(scale: &Scale, seed: u64, churn: f64, minutes: u64) -> ScenarioResult {
    let mut config = chaos_config(scale, seed, scale.stream_nodes, churn);
    config.schedule = RateSchedule::constant(scale.anchor_rate * 3.0);
    config.duration = SimDuration::from_minutes(minutes);
    acp_workload::run_scenario(config)
}

/// Renders one `minutes`-long soak run as a one-row report table.
pub fn soak_table(scale: &Scale, minutes: u64, r: &ScenarioResult) -> Table {
    let mut table = Table::new(
        format!("Chaos soak ({} scale): one long run under mixed faults", scale.name),
        vec![
            "minutes",
            "events",
            "faults",
            "fault classes",
            "killed",
            "recovered",
            "leaked",
            "audit violations",
            "chaos digest",
        ],
    );
    table.push_row(vec![
        format!("{minutes}"),
        format!("{}", r.sim_events),
        format!("{}", r.fault_events),
        format!("{}", r.fault_kinds),
        format!("{}", r.sessions_killed),
        format!("{}", r.sessions_recovered),
        format!("{}", r.leases_leaked),
        format!("{}", r.audit_violations),
        format!("{:016x}", r.chaos_digest()),
    ]);
    table
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
        let blank = ScenarioResult::new(acp_core::AlgorithmKind::Acp);
        let cells = vec![Point { at: (30, 1.0), result: blank }; 4];
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
        for Point { at, result: r } in &cells {
            let fates = r.sessions_recovered + r.sessions_lost + r.sessions_pending;
            assert_eq!(r.sessions_killed, fates, "{at:?}");
        }
        let top = &cells.last().expect("three churn levels").result;
        assert!(top.sessions_killed > 0, "2x churn must orphan sessions");
    }

    #[test]
    fn tenanted_grid_is_live_deterministic_and_isolation_clean() {
        let scale = Scale::quick();
        let cells = chaos_grid(&scale, 42, 2, true);
        assert_eq!(cells.len(), scale.node_counts.len() * CHURN_LEVELS.len());
        for cell in &cells {
            assert_eq!(cell.result.tenant_violations, 0, "isolation must hold under churn");
            assert_eq!(cell.result.audit_violations, 0);
        }
        // The mix must actually engage, not ride along inertly: the
        // seeded grid diverges from its tenant-less twin somewhere.
        let plain = chaos_grid(&scale, 42, 2, false);
        assert!(
            cells.iter().zip(&plain).any(|(t, p)| t.result.chaos_digest() != p.result.chaos_digest()),
            "tenanted grid must shed or preempt at some cell"
        );
        // …and stays deterministic across thread counts.
        let again = chaos_grid(&scale, 42, 4, true);
        assert_eq!(cells, again);
    }
}
