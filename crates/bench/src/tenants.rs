//! `fig_tenants`: multi-tenant admission control vs offered load.
//!
//! The paper's evaluation runs one implicit tenant; this sweep drives
//! the [`TenantsConfig::standard_mix`] population (one `Gold`, one
//! `Silver`, two `BestEffort` tenants at equal arrival share) through
//! increasing overload and records what the QoS tiers actually buy:
//! per-tier end-to-end success rate (sheds count against the tier), the
//! Jain fairness index across the tiers, shed/preemption volumes, and
//! the tenant-isolation audit verdict — which must be zero violations
//! at every point.
//!
//! The expected shape: at low load the gate admits everything and the
//! tiers are indistinguishable (Jain ≈ 1); as load rises the congestion
//! gate sheds `BestEffort` first, then `Silver`, so `Gold` success
//! dominates and the index falls — deliberate, SLA-shaped unfairness.

use acp_core::AdmissionConfig;
use acp_model::prelude::TenantTier;
use acp_workload::{
    tier_index, RateSchedule, ScenarioConfig, ScenarioResult, TenantPreemptionConfig, TenantsConfig,
};

use crate::experiments::{Point, Scale};
use crate::parallel::run_indexed;
use crate::report::Table;

/// Offered-load multipliers applied to the scale's anchor rate.
pub const LOAD_LEVELS: [f64; 4] = [1.0, 2.0, 4.0, 6.0];

/// Congestion thresholds for the sweep. The defaults in
/// [`AdmissionConfig`] are placed for paper-scale utilization; the
/// quick grids run smaller, cooler systems, so the sweep pins
/// thresholds that actually bind inside the utilization band both
/// scales reach — keeping the figure's shape scale-independent.
pub const SWEEP_ADMISSION: AdmissionConfig =
    AdmissionConfig { best_effort_threshold: 0.30, silver_threshold: 0.55 };

/// Jain's fairness index over `xs`: `(Σx)² / (n·Σx²)`, 1.0 when all
/// equal, → 1/n as one value dominates. Empty or all-zero input reads
/// as perfectly fair (1.0).
pub fn jain_index(xs: &[f64]) -> f64 {
    let sum: f64 = xs.iter().sum();
    let sq: f64 = xs.iter().map(|x| x * x).sum();
    if xs.is_empty() || sq == 0.0 {
        return 1.0;
    }
    sum * sum / (xs.len() as f64 * sq)
}

/// Jain fairness index over the run's three tier success rates.
pub fn tier_fairness(result: &ScenarioResult) -> f64 {
    jain_index(&result.tenant_tiers.map(|t| t.success_rate()))
}

/// The standard mix with the sweep thresholds and preemption armed at
/// the best-effort threshold — the population every tenanted benchmark
/// (this sweep, the tenanted chaos grids) drives.
pub fn sweep_mix() -> TenantsConfig {
    let mut tenants = TenantsConfig::standard_mix();
    tenants.admission = SWEEP_ADMISSION;
    tenants.preemption = Some(TenantPreemptionConfig {
        congestion_threshold: SWEEP_ADMISSION.best_effort_threshold,
        ..TenantPreemptionConfig::default()
    });
    tenants
}

/// The scenario of one sweep point: the scale's base config at `load`
/// times the anchor rate with the standard tenant mix, sweep
/// thresholds, and best-effort preemption enabled.
pub fn tenants_config(scale: &Scale, seed: u64, load: f64) -> ScenarioConfig {
    let mut config = scale.base_config(seed);
    config.schedule = RateSchedule::constant(scale.anchor_rate * load);
    config.tenants = Some(sweep_mix());
    config
}

/// Runs the sweep — every [`LOAD_LEVELS`] multiplier — and returns the
/// points in load order, each at its load multiplier.
pub fn fig_tenants(scale: &Scale, seed: u64, threads: usize) -> Vec<Point<f64>> {
    run_indexed(threads, &LOAD_LEVELS, |&load| Point {
        at: load,
        result: acp_workload::run_scenario(tenants_config(scale, seed, load)),
    })
}

/// Renders the sweep as a report table (one row per load level).
pub fn tenants_table(scale: &Scale, points: &[Point<f64>]) -> Table {
    let mut table = Table::new(
        format!("Multi-tenant QoS tiers ({} scale): success and fairness vs offered load", scale.name),
        vec![
            "load",
            "req/min",
            "gold %",
            "silver %",
            "best-effort %",
            "jain",
            "shed",
            "preempted",
            "tenant violations",
        ],
    );
    for Point { at: load, result: r } in points {
        let success = |tier| r.tenant_tiers[tier_index(tier)].success_rate() * 100.0;
        let shed: u64 = r.tenant_tiers.iter().map(|t| t.shed).sum();
        table.push_row(vec![
            format!("{load:.1}x"),
            format!("{:.0}", scale.anchor_rate * load),
            format!("{:.1}", success(TenantTier::Gold)),
            format!("{:.1}", success(TenantTier::Silver)),
            format!("{:.1}", success(TenantTier::BestEffort)),
            format!("{:.3}", tier_fairness(r)),
            format!("{shed}"),
            format!("{}", r.tenant_preemptions),
            format!("{}", r.tenant_violations),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jain_index_bounds() {
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[0.0, 0.0]), 1.0);
        assert!((jain_index(&[0.7, 0.7, 0.7]) - 1.0).abs() < 1e-12, "equal shares are fair");
        // One tier hoarding everything drives the index toward 1/n.
        let skew = jain_index(&[1.0, 0.0, 0.0]);
        assert!((skew - 1.0 / 3.0).abs() < 1e-12, "got {skew}");
        // Mild skew sits strictly between.
        let mild = jain_index(&[0.9, 0.7, 0.5]);
        assert!(mild > 1.0 / 3.0 && mild < 1.0, "got {mild}");
    }

    #[test]
    fn sweep_tiers_order_and_audit_clean_at_quick_scale() {
        let scale = Scale::quick();
        let points = fig_tenants(&scale, 42, 2);
        assert_eq!(points.len(), LOAD_LEVELS.len());
        for Point { at: load, result: r } in &points {
            let [gold, silver, best] = r.tenant_tiers.map(|t| t.success_rate());
            assert!(
                gold >= silver && silver >= best,
                "tier ordering must hold at {load:.1}x: gold {gold} silver {silver} best {best}",
            );
            assert_eq!(r.tenant_violations, 0, "isolation must hold at {load:.1}x");
            assert_eq!(r.audit_violations, 0, "audits must pass at {load:.1}x");
            assert!((0.0..=1.0 + 1e-12).contains(&tier_fairness(r)));
        }
        // Overload must actually differentiate the tiers: at the top
        // load the gate sheds best-effort traffic and fairness drops
        // below the uncongested starting point.
        let top = &points.last().unwrap().result;
        let [gold, _, best] = top.tenant_tiers;
        assert!(best.shed > 0, "top load must shed");
        assert!(gold.success_rate() > best.success_rate(), "gold must dominate under overload");
        assert!(tier_fairness(top) < tier_fairness(&points[0].result), "fairness must fall under overload");
    }
}
