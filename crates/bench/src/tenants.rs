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
    tier_index, RateSchedule, ScenarioConfig, ScenarioResult, TenantPreemptionConfig,
    TenantsConfig, TierSummary,
};

use crate::experiments::Scale;
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

/// One point of the sweep: the standard mix at `load` times the anchor
/// rate.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantPoint {
    /// Offered-load multiplier over the scale's anchor rate.
    pub load: f64,
    /// Offered request rate (requests/minute).
    pub rate: f64,
    /// Per-tier outcomes in [`tier_index`] order.
    pub tiers: [TierSummary; 3],
    /// Jain fairness index over the three tier success rates.
    pub jain: f64,
    /// Sessions preempted by the pressure controller.
    pub preemptions: u64,
    /// Tenant-isolation audit violations (must be 0).
    pub tenant_violations: u64,
    /// All audit violations (must be 0).
    pub audit_violations: u64,
    /// Combined session + audit digest of the run.
    pub chaos_digest: u64,
}

impl TenantPoint {
    fn from_result(load: f64, rate: f64, result: &ScenarioResult) -> Self {
        let tiers = result.tenant_tiers;
        let rates: Vec<f64> = tiers.iter().map(|t| t.success_rate()).collect();
        TenantPoint {
            load,
            rate,
            tiers,
            jain: jain_index(&rates),
            preemptions: result.tenant_preemptions,
            tenant_violations: result.tenant_violations,
            audit_violations: result.audit_violations,
            chaos_digest: result.chaos_digest(),
        }
    }

    /// Success rate of `tier` at this point.
    pub fn success(&self, tier: TenantTier) -> f64 {
        self.tiers[tier_index(tier)].success_rate()
    }
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
/// points in load order.
pub fn fig_tenants(scale: &Scale, seed: u64, threads: usize) -> Vec<TenantPoint> {
    run_indexed(threads, &LOAD_LEVELS, |&load| {
        let result = acp_workload::run_scenario(tenants_config(scale, seed, load));
        TenantPoint::from_result(load, scale.anchor_rate * load, &result)
    })
}

/// Renders the sweep as a report table (one row per load level).
pub fn tenants_table(scale: &Scale, points: &[TenantPoint]) -> Table {
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
    for p in points {
        let shed: u64 = p.tiers.iter().map(|t| t.shed).sum();
        table.push_row(vec![
            format!("{:.1}x", p.load),
            format!("{:.0}", p.rate),
            format!("{:.1}", p.success(TenantTier::Gold) * 100.0),
            format!("{:.1}", p.success(TenantTier::Silver) * 100.0),
            format!("{:.1}", p.success(TenantTier::BestEffort) * 100.0),
            format!("{:.3}", p.jain),
            format!("{shed}"),
            format!("{}", p.preemptions),
            format!("{}", p.tenant_violations),
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
        for p in &points {
            assert!(
                p.success(TenantTier::Gold) >= p.success(TenantTier::Silver)
                    && p.success(TenantTier::Silver) >= p.success(TenantTier::BestEffort),
                "tier ordering must hold at {:.1}x: gold {} silver {} best {}",
                p.load,
                p.success(TenantTier::Gold),
                p.success(TenantTier::Silver),
                p.success(TenantTier::BestEffort),
            );
            assert_eq!(p.tenant_violations, 0, "isolation must hold at {:.1}x", p.load);
            assert_eq!(p.audit_violations, 0, "audits must pass at {:.1}x", p.load);
            assert!((0.0..=1.0 + 1e-12).contains(&p.jain));
        }
        // Overload must actually differentiate the tiers: at the top
        // load the gate sheds best-effort traffic and fairness drops
        // below the uncongested starting point.
        let top = points.last().unwrap();
        assert!(top.tiers[tier_index(TenantTier::BestEffort)].shed > 0, "top load must shed");
        assert!(
            top.success(TenantTier::Gold) > top.success(TenantTier::BestEffort),
            "gold must dominate under overload"
        );
        assert!(top.jain < points[0].jain, "fairness must fall under overload");
    }
}
